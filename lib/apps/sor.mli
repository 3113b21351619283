(** SOR — Jacobi relaxation over a 2-D grid with a barrier per sweep.
    The paper's race-free, barrier-only workload: the only cross-processor
    sharing is neighbour-row reads at partition boundaries (page-level
    false sharing), so the detector must report nothing. *)

type params = { rows : int; cols : int; iters : int }

val paper_params : params
(** 512 x 512, 5 sweeps (the evaluation's input). *)

val small_params : params

val large_params : params
(** 1024 x 1024, 5 sweeps: the benchmark pipeline's headroom tier. *)

val reference : params -> float array array
(** Sequential reference grid; the parallel run matches it exactly. *)

val band : rows:int -> nprocs:int -> pid:int -> int * int
(** Contiguous rows [lo, hi) owned by a processor. *)

val make : params -> App.t
