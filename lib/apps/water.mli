(** Water — simplified Water-Nsquared (Splash2): N three-site molecules in
    padded 512-byte structs, pairwise site-site forces accumulated under
    molecule-group locks, barriers between phases.

    With [inject_bug] (the default, matching the shipped benchmark) the
    global potential-energy accumulator is updated WITHOUT its lock —
    the write-write-race class of defect the paper found and reported.
    The detector must flag exactly the accumulator word; the fixed
    version must be race-free. *)

type params = {
  nmols : int;
  steps : int;
  mols_per_lock : int;  (** force-merge lock granularity *)
  inject_bug : bool;
}

val paper_params : params
(** 216 molecules, 5 steps (the evaluation's input), bug present. *)

val small_params : params

val large_params : params
(** 512 molecules, 5 steps: the benchmark pipeline's headroom tier. *)

type reference_result = { positions : (float * float * float) array array; potential : float }

val reference : params -> reference_result
(** Sequential reference; parallel positions match within floating-point
    reassociation tolerance. *)

val sites : int

val initial_site : int -> int -> int -> (float * float * float)
(** [initial_site nmols mol site] — deterministic initial position. *)

val site_interaction :
  float * float * float -> float * float * float -> (float * float * float) * float
(** Force on the first site from the second, plus the pair's potential
    contribution. *)

val make : params -> App.t
