(** TSP — branch-and-bound travelling salesman: a lock-protected work
    queue, a lock-protected global bound... and the paper's deliberate
    benign race: pruning reads the bound WITHOUT the lock (site
    "tsp:bound_prune"). The detector must report read-write races on the
    bound word and nothing else. *)

type params = {
  ncities : int;
  seed : int;
  dfs_threshold : int;  (** solve privately once this few cities remain *)
}

val paper_params : params
(** 16 cities (the paper ran 19; see EXPERIMENTS.md for the scaling
    note — 19 remains available by constructing params directly). *)

val small_params : params

val distances : params -> int array array
(** The deterministic instance: pseudo-random cities on a 1000x1000 grid. *)

type bound_ctx
(** Precomputed minimisation context for {!lower_bound}: the matrix
    flattened plus per-city neighbours ranked by ascending distance. *)

val bound_ctx : int array array -> bound_ctx

val lower_bound : bound_ctx -> bool array -> current:int -> cost:int -> int
(** Admissible lower bound for a partial tour (cheapest continuation edge
    per remaining city). Identical in value to the textbook full-scan
    formulation; the context only accelerates the minimisations. *)

val reference : params -> int
(** Optimal tour cost by Held-Karp dynamic programming over (visited
    set, last city), which shares nothing with the parallel search; the
    parallel run's self-check compares against it. Its table is
    2{^ n-1}·(n-1) words for n cities (3.9 MB at 16). *)

val make : params -> App.t
