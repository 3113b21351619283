(** Fan-out of independent simulation runs over OCaml 5 domains.

    Every task is expected to be a self-contained simulation run: it
    builds its own cluster, engine, stats and RNGs, touches only
    read-only shared state (see docs/PARALLEL.md for the audit), and
    returns a value instead of printing. Under that contract a parallel
    [map] returns exactly what [List.map] would. *)

val max_jobs : int
(** 128: the calling domain plus 127 helpers, the most domains OCaml 5.1
    can run at once. *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()], clamped to 1 .. {!max_jobs} —
    the default wherever a [--jobs] flag is offered. *)

val map : jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map ~jobs f xs] applies [f] to every element and returns the
    results in input order. The calling domain takes tasks beside at
    most [min jobs (List.length xs) - 1] helper domains, so [jobs = 1]
    spawns none and runs every task in input order on the caller. Every
    task runs even when some raise; then the first failure in input
    order is re-raised with its backtrace, as [List.map] would have
    raised it. Raises [Invalid_argument] if [jobs] is outside
    1 .. {!max_jobs}. *)
