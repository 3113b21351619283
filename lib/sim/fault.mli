(** Seeded per-link fault injection for the simulated wire.

    A {!plan} describes what the network may do to a frame: drop it,
    duplicate it, hold it back into a reorder, or black-hole it during a
    scheduled partition window. Decisions are drawn from one independent
    {!Rng} stream per (src, dst) link, so a given (plan, seed) pair
    produces an identical fault schedule no matter what any other link
    draws.

    A plan is trusted as given: [Coherence.Config.check] judges it
    (probabilities in [0, 1], windows with [0 <= from <= until], two
    distinct endpoints below the node count) before a run is built. *)

type partition = {
  p_a : int;  (** one endpoint of the partitioned link *)
  p_b : int;  (** the other endpoint; both directions are cut *)
  p_from_ns : int;  (** partition start, simulated time *)
  p_until_ns : int;  (** partition end (exclusive) *)
}

type plan = {
  drop : float;  (** probability a wire frame is lost *)
  duplicate : float;  (** probability a second copy is injected *)
  reorder : float;
      (** probability a frame is held back, by a uniform draw of up to
          800,000 ns *)
  partitions : partition list;  (** scheduled link outages *)
}

val none : plan
(** No faults; the base of [{ none with drop = ... }] updates. *)

val active : plan -> bool
(** Does the plan ever perturb a frame? *)

type t

val create : nodes:int -> rng:Rng.t -> plan -> t
(** Split one fault stream per link off [rng]. *)

type verdict = {
  v_delays : int list;
      (** extra delivery delays in nanoseconds, one per surviving copy:
          [[]] means the frame was lost (dropped or partitioned); two
          entries mean fault injection duplicated it *)
  v_dropped : bool;  (** one copy was lost to the drop probability *)
  v_partitioned : bool;  (** black-holed by a partition window *)
}

val judge_verdict : t -> src:int -> dst:int -> now:int -> verdict
(** The fate of one wire frame on link (src, dst) at time [now], with
    what happened, so an observer (the trace recorder) can tell a random
    drop from a partition black-hole. *)

val describe : plan -> string
(** Human-readable one-line summary ("drop 20%, dup 5%, ..."). *)
