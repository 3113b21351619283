(** Seeded per-link fault injection for the simulated wire.

    A {!plan} describes what the network may do to a frame: drop it,
    duplicate it, hold it back into a reorder, add a latency spike, or
    black-hole it during a scheduled partition window. Decisions are drawn
    from one independent {!Rng} stream per (src, dst) link, so a given
    (plan, seed) pair produces an identical fault schedule no matter what
    any other link — or the jitter model — draws. *)

type partition = {
  p_a : int;  (** one endpoint of the partitioned link *)
  p_b : int;  (** the other endpoint; both directions are cut *)
  p_from_ns : int;  (** partition start, simulated time *)
  p_until_ns : int;  (** partition end (exclusive) *)
}

type plan = {
  drop : float;  (** probability a wire frame is lost *)
  duplicate : float;  (** probability a second copy is injected *)
  reorder : float;  (** probability a frame is held back *)
  reorder_window_ns : int;  (** max hold-back for a reordered frame *)
  spike : float;  (** probability of a latency spike *)
  spike_ns : int;  (** spike magnitude *)
  partitions : partition list;  (** scheduled link outages *)
}

val none : plan
(** No faults; also the source of default window values for
    [{ none with drop = ... }] updates. *)

val active : plan -> bool
(** Does the plan ever perturb a frame? *)

val validate : plan -> plan
(** Returns the plan; raises [Invalid_argument] on probabilities outside
    [0,1] or NaN, negative windows, or inverted partition intervals. *)

type t

val create : nodes:int -> rng:Rng.t -> plan -> t
(** Split one fault stream per link off [rng]. Validates the plan. *)

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

val partitioned : t -> src:int -> dst:int -> now:int -> bool
(** Is the link inside one of its scheduled partition windows at [now]? *)

val windows : t -> partition list
(** The plan's scheduled partition windows (for partition open/close
    observation). *)

val describe : plan -> string
(** Human-readable one-line summary ("drop 20%, dup 5%, ..."). *)
