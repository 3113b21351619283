(** Seeded random concurrent-program generator with ground truth by
    construction.

    Every shared word is assigned a role before any code is emitted,
    and the emission rules per role make its racy/race-free status a
    theorem about the program rather than an observation about one run:

    - {b private} — accessed by exactly one processor. Race-free.
      Adjacent private words owned by different processors create
      false sharing on the bus backends (benign at word granularity).
    - {b read-only} — written only by processor 0 in phase 0, read by
      any processor in phases >= 1. Barrier-ordered, hence race-free:
      the benign producer/consumer pattern.
    - {b locked} — every access holds the word's dedicated lock
      (possibly nested inside other locks, always acquired in
      ascending id order so no deadlock). Race-free.
    - {b racy} — touched only by its designated processor pair, only
      in its designated phase, as the {e last} operations of each
      processor's phase segment. With no release after the access and
      no acquire before the partner's (within the phase), no
      happens-before path can order the pair in either direction, so
      the race is real on every execution — and the racy set is
      independent of lock-grant order, hence backend-independent.

    The union of racy words is the program's ground truth, which the
    differential harness checks the detector and oracle against. *)

type generated = {
  program : Program.t;
  racy : int list;  (** sorted ground-truth racy word indices *)
  role : string array;  (** per-word role label, for failure reports *)
}

val generate_seeded : seed:int -> index:int -> unit -> generated
(** Draw one program from an rng derived from [(seed, index)], named
    ["gen-<seed>-<index>"] — the spelling the fuzz CLI and repro docs
    use, so a failing program is reconstructible from its name. It has
    2-4 processors, 1-3 phases, 2-6 accesses per processor per phase, a
    few words of each role and locks nested up to 3 deep, and is
    {!Program.validate}d before being returned. *)
