(** Deterministic discrete-event simulation engine.

    Simulated processors are coroutines built on OCaml 5 effect handlers.
    A process interacts with virtual time by [advance]-ing its clock and
    [block]-ing until woken. A single event loop drains one deterministic
    priority queue, so a given program always produces the same
    interleaving. *)

type t

type pid = int

type diagnosis = {
  diag_time : int;  (** simulated time of the diagnosis *)
  diag_live : int;  (** processes not yet finished *)
  diag_blocked : (pid * string) list;  (** blocked processes and their labels *)
  diag_notes : string list;  (** lines from registered subsystem reporters *)
}

exception Deadlock of diagnosis
(** Raised by [run] when the event queue drains while processes are still
    blocked. The diagnosis lists every blocked process with its label
    plus the registered subsystem reports (per-link unacked transport
    frames, per-lock queue depths). This is how lost wakeups, lock
    cycles, and exhausted retransmission retries in simulated programs
    surface. *)

val diagnosis_to_string : diagnosis -> string

val create : unit -> t

val now : t -> int
(** Current simulated time in nanoseconds. *)

val spawn : t -> (pid -> unit) -> pid
(** Register a process; its body starts running when [run] is called.
    Pids are assigned densely from 0 in spawn order; the process table is
    a growable array indexed by pid, so [spawn] and pid lookup are O(1). *)

val schedule : t -> at:int -> (unit -> unit) -> unit
(** Run a thunk at an absolute simulated time (e.g. message delivery).
    The engine holds the thunk in a slot of its thunk table until it
    runs and clears the slot before calling it, so a thunk that has run
    is not kept reachable by the engine. *)

val schedule_after : t -> delay:int -> (unit -> unit) -> unit

val advance : t -> int -> unit
(** From within a process of this engine: consume simulated
    nanoseconds. A positive duration suspends the process and allocates
    2 minor words, the continuation: the duration goes into an engine
    field, the effect is a constant, the process's handler is built once
    when it starts, and the event queue stores integers. *)

val advance_f : t -> float -> unit

val block : label:string -> unit
(** From within a process: suspend until [wake]. The label appears in
    [Deadlock] diagnoses. A wakeup that arrives before the block is not
    lost: the next [block] returns immediately. *)

val wake : t -> pid -> unit
(** Make a blocked process runnable at the current simulated time. *)

val set_tracer : t -> Trace.Sink.t option -> unit
(** Install (or clear) the run's trace sink. The engine emits process
    blocks, wakes and finishes into it at the simulated moment they
    happen; {!Net} and {!Transport} read it at creation for their wire
    and transport events. Emitting never schedules, draws randomness or
    advances time; with no sink installed each hook costs one branch. *)

val tracer : t -> Trace.Sink.t option

val add_diagnostic : t -> (unit -> string list) -> unit
(** Register a subsystem reporter whose lines are included in every
    [Deadlock] diagnosis (e.g. the transport's per-link unacked queues,
    the lock managers' queue depths). *)

val run : t -> unit
(** Drain the event queue. Raises [Deadlock] if processes remain blocked
    when it is empty, and re-raises any exception escaping a process
    body. The library's events always drain: deliveries, timed thunks
    and partition windows fire once, and a {!Transport} retransmission
    timer re-arms at most [max_retries] times per frame before its link
    is given up ([Coherence.Config.check] bounds the cap by
    {!Transport.max_retry_cap}). *)
