(** Workload programs: explicit per-processor access/sync streams.

    This is the representation both new workload sources share — trace
    files parsed by {!Trace_file} and random programs built by
    {!Generator} — and the one the differential fuzzing harness
    ({!Harness}) runs under every coherence backend. A program is a
    fixed word count plus one operation stream per processor; word
    indices address an 8-byte-word shared array the interpreter
    allocates at run time, so the same program runs unmodified on the
    LRC DSM cluster and on the snooping-bus cache machines.

    Unlike the SPMD applications, the streams are explicit per
    processor: processor [p] executes exactly [streams.(p)], which is
    what lets the generator plant races (and prove their absence)
    by construction. *)

type op =
  | Read of int  (** word index into the shared array *)
  | Write of int
  | Lock of int  (** lock id, blocking acquire *)
  | Unlock of int
  | Barrier  (** global barrier across every processor *)

type t = {
  name : string;
  nprocs : int;
  words : int;  (** shared array length, 8-byte words *)
  streams : op list array;  (** length [nprocs]; [streams.(p)] runs on processor [p] *)
}

exception Invalid of string
(** Raised by {!validate} with a human-readable reason. *)

val max_words : int
(** 2^20: the largest shared-array length, in words, a program or a
    trace file accepts. *)

val validate : t -> unit
(** Structural checks: [nprocs] in [[1, Coherence.Config.max_procs]], [words] in
    [[1, max_words]], stream count matches [nprocs], word and lock ids
    in range, every stream holds the same number of barriers
    (they are global rendezvous), locks acquired at most once, released
    only when held, and never held across a barrier or the stream's end
    (a lock held at a barrier can deadlock the rendezvous). *)

val size : t -> int
(** Total events across every stream (accesses, lock ops and barriers) —
    the measure the shrinker minimizes and repro budgets are stated in. *)

val phases : t -> int
(** Barriers per stream (equal across streams once validated): the
    program has [phases + 1] barrier epochs including the implicit
    final barrier the interpreter appends. *)

val site : proc:int -> index:int -> string
(** The symbolic program counter of [streams.(proc)]'s [index]-th op —
    the same label the interpreter charges accesses to and the
    synthesized binary carries, so watch mode, MHP analysis and
    instrumentation elision all line up. *)

val accesses : t -> (int * int * Instrument.Binary.kind * int) list
(** Every shared access as [(proc, index, kind, word)], in stream
    order — the static site map tests use to tie dynamic races back to
    sites without a watch run. *)

val binary : t -> Instrument.Binary.t
(** A synthetic SPMD image for the static passes: the per-phase union
    of every processor's accesses as one straight-line CFG, each access
    wrapped in acquire/release of exactly the locks its processor holds
    at that point. Sound for MHP/elision: every dynamic access appears
    in its static phase with its true must-hold lockset, and the SPMD
    reading (any processor may run any op) only adds behaviors. *)

val to_app : ?base:int ref -> t -> Apps.App.t
(** Package the program as an application the existing driver stack
    runs unmodified (any backend, record/replay, elision, oracle
    trace). The body allocates [words * 8] shared bytes, stores the
    base address into [base] (every processor computes the same one),
    interprets the processor's own stream, and ends with one implicit
    global barrier so the final epoch is race-checked. The body raises
    if run with a processor count other than [nprocs]. *)

val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit
(** Compact one-program-per-line rendering for test failure output. *)
