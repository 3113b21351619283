(** Per-processor DSM state and protocol engine — the CVM analogue.

    Application coroutines reach a node through its {!machine}; protocol
    messages from other processors are serviced by [handle_message],
    which the network invokes at delivery time (CVM's SIGIO handler). Handlers never block; replies the application
    waits for are parked and the application coroutine is woken.

    Processor 0 additionally plays the three central roles of the paper's
    prototype: lock manager, page manager (single-writer ownership
    directory) and barrier master, where the race-detection algorithm
    runs. Intervals, access bitmaps, the oracle trace and the detection
    pass live in the shared front-end ({!Coherence.Front}); a node keeps
    pages, faults, diffs and messages. *)

type t

val create : Coherence.Front.t -> Message.t Sim.Net.t -> id:int -> t
(** Processor [id] of a cluster whose front-end and network are given;
    the network's handler for [id] must be wired to {!handle_message}. *)

val handle_message : t -> Message.t -> unit
(** Network delivery entry point; runs in handler context and never
    blocks. *)

val machine : t -> Coherence.Front.machine
(** This node's part of the processor handle the cluster's [run] hands
    to application bodies: [readable] and [writable] fault and fetch as
    the protocol dictates, then return the local copy of the page; the
    lock, unlock and barrier protocols run after the front-end's
    bookkeeping. *)

val coherent_page : t -> int -> Mem.Page.t option
(** This node's copy of a page, if coherent: valid and with no pending
    write notices. All coherent copies of a page agree once the run is
    over, so the cluster's [memory_checksum] can hash any one of them. *)

val service_diagnostics : t -> string list
(** Queue depths of the central services hosted at this node (queued
    page-ownership requests, barrier arrivals) — only nonempty at the
    manager. Fed to {!Sim.Engine.add_diagnostic} so a
    deadlock diagnosis shows where requests are stuck. *)
