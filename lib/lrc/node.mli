(** Per-processor DSM state and protocol engine — the CVM analogue.

    Application coroutines call the access and synchronization operations;
    protocol messages from other processors are serviced by
    [handle_message], which the network invokes at delivery time (CVM's
    SIGIO handler). Handlers never block; replies the application waits
    for are parked and the application coroutine is woken.

    Processor 0 additionally plays the three central roles of the paper's
    prototype: lock manager, page manager (single-writer ownership
    directory) and barrier master, where the race-detection algorithm
    runs. Most programs should use the friendlier {!Dsm} wrappers. *)

type t

(** Shared state of a cluster, built once by {!Cluster} and handed to
    every node. *)
type runtime = {
  engine : Sim.Engine.t;
  cost : Sim.Cost.t;
  stats : Sim.Stats.t;
  cfg : Coherence.Config.t;
  geometry : Mem.Geometry.t;
  mutable net : Message.t Sim.Net.t option;  (** wired after node creation *)
  races : Proto.Race.t list ref;  (** master appends each epoch's findings *)
  trace : (int * Racedetect.Oracle.event) list ref;  (** reversed event log *)
  timed : (int * int * Racedetect.Oracle.event) list ref;
      (** same events with simulated timestamps, for timeline rendering *)
  recorder : Coherence.Sync_trace.recorder option;
  symtab : Mem.Symtab.t;  (** names for shared allocations (section 6.1) *)
}

val create : runtime -> id:int -> nprocs:int -> t

val handle_message : t -> Message.t -> unit
(** Network delivery entry point; runs in handler context and never
    blocks. *)

(** {1 Shared-memory accesses} *)

val read_word : t -> ?site:string -> int -> int64
(** Read the shared word at a byte address. Faults, fetches and
    instrumentation happen as the configuration dictates. [site] is the
    symbolic "program counter" recorded by watch mode (section 6.1). *)

val write_word : t -> ?site:string -> int -> int64 -> unit

val read_word_int : t -> ?site:string -> int -> int
(** Same access, with the value as [Int64.to_int] of the word — the fast
    path for integer programs: no boxed int64 is materialized. *)

val write_word_int : t -> ?site:string -> int -> int -> unit

val read_word_float : t -> ?site:string -> int -> float
(** Same access, with the word interpreted as a float bit pattern. *)

val write_word_float : t -> ?site:string -> int -> float -> unit

val compute : t -> float -> unit
(** Model [ops] abstract instructions of private computation. *)

val touch_private : t -> int -> unit
(** Model [n] private accesses that survived static elimination: at
    runtime they pay the analysis-routine cost and count as private. *)

val idle : t -> float -> unit
(** Advance simulated time immediately (unlike {!compute}, which accrues
    cost lazily). Used to stage interleavings. *)

(** {1 Synchronization} *)

val lock : t -> int -> unit
val unlock : t -> int -> unit
val barrier : t -> unit

(** {1 Allocation} *)

val malloc : t -> ?name:string -> ?align:int -> int -> int
(** Bump allocation over the shared segment; SPMD programs calling at the
    same program points get identical addresses on every node. [name]
    registers the range in the cluster symbol table (once, by processor
    0), so race reports print the variable instead of a raw address. *)

val set_alloc_next : t -> int -> unit
(** Used by {!Cluster.alloc} to keep per-node allocators in step. *)

(** {1 Introspection} *)

val id : t -> int
val nprocs : t -> int
val epoch : t -> int
val current_interval : t -> Proto.Interval.t
val geometry : t -> Mem.Geometry.t
val cost : t -> Sim.Cost.t
val stats : t -> Sim.Stats.t
val config : t -> Coherence.Config.t
val is_manager : t -> bool

val coherent_page_raw : t -> int -> Bytes.t option
(** This node's copy of a page, if coherent: valid and with no pending
    write notices. All coherent copies of a page agree once the run is
    over, so {!Cluster.memory_checksum} can hash any one of them. *)

val service_diagnostics : t -> string list
(** Queue depths of the central services hosted at this node (parked lock
    requests, queued page-ownership requests, barrier arrivals) — only
    nonempty at the manager. Fed to {!Sim.Engine.add_diagnostic} so a
    deadlock diagnosis shows where requests are stuck. *)

val set_access_observer :
  t -> (site:string -> addr:int -> Proto.Race.access_kind -> unit) -> unit
(** Hook every instrumented shared access (watch mode, section 6.1). *)

val retained_site :
  t -> interval:Proto.Interval.id -> page:int -> word:int -> kind:Proto.Race.access_kind ->
  string option
(** With [retain_sites], the site recorded for an access of this interval
    (the single-run identification alternative of section 6.1). *)

val view : t -> Coherence.Node.t
(** The backend-independent processor handle over this node — what
    {!Cluster.run} hands to application bodies. *)
