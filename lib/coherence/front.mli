(** The race-detection front-end both coherence backends share.

    Intervals, vector clocks, per-interval access bitmaps, the oracle
    trace and the barrier-time detection pass do not depend on how pages
    or cache lines move, so they live here once. The LRC DSM cluster
    ({!Lrc.Node}, {!Lrc.Cluster}) and the snooping-bus machine
    ({!Cc.Machine}) each create one [t] and call into it at every shared
    access and synchronization point; they keep only what differs: pages,
    faults, diffs and messages on LRC, caches and the bus on the machine.

    [create] takes the configuration {!Config.check} returned, so the
    DSM-only mechanisms are already off on the bus: [stores_from_diffs]
    holds only under lrc multi-writer, [retain_sites] only on lrc.

    A processor's {!handle} joins its front-end state to its {!machine},
    the five operations through which a backend differs; {!Lrc.Dsm} runs
    every access and synchronization through it. *)

type observer = site:string -> addr:int -> Proto.Race.access_kind -> unit
(** Watch mode (paper section 6.1): called at every shared access of one
    processor, elided or not. *)

(** One processor's front-end state. Only this module assigns its
    fields. A backend reads them, adds its own per-access time to [debt]
    with {!charge_local}, and (LRC under [stores_from_diffs]) puts the
    write bitmaps it derives from diffs into [bitmaps]. *)
type proc = private {
  id : int;
  debt : float array;
      (** local time accrued but not yet advanced, in ns; a 1-element
          float array so per-access additions stay unboxed *)
  vc : Proto.Vclock.t;
  mutable cur : Proto.Interval.t;  (** the open interval *)
  mutable epoch : int;  (** barrier epoch of the open interval *)
  mutable closed : Proto.Interval.t list;
      (** own closed intervals not yet handed to a barrier, newest first *)
  read_bits : (int, Mem.Bitmap.t) Hashtbl.t;
      (** the open interval's bitmaps by page; iteration order fixes
          read-notice order *)
  write_bits : (int, Mem.Bitmap.t) Hashtbl.t;
  read_cache : Mem.Bitmap.t option array;  (** O(1) handles onto [read_bits] *)
  write_cache : Mem.Bitmap.t option array;
  bitmaps : (Proto.Interval.id * int, Racedetect.Detector.bitmap_pair) Hashtbl.t;
      (** frozen bitmaps of this epoch's closed intervals, by (interval, page) *)
  cur_sites : (int * int * Proto.Race.access_kind, string) Hashtbl.t;
  site_store : (Proto.Interval.id * int * int * Proto.Race.access_kind, string) Hashtbl.t;
  mutable alloc_next : int;  (** bump-allocator cursor *)
  mutable observer : observer option;
}

(** One run's front-end, shared by its processors; only this module
    assigns its fields. *)
type t = private {
  name : string;  (** prefix of the diagnostics raised here ("Node", "Machine") *)
  engine : Sim.Engine.t;
  cost : Sim.Cost.t;
  stats : Sim.Stats.t;
  cfg : Config.t;
  geometry : Mem.Geometry.t;
  symtab : Mem.Symtab.t;
  nprocs : int;
  procs : proc array;
  elide : (string, unit) Hashtbl.t;  (** statically race-free sites *)
  mutable timed : (int * int * Racedetect.Oracle.event) list;
      (** oracle trace, (ns, proc, event), newest first *)
  mutable races : Proto.Race.t list;
  mutable race_seen : bool;  (** for [first_race_only] *)
  g_base : int;
      (** the geometry as a limit, a shift and a mask
          ({!Mem.Geometry.create} admits only a power-of-two page size and
          a page-aligned base) *)
  g_limit : int;
  g_page_shift : int;
  g_page_mask : int;
}

(** How one processor's machine moves data and synchronizes. [readable]
    and [writable] make [page], which holds the checked address [addr],
    coherent for the access (an LRC fault, a cache fill) and return its
    bytes; they charge their own time. [lock], [unlock] and [barrier] are
    the machine's part of each synchronization, run after the
    front-end's (time debt settled, acquire counted, barrier entry
    traced). *)
type machine = {
  readable : addr:int -> page:int -> Mem.Page.t;
  writable : addr:int -> page:int -> Mem.Page.t;
  lock : int -> unit;
  unlock : int -> unit;
  barrier : unit -> unit;
}

(** The processor handle applications receive: one processor's
    front-end state and its machine. *)
type handle = { front : t; proc : proc; machine : machine }

val create :
  name:string ->
  cost:Sim.Cost.t ->
  cfg:Config.t ->
  nprocs:int ->
  pages:int ->
  t
(** The engine, statistics, geometry and symbol table of one run, with
    the tracer installed on the engine and every processor's first
    interval open. [cfg] is the effective configuration {!Config.check}
    returned. Raises [Invalid_argument] when the cost model's page size
    is not a power of two of at least one {!Mem.Page.word_size}-byte
    word. *)

(** {1 Time} *)

val charge_local : proc -> float -> unit
(** Add [ns] of the processor's own time to its debt, attributed to no
    overhead category: a backend's per-access time (a cache hit, a diff,
    a page copy). Inlined into the caller, so [ns] is not boxed. *)

val flush_time : t -> proc -> unit
(** Advance simulated time by the whole nanoseconds of accrued debt. *)

val compute : proc -> float -> unit
(** Accrue [ops] instructions of private work. *)

val touch_private : t -> proc -> int -> unit
(** [n] private accesses that survived static elimination: they pay the
    analysis-routine cost but never set a bitmap bit. *)

val idle : t -> proc -> float -> unit
(** Advance simulated time now (to stage interleavings). *)

(** {1 Shared accesses} *)

val read_note : t -> proc -> site:string -> int -> int
(** Check a shared read of [addr] and account for it: instruction charge,
    counters, the bitmap bit unless the site is elided, the watch
    observer and the oracle trace. Returns the page. Raises
    [Invalid_argument] for an address outside the shared segment or an
    unaligned one, before any accounting. Allocates nothing unless a
    trace is recorded, sites are retained, a watch observer is set, or
    the access is the interval's first to the page and creates its
    bitmap. *)

val write_note : t -> proc -> site:string -> int -> int
(** The same for a write; with [stores_from_diffs] no write bit is set. *)

val page_of : t -> int -> int
(** Page index of a checked address. With {!word_of}, the one place an
    address splits into page and word; {!Mem.Geometry.addr_of} is the
    inverse. *)

val word_of : t -> int -> int
(** Word index within its page of a checked address. *)

val malloc : t -> proc -> ?name:string -> ?align:int -> int -> int
(** Bump allocation over the shared segment; SPMD programs calling at the
    same program points get identical addresses on every processor.
    Processor 0 registers [name] in the symbol table. *)

val alloc : t -> who:string -> ?name:string -> ?align:int -> int -> int
(** Pre-run allocation through processor 0's cursor, copied to every
    processor, with [who] prefixing its diagnostics. *)

val set_observer : t -> int -> observer -> unit
(** Watch one processor's shared accesses. *)

(** {1 Intervals and synchronization points} *)

val open_interval : t -> proc -> unit

val close_interval : t -> proc -> Proto.Interval.t
(** Close the open interval and, with detection on, freeze its bitmaps:
    every touched page gets a read notice if read and a write notice if
    written. *)

val publish_interval : t -> proc -> Proto.Interval.t -> unit
(** Hand a closed interval to the next barrier and the trace. A backend
    that summarizes writes at close does so between the two calls. *)

val acquired : t -> proc -> lock:int -> unit
val released : t -> proc -> lock:int -> unit

val enter_barrier : t -> proc -> unit

val arrive : t -> proc -> Proto.Interval.t list
(** Log the barrier arrival and take the processor's closed intervals,
    newest first. *)

val leave_barrier : t -> proc -> unit
(** Enter the next epoch: open its first interval and drop the bitmaps
    the barrier's detection pass read. *)

(** {1 Detection at a barrier} *)

val bitmaps : t -> proc -> Proto.Interval.id -> page:int -> Racedetect.Detector.bitmap_pair
(** The processor's frozen bitmaps for one of its intervals; empty ones
    if the interval did not touch the page. *)

val plan :
  t -> epoch:int -> Proto.Interval.t list -> Racedetect.Checklist.entry list * float
(** Steps 2 and 3 over the epoch's intervals: the check list, and the
    simulated ns it costs, already charged to [Intervals]. *)

val resolve :
  t ->
  epoch:int ->
  store:(Proto.Interval.id ->
        (Proto.Interval.id * int, Racedetect.Detector.bitmap_pair) Hashtbl.t) ->
  Racedetect.Checklist.entry list ->
  Proto.Race.t list * float
(** Step 5: compare the bitmaps [store] holds for each entry; returns the
    races and the simulated ns, already charged to [Bitmaps]. *)

val report : t -> Proto.Race.t list -> unit
(** Close a barrier's detection: apply [first_race_only], keep the races,
    trace and count them. *)

(** {1 Trace and races} *)

val tracing : t -> bool
val emit_sink : t -> Trace.Event.t -> unit

val race_sites : t -> Proto.Race.t -> string option * string option
(** With [retain_sites]: the source sites of a race's two halves. *)
