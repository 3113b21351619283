(** Run driver: builds the configured machine ({!Backends.create}), runs
    an application on it and collects everything the experiments need. *)

type outcome = {
  app_name : string;
  nprocs : int;
  detect : bool;
  sim_time_ns : int;
  stats : Sim.Stats.t;
  races : Proto.Race.t list;
  trace : Racedetect.Oracle.trace;  (** empty unless [record_trace] *)
  sync_trace : (int * int) list option;
      (** always [None]; perfbench/ops.ml builds an outcome with it, so
          it goes with the next change to the benchmark *)
  watch_hits : Instrument.Watch.hit list;  (** present when watching *)
  symtab : Mem.Symtab.t;  (** variable names for symbolic race reports *)
  mem_checksum : int;
      (** the backend's [memory_checksum] of the final shared-memory image;
          the fault sweep compares it across drop rates *)
}

val run :
  ?cfg:Coherence.Config.t -> ?watch_addrs:int list -> app:Apps.App.t -> nprocs:int -> unit ->
  outcome
(** Run one application once, under {!Sim.Cost.default}. [watch_addrs]
    installs the section 6.1 watch list on every node. With detection
    enabled, the per-access check charge is scaled by the static pass's
    redundant-check batching ({!Instrument.Static_analysis.analyze}). The
    application's self-check raises on a wrong answer, so an [outcome]
    implies a correct run. *)

type slowdown = {
  base : outcome;  (** uninstrumented binary on unaltered CVM *)
  instrumented : outcome;  (** instrumentation + read notices + detection *)
  factor : float;
}

val measure_slowdown : ?cfg:Coherence.Config.t -> app:Apps.App.t -> nprocs:int -> unit -> slowdown
(** The paper's slowdown metric: the same run with and without detection. *)

val overhead_percentages : slowdown -> (Sim.Stats.overhead_category * float) list
(** Figure 3's breakdown, as percentages of the base runtime. Per-processor
    parallel charges are averaged; master-side interval/bitmap work is
    serialized and counted in full (section 6.2). *)

val racy_addrs : outcome -> int list
(** Sorted distinct racy addresses. *)

val oracle_addrs : outcome -> int list
(** Sorted distinct racy addresses per the offline happens-before
    oracle, replayed over [outcome.trace] — empty unless the run
    recorded a trace ([Config.record_trace]). The differential check is
    [racy_addrs o = oracle_addrs o]. *)
