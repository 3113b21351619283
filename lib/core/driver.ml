(* Run driver: the glue that builds a simulated machine, runs one of the
   applications on it, and collects everything the experiments need —
   simulated runtime, statistics, race reports, traces and watch hits. *)

type outcome = {
  app_name : string;
  nprocs : int;
  detect : bool;
  sim_time_ns : int;
  stats : Sim.Stats.t;
  races : Proto.Race.t list;
  trace : Racedetect.Oracle.trace;
  sync_trace : (int * int) list option;  (* always None *)
  watch_hits : Instrument.Watch.hit list;
  symtab : Mem.Symtab.t;  (* variable names for symbolic race reports *)
  mem_checksum : int;  (* digest of the final shared-memory image *)
}

let run ?(cfg = Coherence.Config.default) ?(watch_addrs = []) ~(app : Apps.App.t) ~nprocs () =
  (* One static pass serves both uses below, and runs only if one needs
     it. [Some []] means "derive the elision set": the statically
     race-free sites of the app's binary per the MHP analysis.
     Recomputed here (deterministically) rather than stored, so record
     and replay agree. *)
  let analysis = lazy (Instrument.Static_analysis.analyze (app.Apps.App.binary ())) in
  let cfg =
    match cfg.Coherence.Config.elide_sites with
    | Some [] ->
        let report = Instrument.Mhp.of_analysis (Lazy.force analysis) in
        {
          cfg with
          Coherence.Config.elide_sites = Some report.Instrument.Mhp.race_free_sites;
        }
    | _ -> cfg
  in
  (* With detection on, the static pass's redundant-check batching lowers
     the average per-access discrimination charge (section 5.1): scale
     the access-check cost by the fraction the analysis could not batch. *)
  let cost =
    if cfg.Coherence.Config.detect then
      {
        Sim.Cost.default with
        Sim.Cost.access_check_ns =
          Sim.Cost.default.Sim.Cost.access_check_ns
          *. (Lazy.force analysis).Instrument.Static_analysis.check_cost_scale;
      }
    else Sim.Cost.default
  in
  let pages = Apps.App.pages_needed app ~page_size:cost.Sim.Cost.page_size in
  let backend = Backends.create ~cost ~cfg ~nprocs ~pages () in
  let watch =
    match watch_addrs with
    | [] -> None
    | addrs ->
        let watch = Instrument.Watch.create ~addrs in
        for id = 0 to nprocs - 1 do
          backend.Coherence.Backend.set_access_observer id
            (Instrument.Watch.observe watch)
        done;
        Some watch
  in
  backend.Coherence.Backend.run app.Apps.App.body;
  let races = backend.Coherence.Backend.races () in
  let mem_checksum = backend.Coherence.Backend.memory_checksum () in
  let sim_time = backend.Coherence.Backend.sim_time () in
  (* terminal trace event: ties the log to the run's observable outcome,
     so a log alone reconstructs the race count and memory checksum *)
  (match cfg.Coherence.Config.tracer with
  | Some sink ->
      Trace.Sink.emit sink ~time:sim_time
        (Trace.Event.Run_end
           { checksum = mem_checksum; sim_time_ns = sim_time; races = List.length races })
  | None -> ());
  {
    app_name = app.Apps.App.name;
    nprocs;
    detect = cfg.Coherence.Config.detect;
    sim_time_ns = sim_time;
    stats = backend.Coherence.Backend.stats;
    races;
    trace = backend.Coherence.Backend.trace ();
    sync_trace = backend.Coherence.Backend.sync_trace ();
    watch_hits = (match watch with Some w -> Instrument.Watch.hits w | None -> []);
    symtab = backend.Coherence.Backend.symtab;
    mem_checksum;
  }

type slowdown = {
  base : outcome;  (* uninstrumented binary on unaltered CVM *)
  instrumented : outcome;  (* instrumentation + read notices + detection *)
  factor : float;
}

let measure_slowdown ?(cfg = Coherence.Config.default) ~app ~nprocs () =
  let base = run ~cfg:{ cfg with Coherence.Config.detect = false } ~app ~nprocs () in
  let instrumented = run ~cfg:{ cfg with Coherence.Config.detect = true } ~app ~nprocs () in
  {
    base;
    instrumented;
    factor = float_of_int instrumented.sim_time_ns /. float_of_int base.sim_time_ns;
  }

(* Figure 3's per-category overhead, as a percentage of the base runtime.
   Instrumentation and CVM-mods charges accrue on every processor in
   parallel, so their observable share is the per-processor average; the
   interval and bitmap work is serialized at the barrier master, so its
   charge is observable in full (the effect section 6.2 discusses). *)
let overhead_percentages slowdown =
  let base = float_of_int slowdown.base.sim_time_ns in
  let parallel = float_of_int slowdown.instrumented.nprocs in
  List.map
    (fun category ->
      let divisor =
        match category with
        | Sim.Stats.Cvm_mods | Sim.Stats.Proc_call | Sim.Stats.Access_check -> parallel
        | Sim.Stats.Intervals | Sim.Stats.Bitmaps -> 1.0
      in
      ( category,
        100.0 *. Sim.Stats.charged slowdown.instrumented.stats category /. divisor /. base ))
    Sim.Stats.all_categories

let racy_addrs outcome =
  outcome.races |> List.map (fun (r : Proto.Race.t) -> r.addr) |> List.sort_uniq compare

let oracle_addrs outcome =
  Racedetect.Oracle.racy_addrs ~nprocs:outcome.nprocs outcome.trace
