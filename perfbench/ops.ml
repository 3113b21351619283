(* The benchmark's operations, each in two forms: the plain call a user
   makes ([run]), and the same work decomposed into the public calls it
   is made of, with a span around each call and a counting sink on the
   [Config.tracer] hook ([traced]). Nothing here reaches inside the
   library: every layer is observed through its public functions and the
   public [Sim.Stats] record. *)

(* ------------------------------------------------------------------ *)
(* Per-layer accumulators of the traced pass *)

type counts = {
  mutable proc_blocks : int;
  mutable msg_sends : int;
  mutable msg_bytes : int;
  mutable retransmits : int;
  mutable acks : int;
  mutable bus : int;
}

let counting_sink c =
  {
    Trace.Sink.emit =
      (fun ~time:_ ev ->
        match ev with
        | Trace.Event.Proc_block _ -> c.proc_blocks <- c.proc_blocks + 1
        | Trace.Event.Msg_send { bytes; _ } ->
            c.msg_sends <- c.msg_sends + 1;
            c.msg_bytes <- c.msg_bytes + bytes
        | Trace.Event.Retransmit _ -> c.retransmits <- c.retransmits + 1
        | Trace.Event.Ack _ -> c.acks <- c.acks + 1
        | Trace.Event.Bus _ -> c.bus <- c.bus + 1
        | _ -> ());
  }

type layers = {
  spans : Span.t;
  counts : counts;
  stats : Sim.Stats.t;  (* every traced simulation's statistics, summed *)
  mutable detect_on_s : float;  (* backend.run, detection on, no tracer *)
  mutable detect_off_s : float;  (* the same run with detection off *)
  mutable unrecorded_s : float;  (* record-replay runs without a recorder *)
  mutable oracle_events : int;
  mutable trace_events : int;
  mutable log_bytes : int;
}

let layers () =
  {
    spans = Span.create ();
    counts =
      { proc_blocks = 0; msg_sends = 0; msg_bytes = 0; retransmits = 0; acks = 0; bus = 0 };
    stats = Sim.Stats.create ();
    detect_on_s = 0.0;
    detect_off_s = 0.0;
    unrecorded_s = 0.0;
    oracle_events = 0;
    trace_events = 0;
    log_bytes = 0;
  }

(* ------------------------------------------------------------------ *)
(* Core.Driver.run, decomposed into the same public calls in the same
   order. The traced pass checks that its outcome equals the plain
   call's, so a drift between this copy and the driver fails the run. *)

let driver_run sp ?(cost = Sim.Cost.default) ~(cfg : Coherence.Config.t) ~(app : Apps.App.t)
    ~nprocs () =
  let span name f = Span.with_ sp name f in
  let cfg =
    match cfg.Coherence.Config.elide_sites with
    | Some [] ->
        let binary = span "instrument.binary" app.Apps.App.binary in
        let sites = span "instrument.mhp" (fun () -> Instrument.Mhp.race_free_sites binary) in
        { cfg with Coherence.Config.elide_sites = Some sites }
    | _ -> cfg
  in
  let cost =
    if cfg.Coherence.Config.detect then begin
      let binary = span "instrument.binary" app.Apps.App.binary in
      let analysis = span "instrument.analyze" (fun () -> Instrument.Static_analysis.analyze binary) in
      {
        cost with
        Sim.Cost.access_check_ns =
          cost.Sim.Cost.access_check_ns *. analysis.Instrument.Static_analysis.check_cost_scale;
      }
    end
    else cost
  in
  let pages = Apps.App.pages_needed app ~page_size:cost.Sim.Cost.page_size in
  let backend = span "backends.create" (fun () -> Backends.create ~cost ~cfg ~nprocs ~pages ()) in
  span "sim.run" (fun () -> backend.Coherence.Backend.run app.Apps.App.body);
  span "driver.result" (fun () ->
      let races = backend.Coherence.Backend.races () in
      let mem_checksum = backend.Coherence.Backend.memory_checksum () in
      let sim_time = backend.Coherence.Backend.sim_time () in
      (match cfg.Coherence.Config.tracer with
      | Some sink ->
          Trace.Sink.emit sink ~time:sim_time
            (Trace.Event.Run_end
               { checksum = mem_checksum; sim_time_ns = sim_time; races = List.length races })
      | None -> ());
      {
        Core.Driver.app_name = app.Apps.App.name;
        nprocs;
        detect = cfg.Coherence.Config.detect;
        sim_time_ns = sim_time;
        stats = backend.Coherence.Backend.stats;
        races;
        trace = backend.Coherence.Backend.trace ();
        sync_trace = backend.Coherence.Backend.sync_trace ();
        watch_hits = [];
        symtab = backend.Coherence.Backend.symtab;
        mem_checksum;
      })

(* backend.run's host seconds for one decomposed run, spans discarded *)
let sim_run_s ~cfg ~app ~nprocs =
  let sp = Span.create () in
  ignore (driver_run sp ~cfg ~app ~nprocs ());
  (Span.find (Span.reduce sp) "sim.run").Span.total_s

(* ------------------------------------------------------------------ *)
(* Operations *)

type op = {
  name : string;
  pinned : bool;  (* outcome compared against the pin file *)
  run : unit -> unit -> Pins.outcome * int;
      (* the plain call; the returned thunk, called outside the timed
         region, observes its outcome and simulated accesses (and raises
         [Failure] when the operation's own check failed) *)
  traced : layers -> unit -> Pins.outcome;  (* the decomposed call *)
  aux : layers -> unit;  (* calibration runs for detect_s and record_s *)
}

let race_digest races =
  String.concat ";" (List.map (Format.asprintf "%a" Proto.Race.pp) races)
  |> Digest.string |> Digest.to_hex

let outcome_pins (o : Core.Driver.outcome) =
  let s = o.Core.Driver.stats in
  let i = string_of_int in
  [
    ("races", i (List.length o.Core.Driver.races));
    ("race_digest", race_digest o.Core.Driver.races);
    ("checksum", i o.Core.Driver.mem_checksum);
    ("sim_time_ns", i o.Core.Driver.sim_time_ns);
    ("messages", i s.Sim.Stats.messages);
    ("bytes", i s.Sim.Stats.bytes);
    ("retransmits", i s.Sim.Stats.retransmits);
    ("bus_transactions", i s.Sim.Stats.bus_transactions);
    ("bus_words", i s.Sim.Stats.bus_words);
  ]

(* the registry name, as the CLI spells it *)
let key (app : Apps.App.t) = String.lowercase_ascii app.Apps.App.name

let accesses (o : Core.Driver.outcome) = Sim.Stats.instrumented_accesses o.Core.Driver.stats

(* One paper application run with detection on: the dsm-paper and
   bus-paper operations. *)
let paper ~backend ~nprocs (app : Apps.App.t) =
  let cfg = { Coherence.Config.default with Coherence.Config.backend } in
  {
    name = Printf.sprintf "%s/%s/p%d" (key app) backend nprocs;
    pinned = true;
    run =
      (fun () ->
        let o = Core.Driver.run ~cfg ~app ~nprocs () in
        fun () -> (outcome_pins o, accesses o));
    traced =
      (fun l ->
        let cfg = { cfg with Coherence.Config.tracer = Some (counting_sink l.counts) } in
        let o = driver_run l.spans ~cfg ~app ~nprocs () in
        Sim.Stats.add ~into:l.stats o.Core.Driver.stats;
        fun () -> outcome_pins o);
    aux =
      (fun l ->
        l.detect_on_s <- l.detect_on_s +. sim_run_s ~cfg ~app ~nprocs;
        l.detect_off_s <-
          l.detect_off_s
          +. sim_run_s ~cfg:{ cfg with Coherence.Config.detect = false } ~app ~nprocs);
  }

(* Lossy wire, reliable transport: the record-replay configuration. *)
let lossy =
  {
    Coherence.Config.default with
    Coherence.Config.fault = { Sim.Fault.none with Sim.Fault.drop = 0.2 };
    transport = Some Sim.Transport.default_config;
  }

let record_replay_pins outcome decoded replay =
  let log_checksum =
    match Trace.Replay.checksum_of_log decoded with Some c -> string_of_int c | None -> "none"
  in
  outcome_pins outcome
  @ [
      ("log_checksum", log_checksum);
      ("replay", if Core.Trace_run.clean replay then "clean" else "divergent");
    ]

(* Core.Trace_run.replay, decomposed. *)
let replay_decomposed l log =
  let sp = l.spans in
  let decoded = Span.with_ sp "trace.decode" (fun () -> Trace.Codec.decode log) in
  let m = decoded.Trace.Codec.meta in
  let app =
    Apps.Registry.make ~scale:(Core.Trace_run.scale_of_name m.Trace.Codec.m_scale) m.Trace.Codec.m_app
  in
  let verifier = Trace.Replay.create decoded in
  let tracer = Trace.Sink.tee (Trace.Replay.sink verifier) (counting_sink l.counts) in
  let cfg = { (Core.Trace_run.config_of_meta m) with Coherence.Config.tracer = Some tracer } in
  let outcome = driver_run sp ~cfg ~app ~nprocs:m.Trace.Codec.m_nprocs () in
  Sim.Stats.add ~into:l.stats outcome.Core.Driver.stats;
  Span.with_ sp "trace.verify" (fun () ->
      let divergence = Trace.Replay.finish verifier in
      let log_races = Trace.Replay.races_of_log decoded in
      let races = outcome.Core.Driver.races in
      {
        Core.Trace_run.rr_meta = m;
        rr_outcome = outcome;
        rr_divergence = divergence;
        rr_races_match =
          List.length log_races = List.length races
          && List.for_all2 Proto.Race.equal log_races (Proto.Race.dedup races);
        rr_checksum_match =
          Trace.Replay.checksum_of_log decoded = Some outcome.Core.Driver.mem_checksum;
      })

(* Record a lossy run, decode the log, replay it: the record-replay
   operation. *)
let record_replay ~nprocs (app : Apps.App.t) =
  let app_name = key app and scale = Apps.Registry.Paper in
  {
    name = Printf.sprintf "%s/lrc/p%d/drop20" app_name nprocs;
    pinned = true;
    run =
      (fun () ->
        let outcome, log = Core.Trace_run.record ~cfg:lossy ~app_name ~scale ~nprocs () in
        let decoded = Trace.Codec.decode log in
        let replay = Core.Trace_run.replay log in
        fun () -> (record_replay_pins outcome decoded replay, 2 * accesses outcome));
    traced =
      (fun l ->
        let sp = l.spans in
        let outcome, log =
          Span.with_ sp "trace.record" (fun () ->
              (* Core.Trace_run.record, decomposed *)
              let app = Apps.Registry.make ~scale app_name in
              let meta = Core.Trace_run.meta_of ~app_name ~scale ~nprocs lossy in
              let recorder = Trace.Sink.recorder meta in
              let tracer = Trace.Sink.tee (Trace.Sink.sink recorder) (counting_sink l.counts) in
              let cfg = { lossy with Coherence.Config.tracer = Some tracer } in
              let outcome = driver_run sp ~cfg ~app ~nprocs () in
              l.trace_events <- l.trace_events + Trace.Sink.recorded_count recorder;
              (outcome, Span.with_ sp "trace.contents" (fun () -> Trace.Sink.contents recorder)))
        in
        Sim.Stats.add ~into:l.stats outcome.Core.Driver.stats;
        l.log_bytes <- l.log_bytes + String.length log;
        let decoded = Span.with_ sp "trace.decode" (fun () -> Trace.Codec.decode log) in
        let replay = Span.with_ sp "trace.replay" (fun () -> replay_decomposed l log) in
        fun () -> record_replay_pins outcome decoded replay);
    aux =
      (fun l ->
        let t0 = Span.now_ns () in
        ignore (Core.Driver.run ~cfg:lossy ~app ~nprocs ());
        l.unrecorded_s <- l.unrecorded_s +. (float_of_int (Span.now_ns () - t0) /. 1e9));
  }

(* Workload.Harness.driver_runner, decomposed. *)
let traced_runner l ~backend ~elide (program : Workload.Program.t) =
  let base = ref 0 in
  let app = Workload.Program.to_app ~base program in
  let cfg =
    {
      Coherence.Config.default with
      Coherence.Config.backend;
      detect = true;
      record_trace = true;
      elide_sites = (if elide then Some [] else None);
      tracer = Some (counting_sink l.counts);
    }
  in
  let outcome = driver_run l.spans ~cfg ~app ~nprocs:program.Workload.Program.nprocs () in
  Sim.Stats.add ~into:l.stats outcome.Core.Driver.stats;
  l.oracle_events <- l.oracle_events + List.length outcome.Core.Driver.trace;
  let to_words addrs = List.sort_uniq compare (List.map (fun a -> (a - !base) / 8) addrs) in
  let detected = to_words (Core.Driver.racy_addrs outcome) in
  let oracle = Span.with_ l.spans "oracle" (fun () -> Core.Driver.oracle_addrs outcome) in
  { Workload.Harness.detected; oracle = to_words oracle; checksum = outcome.Core.Driver.mem_checksum }

let fuzz_pins results =
  let one (backend, elide, (r : Workload.Harness.result)) =
    let set ws = String.concat "," (List.map string_of_int ws) in
    Printf.sprintf "%s/%b/%s/%s/%d" backend elide (set r.Workload.Harness.detected)
      (set r.Workload.Harness.oracle) r.Workload.Harness.checksum
  in
  [ ("results", Digest.to_hex (Digest.string (String.concat ";" (List.rev_map one results)))) ]

(* One generated program's full differential check (every backend x
   elide, the offline oracle, the ground truth): the fuzz operation. *)
let fuzz (g : Workload.Generator.generated) =
  let program = g.Workload.Generator.program in
  let shared = List.length (Workload.Program.accesses program) in
  (* each check records the per-configuration results it saw, so the
     traced pass can require the decomposed runner to see the same *)
  let check runner =
    let seen = ref [] in
    let runner ~backend ~elide p =
      let r = runner ~backend ~elide p in
      seen := (backend, elide, r) :: !seen;
      r
    in
    let mismatch =
      Workload.Harness.check ~runner ~ground_truth:g.Workload.Generator.racy program
    in
    fun () ->
      (match mismatch with
      | Some m ->
          failwith
            (Printf.sprintf "%s: %s" (Workload.Harness.kind_name m.Workload.Harness.kind)
               m.Workload.Harness.detail)
      | None -> ());
      (fuzz_pins !seen, shared * List.length !seen)
  in
  {
    name = program.Workload.Program.name;
    pinned = false;
    run = (fun () -> check Workload.Harness.driver_runner);
    traced =
      (fun l ->
        let observe = check (traced_runner l) in
        fun () -> fst (observe ()));
    aux = (fun _ -> ());
  }
