(* cvm_race — command-line front end.

   Subcommands:
     run     run one application with online race detection and print the
             races, dynamic statistics, and (optionally) the slowdown
     hunt    the full section 6.1 flow: a recorded detection run, then a
             verified replay of its log with a watch list that maps each
             racy address to the source sites that touched it
     record  run with the deterministic trace recorder and save the
             binary event log
     replay  re-execute a recorded run and verify the event streams are
             identical (or pinpoint the first divergence); --log-only
             reconstructs the outcome from the log without re-executing
     trace   inspect a binary log: summary, per-tag statistics, or a
             Chrome trace-event JSON export
     analyze run only the static passes: classification and
             redundant-check batching, and the MHP lockset warnings
             (--mhp: the whole pair report) per application
     litmus  explore memory-model litmus tests on a backend and protocol
     fuzz    differential fuzzing: seeded random programs with
             by-construction ground truth, detector vs oracle across
             every backend, mismatches shrunk to trace-file repros

   `run --trace-file FILE` executes an external per-proc access/sync
   stream (docs/FUZZING.md has the grammar) instead of a named app.

   The paper's tables and figures, and every other batch experiment,
   come from bench/main.exe.
*)

open Cmdliner

(* Argument converters reject bad values at parse time, so each one
   ends in Cmdliner's one-line diagnostic, a usage line and exit 124. *)

let app_conv =
  let parse name =
    if List.mem (String.lowercase_ascii name) Apps.Registry.extended_names then Ok name
    else
      Error
        (`Msg
          (Printf.sprintf "unknown application %S (available: %s)" name
             (String.concat ", " Apps.Registry.extended_names)))
  in
  Arg.conv (parse, Format.pp_print_string)

let int_from lo =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= lo -> Ok n
    | _ -> Error (`Msg (Printf.sprintf "expected an integer of at least %d, got %S" lo s))
  in
  Arg.conv (parse, Format.pp_print_int)

let procs_conv =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= 1 && n <= Coherence.Config.max_procs -> Ok n
    | _ ->
        Error
          (`Msg
            (Printf.sprintf "expected a processor count from 1 to %d, got %S"
               Coherence.Config.max_procs s))
  in
  Arg.conv (parse, Format.pp_print_int)

(* the window and the endpoints are Coherence.Config.check's to judge *)
let partition_conv =
  let parse s =
    match List.map int_of_string_opt (String.split_on_char ',' s) with
    | [ Some a; Some b; Some t0; Some t1 ] -> Ok (a, b, t0, t1)
    | _ -> Error (`Msg (Printf.sprintf "expected four integers A,B,T0,T1, got %S" s))
  in
  let pp ppf (a, b, t0, t1) = Format.fprintf ppf "%d,%d,%d,%d" a b t0 t1 in
  Arg.conv (parse, pp)

let app_arg =
  let doc = "Application to run: fft, sor, tsp, water or lu." in
  Arg.(required & pos 0 (some app_conv) None & info [] ~docv:"APP" ~doc)

let app_or_trace_arg =
  let doc = "Application to run: fft, sor, tsp, water or lu (or use $(b,--trace-file))." in
  Arg.(value & pos 0 (some app_conv) None & info [] ~docv:"APP" ~doc)

let trace_file_arg =
  let doc =
    "Run a workload trace file (per-processor access/sync streams; grammar in \
     docs/FUZZING.md) instead of a named application. The processor count comes from the \
     file's $(b,procs) directive; $(b,--procs) is ignored."
  in
  Arg.(value & opt (some string) None & info [ "trace-file" ] ~docv:"FILE" ~doc)

let procs_arg =
  let doc =
    Printf.sprintf "Number of simulated processors (at most %d)." Coherence.Config.max_procs
  in
  Arg.(value & opt procs_conv 8 & info [ "p"; "procs" ] ~docv:"N" ~doc)

let scale_arg =
  let doc =
    "Input scale: 'paper' (evaluation-sized), 'small' (seconds), or 'large' (the benchmark \
     pipeline's enlarged SOR/FFT/Water tier)."
  in
  Arg.(value
      & opt
          (enum
             [
               ("paper", Apps.Registry.Paper);
               ("small", Apps.Registry.Small);
               ("large", Apps.Registry.Large);
             ])
          Apps.Registry.Paper
      & info [ "scale" ] ~docv:"SCALE" ~doc)

let backend_arg =
  let backend_conv =
    let parse name =
      if Backends.known name then Ok name
      else
        Error
          (`Msg
            (Printf.sprintf "unknown backend %S (available: %s)" name
               (String.concat ", " Backends.all)))
    in
    Arg.conv (parse, Format.pp_print_string)
  in
  let doc =
    "Coherence backend: lrc (message-passing DSM), mesi (snooping bus, \
     write-invalidate) or dragon (snooping bus, write-update). Both buses are \
     sequentially consistent. $(b,--list-backends) prints the registry."
  in
  Arg.(value & opt backend_conv "lrc" & info [ "backend" ] ~docv:"BACKEND" ~doc)

let protocol_arg =
  let doc =
    "Coherence protocol of the lrc backend: sw (single-writer), mw (multi-writer) or hb \
     (home-based); the bus backends ignore it."
  in
  Arg.(value
      & opt (enum
            [ ("sw", Coherence.Config.Single_writer);
              ("mw", Coherence.Config.Multi_writer);
              ("hb", Coherence.Config.Home_based);
            ]) Coherence.Config.Single_writer
      & info [ "protocol" ] ~docv:"PROTO" ~doc)

let no_detect_arg =
  let doc = "Disable instrumentation and race detection (baseline CVM)." in
  Arg.(value & flag & info [ "no-detect" ] ~doc)

let first_race_arg =
  let doc = "Report only the first racy barrier epoch (section 6.4)." in
  Arg.(value & flag & info [ "first-race-only" ] ~doc)

let diff_stores_arg =
  let doc =
    "With the multi-writer protocol, derive write bitmaps from diffs instead of store \
     instrumentation (section 6.5)."
  in
  Arg.(value & flag & info [ "stores-from-diffs" ] ~doc)

let gc_epochs_arg =
  let doc =
    "Interval garbage collection, multi-writer only: every $(docv) barrier epochs, \
     validate invalid pages and reclaim unreachable diffs. Bounds diff storage on long \
     runs; races and the final memory image are unaffected. Other protocols and the bus \
     backends keep no diffs, and there the flag does nothing."
  in
  Arg.(value & opt (some int) None & info [ "gc-epochs" ] ~docv:"K" ~doc)

let slowdown_arg =
  let doc = "Also run the uninstrumented baseline and report the slowdown." in
  Arg.(value & flag & info [ "slowdown" ] ~doc)

let oracle_arg =
  let doc = "Record the full access trace and cross-check against the offline oracle." in
  Arg.(value & flag & info [ "oracle" ] ~doc)

(* Lossy-network flags. Any nonzero fault probability implies the
   reliable transport; [--transport] runs it over a fault-free wire. *)

let drop_arg =
  let doc = "Per-frame wire drop probability (0.0-1.0). Implies the transport." in
  Arg.(value & opt float 0.0 & info [ "drop" ] ~docv:"P" ~doc)

let dup_arg =
  let doc = "Per-frame wire duplication probability (0.0-1.0). Implies the transport." in
  Arg.(value & opt float 0.0 & info [ "dup" ] ~docv:"P" ~doc)

let reorder_arg =
  let doc =
    "Per-frame reorder probability (0.0-1.0): a chosen frame is held back by a random \
     slice of the reorder window. Implies the transport."
  in
  Arg.(value & opt float 0.0 & info [ "reorder" ] ~docv:"P" ~doc)

let partition_arg =
  let doc =
    "One-shot link partition: frames between nodes $(i,A) and $(i,B) (both directions) \
     are dropped while simulated time is in [$(i,T0), $(i,T1)) nanoseconds, with 0 <= \
     $(i,T0) <= $(i,T1) and two distinct nodes below the processor count. Repeatable. \
     Implies the transport."
  in
  Arg.(value & opt_all partition_conv [] & info [ "partition" ] ~docv:"A,B,T0,T1" ~doc)

let net_seed_arg =
  let doc =
    "Seed for the network RNG streams, which drive the fault plan's per-link decisions. \
     It is the run's only seed; without a fault flag it changes nothing."
  in
  Arg.(value & opt int Coherence.Config.default.seed & info [ "net-seed" ] ~docv:"N" ~doc)

let max_retries_arg =
  let doc =
    Printf.sprintf
      "Transport retry cap per frame before a link is declared failed, from 0 to %d; a run \
       stuck on a failed link ends in a deadlock diagnosis. Only with the transport: \
       $(b,--transport) or a fault flag."
      Sim.Transport.max_retry_cap
  in
  Arg.(value & opt (some int) None & info [ "max-retries" ] ~docv:"N" ~doc)

let transport_arg =
  let doc = "Run the reliable transport even over a fault-free wire." in
  Arg.(value & flag & info [ "transport" ] ~doc)

let elide_arg =
  let doc =
    "Skip the runtime race check at sites the static MHP analysis proves race-free \
     (instrumentation elision). Race reports are unchanged; only the check cost drops."
  in
  Arg.(value & flag & info [ "elide" ] ~doc)

(* The run configuration [run] and [record] share: backend, protocol and
   detection switches, then the wire and transport flags, for the
   processor count [target] yields with its workload. Config.check judges
   it, so a configuration it rejects (a bus backend with wire flags, a
   partition naming no link, a retry cap outside [0, 1000], ...) is a bad
   command line, as is a retry cap with no transport to apply it to. *)
let config_term target =
  let config (workload, nprocs) backend protocol no_detect first_race_only stores_from_diffs
      gc_epochs elide drop dup reorder partitions net_seed max_retries transport =
    let fault =
      {
        Sim.Fault.drop;
        duplicate = dup;
        reorder;
        partitions =
          List.map
            (fun (a, b, t0, t1) ->
              { Sim.Fault.p_a = a; p_b = b; p_from_ns = t0; p_until_ns = t1 })
            partitions;
      }
    in
    let wire = transport || Sim.Fault.active fault in
    let transport =
      match max_retries with
      | Some max_retries when wire -> Some { Sim.Transport.max_retries }
      | None when wire -> Some Sim.Transport.default_config
      | _ -> None
    in
    let cfg =
      {
        Coherence.Config.default with
        backend;
        protocol;
        detect = not no_detect;
        first_race_only;
        stores_from_diffs;
        gc_epochs;
        elide_sites = (if elide then Some [] else None);
        fault;
        transport;
        seed = net_seed;
      }
    in
    if max_retries <> None && not wire then
      Error
        (`Msg
          "--max-retries caps the reliable transport, which runs only with --transport or a \
           fault flag")
    else
      match Coherence.Config.check ~nprocs cfg with
      | cfg -> Ok ((workload, nprocs), cfg)
      | exception Invalid_argument msg -> Error (`Msg msg)
  in
  Term.(term_result ~usage:true
      (const config $ target $ backend_arg $ protocol_arg $ no_detect_arg $ first_race_arg
      $ diff_stores_arg $ gc_epochs_arg $ elide_arg $ drop_arg $ dup_arg $ reorder_arg
      $ partition_arg $ net_seed_arg $ max_retries_arg $ transport_arg))

let ppf = Format.std_formatter

(* The failures every subcommand reports the same way: a simulated
   deadlock prints its diagnosis and exits 2, a file that cannot be read
   or written exits 2, and a malformed trace log exits 3. *)
let guarded f =
  try f () with
  | Sim.Engine.Deadlock diagnosis ->
      Format.fprintf ppf "DEADLOCK@.%s@." (Sim.Engine.diagnosis_to_string diagnosis);
      exit 2
  | Sys_error msg ->
      Format.eprintf "%s@." msg;
      exit 2
  | Trace.Codec.Corrupt msg ->
      Format.eprintf "corrupt trace log: %s@." msg;
      exit 3

(* A --json FILE is opened before any work, as [record] opens -o FILE:
   an unwritable path exits 2 at once, and a run that fails leaves the
   file empty. The report is written at the end. *)
let open_json = Option.map (fun path -> (path, open_out path))

let write_json oc v =
  output_string oc (Bench_json.to_string v);
  close_out oc

let print_faults cfg =
  if Sim.Fault.active cfg.Coherence.Config.fault then
    Format.fprintf ppf "wire faults: %s@." (Sim.Fault.describe cfg.Coherence.Config.fault)

let print_outcome (outcome : Core.Driver.outcome) =
  Format.fprintf ppf "== %s on %d processors (detect %s) ==@." outcome.Core.Driver.app_name
    outcome.Core.Driver.nprocs
    (if outcome.Core.Driver.detect then "on" else "off");
  Format.fprintf ppf "simulated time: %.3f ms@."
    (float_of_int outcome.Core.Driver.sim_time_ns /. 1e6);
  Core.Report.races ~symtab:outcome.Core.Driver.symtab ppf outcome.Core.Driver.races;
  Format.fprintf ppf "@[<v 2>statistics:@ %a@]@." Sim.Stats.pp outcome.Core.Driver.stats

(* The run target and its processor count: a registry application at
   [-p], or a trace-file workload, whose procs directive sets the count. *)
let workload_term =
  let resolve app_name trace_file procs scale =
    guarded @@ fun () ->
    match (trace_file, app_name) with
    | Some path, _ -> (
        if app_name <> None then begin
          Format.eprintf "cannot give both APP and --trace-file@.";
          exit 2
        end;
        try
          let program = Workload.Trace_file.parse_file path in
          (Workload.Program.to_app program, program.Workload.Program.nprocs)
        with Workload.Trace_file.Parse_error { line; msg } ->
          if line > 0 then Format.eprintf "%s:%d: %s@." path line msg
          else Format.eprintf "%s: %s@." path msg;
          exit 2)
    | None, Some name -> (Apps.Registry.make ~scale name, procs)
    | None, None ->
        Format.eprintf "give an APP name or --trace-file FILE@.";
        exit 2
  in
  Term.(const resolve $ app_or_trace_arg $ trace_file_arg $ procs_arg $ scale_arg)

let run_command =
  let run ((app, procs), cfg) slowdown oracle =
    guarded @@ fun () ->
    let cfg = { cfg with Coherence.Config.record_trace = oracle } in
    print_faults cfg;
    if slowdown then begin
      let sd = Core.Driver.measure_slowdown ~cfg ~app ~nprocs:procs () in
      print_outcome sd.Core.Driver.instrumented;
      Format.fprintf ppf "baseline: %.3f ms, slowdown factor: %.2f@."
        (float_of_int sd.Core.Driver.base.Core.Driver.sim_time_ns /. 1e6)
        sd.Core.Driver.factor
    end
    else begin
      let outcome = Core.Driver.run ~cfg ~app ~nprocs:procs () in
      print_outcome outcome;
      if oracle then begin
        let expected = Core.Driver.oracle_addrs outcome in
        let detected = Core.Driver.racy_addrs outcome in
        if expected = detected then Format.fprintf ppf "oracle cross-check: agreement@."
        else begin
          Format.fprintf ppf "oracle cross-check: MISMATCH (%d vs %d addresses)@."
            (List.length detected) (List.length expected);
          exit 1
        end
      end
    end
  in
  let term = Term.(const run $ config_term workload_term $ slowdown_arg $ oracle_arg) in
  Cmd.v
    (Cmd.info "run"
       ~doc:"Run an application (or a $(b,--trace-file) workload) under online race detection.")
    term

(* A replay that is not clean prints its first divergence, or which
   part of the outcome differs, and exits 1. *)
let exit_unless_clean (result : Core.Trace_run.replay_result) =
  if not (Core.Trace_run.clean result) then begin
    (match result.Core.Trace_run.rr_divergence with
    | Some d -> Format.fprintf ppf "%a@." Trace.Replay.pp_divergence d
    | None ->
        Format.fprintf ppf "event streams identical but outcome mismatch (races %s, checksum %s)@."
          (if result.Core.Trace_run.rr_races_match then "match" else "DIFFER")
          (if result.Core.Trace_run.rr_checksum_match then "matches" else "DIFFERS"));
    exit 1
  end

let hunt_command =
  let hunt app_name procs scale =
    Format.fprintf ppf "run 1: detecting races and recording synchronization order...@.";
    let run1, run2 = Core.Trace_run.hunt ~app_name ~scale ~nprocs:procs () in
    Core.Report.races ~symtab:run1.Core.Driver.symtab ppf run1.Core.Driver.races;
    match run2 with
    | None -> Format.fprintf ppf "nothing to hunt.@."
    | Some run2 ->
        Format.fprintf ppf "run 2: re-running with a watch on %d address(es)...@."
          (List.length (Core.Driver.racy_addrs run1));
        (* the sites below are run 2's; they name run 1's races only if
           run 2 replayed run 1's log event for event *)
        exit_unless_clean run2;
        Format.fprintf ppf "source sites involved in the races:@.";
        List.iter
          (fun hit -> Format.fprintf ppf "  %a@." Instrument.Watch.pp_hit hit)
          run2.Core.Trace_run.rr_outcome.Core.Driver.watch_hits
  in
  let term = Term.(const hunt $ app_arg $ procs_arg $ scale_arg) in
  Cmd.v
    (Cmd.info "hunt"
       ~doc:
         "Two-run race hunt (section 6.1): detect races while recording the run, then \
          replay its log with a watch on the racy addresses to identify the source sites. \
          Exits 1, printing the first divergence, unless the replay repeats the first run \
          exactly.")
    term

let record_command =
  let out_arg =
    let doc =
      "Output file for the binary trace log. It is opened before the run starts, so an \
       unwritable path fails at once; a run that fails leaves it empty."
    in
    Arg.(value & opt string "run.cvmt" & info [ "o"; "output" ] ~docv:"FILE" ~doc)
  in
  let record ((app_name, procs), cfg) scale out =
    guarded @@ fun () ->
    (* an output that cannot be opened fails before the simulation *)
    let oc = open_out_bin out in
    print_faults cfg;
    match Core.Trace_run.run_recorded ~cfg ~app_name ~scale ~nprocs:procs () with
    | exception e ->
        close_out_noerr oc;
        raise e
    | outcome, recorder ->
        let log = Trace.Sink.contents recorder in
        output_string oc log;
        close_out oc;
        print_outcome outcome;
        Format.fprintf ppf "trace: %d event(s), %d bytes -> %s@."
          (Trace.Sink.recorded_count recorder) (String.length log) out
  in
  let target = Term.(const (fun app procs -> (app, procs)) $ app_arg $ procs_arg) in
  let term = Term.(const record $ config_term target $ scale_arg $ out_arg) in
  Cmd.v
    (Cmd.info "record"
       ~doc:
         "Run an application with the deterministic trace recorder and save the binary \
          event log (replay it with $(b,cvm_race replay)).")
    term

let log_arg =
  let doc = "Binary trace log produced by $(b,cvm_race record)." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"LOG" ~doc)

(* The machine a log ran on: the backend, and the protocol only for lrc
   (a bus backend ignores it) *)
let machine_of_meta (m : Trace.Codec.meta) =
  if m.Trace.Codec.m_backend = "lrc" then "lrc " ^ m.Trace.Codec.m_protocol
  else m.Trace.Codec.m_backend

let replay_command =
  let log_only_arg =
    let doc =
      "Do not re-execute: reconstruct the race set and final memory checksum from the \
       log alone."
    in
    Arg.(value & flag & info [ "log-only" ] ~doc)
  in
  let replay log_path log_only =
    guarded @@ fun () ->
    let log = Core.Trace_run.load log_path in
    if log_only then begin
      let decoded, _ = Core.Trace_run.decode log in
      let m = decoded.Trace.Codec.meta in
      Format.fprintf ppf "== %s on %d processors (%s, from log only) ==@."
        m.Trace.Codec.m_app m.Trace.Codec.m_nprocs (machine_of_meta m);
      Core.Report.races ppf (Trace.Replay.races_of_log decoded);
      (match Trace.Replay.checksum_of_log decoded with
      | Some c -> Format.fprintf ppf "memory checksum: %x@." c
      | None -> Format.fprintf ppf "memory checksum: (log has no run-end event)@.");
      match Trace.Replay.sim_time_of_log decoded with
      | Some ns -> Format.fprintf ppf "simulated time: %.3f ms@." (float_of_int ns /. 1e6)
      | None -> ()
    end
    else begin
      let result = Core.Trace_run.replay log in
      let m = result.Core.Trace_run.rr_meta in
      Format.fprintf ppf "== replaying %s on %d processors (%s, scale %s) ==@."
        m.Trace.Codec.m_app m.Trace.Codec.m_nprocs (machine_of_meta m) m.Trace.Codec.m_scale;
      exit_unless_clean result;
      print_outcome result.Core.Trace_run.rr_outcome;
      Format.fprintf ppf
        "replay verified: event streams, race set and memory checksum identical@."
    end
  in
  let term = Term.(const replay $ log_arg $ log_only_arg) in
  Cmd.v
    (Cmd.info "replay"
       ~doc:
         "Re-execute a recorded run and verify both event streams are identical; on a \
          mismatch, report the first divergence and exit nonzero.")
    term

let trace_command =
  let chrome_arg =
    let doc = "Write a Chrome trace-event JSON file (load in chrome://tracing or Perfetto)." in
    Arg.(value & opt (some string) None & info [ "chrome" ] ~docv:"FILE" ~doc)
  in
  let stats_arg =
    let doc = "Print per-tag event counts and encoded bytes." in
    Arg.(value & flag & info [ "stats" ] ~doc)
  in
  let events_arg =
    let doc = "Print the first $(docv) decoded events." in
    Arg.(value & opt int 0 & info [ "events" ] ~docv:"N" ~doc)
  in
  let trace log_path chrome stats events =
    guarded @@ fun () ->
    let log = Core.Trace_run.load log_path in
    let decoded, _ = Core.Trace_run.decode log in
    let m = decoded.Trace.Codec.meta in
    Format.fprintf ppf
      "%s: %s on %d processors, %s, scale %s, seed %d, %d event(s), %d bytes@." log_path
      m.Trace.Codec.m_app m.Trace.Codec.m_nprocs (machine_of_meta m) m.Trace.Codec.m_scale
      m.Trace.Codec.m_seed decoded.Trace.Codec.count (String.length log);
    if m.Trace.Codec.m_drop > 0.0 || m.Trace.Codec.m_dup > 0.0
       || m.Trace.Codec.m_reorder > 0.0
       || m.Trace.Codec.m_partitions <> []
    then
      Format.fprintf ppf
        "faults: drop %.1f%%, dup %.1f%%, reorder %.1f%%, %d partition window(s)@."
        (100. *. m.Trace.Codec.m_drop)
        (100. *. m.Trace.Codec.m_dup)
        (100. *. m.Trace.Codec.m_reorder)
        (List.length m.Trace.Codec.m_partitions);
    if stats then begin
      Format.fprintf ppf "%-16s %10s %12s@." "tag" "count" "bytes";
      List.iter
        (fun (s : Trace.Replay.tag_stats) ->
          Format.fprintf ppf "%-16s %10d %12d@." s.Trace.Replay.ts_tag
            s.Trace.Replay.ts_count s.Trace.Replay.ts_bytes)
        (Trace.Replay.tags_of_log decoded)
    end;
    let r = Trace.Codec.reader decoded in
    for i = 0 to min events decoded.Trace.Codec.count - 1 do
      let event = Trace.Codec.next r in
      Format.fprintf ppf "%8d  %10d ns  %a@." i (Trace.Codec.time r) Trace.Event.pp event
    done;
    match chrome with
    | Some out ->
        let oc = open_out_bin out in
        Fun.protect ~finally:(fun () -> close_out oc) (fun () -> Trace.Chrome.export oc decoded);
        Format.fprintf ppf "chrome trace -> %s@." out
    | None -> ()
  in
  let term = Term.(const trace $ log_arg $ chrome_arg $ stats_arg $ events_arg) in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Inspect a binary trace log: run summary, per-tag statistics ($(b,--stats)), \
          the first events ($(b,--events)), or a Chrome trace-event export \
          ($(b,--chrome)).")
    term

(* --- analyze: static pass, MHP pair report, JSON and baseline modes --- *)

let json_of_warning (w : Instrument.Mhp.warning) =
  Bench_json.Obj
    [
      ("proc", Bench_json.String w.Instrument.Mhp.w_proc);
      ("site", Bench_json.String w.Instrument.Mhp.w_site);
      ( "kind",
        Bench_json.String
          (match w.Instrument.Mhp.w_kind with
          | Instrument.Binary.Load -> "load"
          | Instrument.Binary.Store -> "store") );
      ("region", Bench_json.String w.Instrument.Mhp.w_region);
      ("other_site", Bench_json.String w.Instrument.Mhp.w_other_site);
      ( "other_locks",
        Bench_json.List (List.map (fun l -> Bench_json.Int l) w.Instrument.Mhp.w_other_locks) );
    ]

let json_of_side (s : Instrument.Mhp.side) =
  Bench_json.Obj
    [
      ("site", Bench_json.String s.Instrument.Mhp.s_site);
      ( "kind",
        Bench_json.String
          (match s.Instrument.Mhp.s_kind with
          | Instrument.Binary.Load -> "load"
          | Instrument.Binary.Store -> "store") );
      ("locks", Bench_json.List (List.map (fun l -> Bench_json.Int l) s.Instrument.Mhp.s_locks));
    ]

let json_of_mhp (r : Instrument.Mhp.report) =
  let sites ss = Bench_json.List (List.map (fun s -> Bench_json.String s) ss) in
  Bench_json.Obj
    [
      ( "pairs",
        Bench_json.List
          (List.map
             (fun (p : Instrument.Mhp.pair) ->
               Bench_json.Obj
                 [
                   ("proc", Bench_json.String p.Instrument.Mhp.p_proc);
                   ( "severity",
                     Bench_json.String
                       (Instrument.Mhp.severity_name p.Instrument.Mhp.p_severity) );
                   ("region", Bench_json.String p.Instrument.Mhp.p_region);
                   ( "phases",
                     Bench_json.List
                       (List.map (fun ph -> Bench_json.Int ph) p.Instrument.Mhp.p_phases) );
                   ("a", json_of_side p.Instrument.Mhp.p_a);
                   ("b", json_of_side p.Instrument.Mhp.p_b);
                 ])
             r.Instrument.Mhp.pairs) );
      ("may_race_sites", sites r.Instrument.Mhp.may_race_sites);
      ("race_free_sites", sites r.Instrument.Mhp.race_free_sites);
      ("shared_sites", sites r.Instrument.Mhp.shared_sites);
    ]

let json_of_analysis ~name (result : Instrument.Static_analysis.result) ~warnings mhp =
  let c = result.Instrument.Static_analysis.classification in
  Bench_json.Obj
    [
      ("app", Bench_json.String name);
      ( "classification",
        Bench_json.Obj
          [
            ("stack", Bench_json.Int c.Instrument.Static_analysis.stack);
            ("static", Bench_json.Int c.Instrument.Static_analysis.static_data);
            ("proven_private", Bench_json.Int c.Instrument.Static_analysis.proven_private);
            ("library", Bench_json.Int c.Instrument.Static_analysis.library);
            ("cvm", Bench_json.Int c.Instrument.Static_analysis.cvm);
            ("instrumented", Bench_json.Int c.Instrument.Static_analysis.instrumented);
          ] );
      ("batched_checks", Bench_json.Int result.Instrument.Static_analysis.batched_checks);
      ( "check_cost_scale",
        Bench_json.Float result.Instrument.Static_analysis.check_cost_scale );
      ("warnings", Bench_json.List (List.map json_of_warning warnings));
      ("mhp", json_of_mhp mhp);
    ]

let read_lines path =
  List.filter (fun l -> String.trim l <> "") (String.split_on_char '\n' (Core.Trace_run.load path))

let analyze_command =
  let app_opt_arg =
    let doc = "Application to analyze: fft, sor, tsp, water or lu." in
    Arg.(value & pos 0 (some app_conv) None & info [] ~docv:"APP" ~doc)
  in
  let all_arg =
    let doc = "Analyze every application, including the extra workloads." in
    Arg.(value & flag & info [ "all" ] ~doc)
  in
  let mhp_arg =
    let doc =
      "Also run the whole-program may-happen-in-parallel analysis and print the pairwise \
       static race report (witness region, phases and locksets per pair)."
    in
    Arg.(value & flag & info [ "mhp" ] ~doc)
  in
  let json_arg =
    let doc = "Write the full analysis (classification, warnings, MHP report) as JSON." in
    Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE" ~doc)
  in
  let expect_arg =
    let doc =
      "Baseline mode for CI: compare the emitted warning lines against $(docv) (one \
       warning per line) and exit nonzero on any drift — a new warning, a vanished \
       warning, or a changed message."
    in
    Arg.(value & opt (some string) None & info [ "expect" ] ~docv:"FILE" ~doc)
  in
  let analyze app_name all scale mhp json expect =
    guarded @@ fun () ->
    let baseline = Option.map (fun path -> (path, read_lines path)) expect in
    let json = open_json json in
    let names =
      match (app_name, all) with
      | _, true -> Apps.Registry.extended_names
      | Some name, false -> [ name ]
      | None, false -> Apps.Registry.all_names
    in
    let any_warnings = ref false in
    let warning_lines = ref [] in
    let json_apps = ref [] in
    List.iter
      (fun name ->
        let app = Apps.Registry.make ~scale name in
        let result = Instrument.Static_analysis.analyze (app.Apps.App.binary ()) in
        let report = Instrument.Mhp.of_analysis result in
        let warnings = Instrument.Mhp.warnings report in
        Core.Report.analysis ppf ~name:app.Apps.App.name result ~warnings;
        if warnings <> [] then any_warnings := true;
        List.iter
          (fun w ->
            warning_lines :=
              Format.asprintf "%s: %a" app.Apps.App.name Instrument.Mhp.pp_warning w
              :: !warning_lines)
          warnings;
        if mhp then
          Format.fprintf ppf "@[<v 2>%s may-happen-in-parallel:@ %a@]@.@."
            app.Apps.App.name Instrument.Mhp.pp_report report;
        if json <> None then
          json_apps :=
            json_of_analysis ~name:app.Apps.App.name result ~warnings report :: !json_apps)
      names;
    let warning_lines = List.rev !warning_lines in
    (match json with
    | Some (path, oc) ->
        write_json oc
          (Bench_json.Obj
             [
               ("schema", Bench_json.String "cvm-race-analyze/1");
               ("apps", Bench_json.List (List.rev !json_apps));
             ]);
        Format.fprintf ppf "analysis JSON -> %s@." path
    | None -> ());
    let drifted =
      match baseline with
      | None -> false
      | Some (path, expected) ->
          let missing = List.filter (fun l -> not (List.mem l warning_lines)) expected in
          let unexpected = List.filter (fun l -> not (List.mem l expected)) warning_lines in
          List.iter (fun l -> Format.fprintf ppf "MISSING (expected, not emitted): %s@." l) missing;
          List.iter (fun l -> Format.fprintf ppf "UNEXPECTED (emitted, not in baseline): %s@." l) unexpected;
          if missing = [] && unexpected = [] then begin
            Format.fprintf ppf "warning set matches baseline %s (%d line(s))@." path
              (List.length expected);
            false
          end
          else true
    in
    if !any_warnings && expect = None then
      Format.fprintf ppf
        "note: lint findings are static suspicions; `cvm_race run` confirms them dynamically@.";
    if drifted then exit 1
  in
  let term =
    Term.(const analyze $ app_opt_arg $ all_arg $ scale_arg $ mhp_arg $ json_arg
        $ expect_arg)
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:
         "Run the static passes alone: per-application access classification, \
          redundant-check batching, the lockset warnings of the may-happen-in-parallel \
          analysis, and (with $(b,--mhp)) its whole-program pair report. $(b,--expect) \
          compares the warning lines to a checked-in baseline and exits nonzero on drift; \
          $(b,--json) writes the full report for tooling.")
    term

let litmus_command =
  let litmus backend protocol =
    List.iter
      (fun test ->
        let outcomes = Litmus.explore ~backend ~protocol test in
        Format.fprintf ppf "%-16s: %s@." test.Litmus.name
          (String.concat " | "
             (List.map
                (fun registers ->
                  match registers with
                  | [] -> "(no registers)"
                  | _ ->
                      String.concat ","
                        (List.map (fun (r, v) -> Printf.sprintf "%s=%d" r v) registers))
                outcomes)))
      Litmus.all
  in
  let term = Term.(const litmus $ backend_arg $ protocol_arg) in
  Cmd.v
    (Cmd.info "litmus"
       ~doc:
         "Explore the observable outcomes of classic memory-model litmus tests (MP, SB, \
          coherence) on the chosen backend and protocol; $(b,--backend) mesi or dragon \
          runs them sequentially consistent.")
    term

let fuzz_command =
  let seed_arg =
    let doc = "Base seed; program $(i,i) is drawn from (seed, i)." in
    Arg.(value & opt int 1 & info [ "seed" ] ~docv:"S" ~doc)
  in
  let count_arg =
    let doc = "Number of programs to generate and check." in
    Arg.(value & opt (int_from 0) 50 & info [ "count" ] ~docv:"N" ~doc)
  in
  let no_shrink_arg =
    let doc = "Report mismatches as generated, without minimizing them." in
    Arg.(value & flag & info [ "no-shrink" ] ~doc)
  in
  let repro_dir_arg =
    let doc = "Write each mismatch's (minimized) program as a trace file under $(docv)." in
    Arg.(value & opt (some string) None & info [ "repro-dir" ] ~docv:"DIR" ~doc)
  in
  let json_arg =
    let doc = "Write the fuzz report (generator statistics and mismatches) as JSON." in
    Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE" ~doc)
  in
  let backends_arg =
    let doc = "Comma-separated backends to cross-check (default: every registered one)." in
    Arg.(value & opt (list string) Backends.all
        & info [ "backends" ] ~docv:"B,B,..." ~doc)
  in
  let fuzz seed count no_shrink repro_dir json backends =
    guarded @@ fun () ->
    let reject what =
      Format.eprintf "%s (available: %s)@." what (String.concat ", " Backends.all);
      exit 2
    in
    if backends = [] then reject "--backends: no backend given";
    List.iter
      (fun b -> if not (Backends.known b) then reject (Printf.sprintf "unknown backend %S" b))
      backends;
    let json = open_json json in
    let report =
      Workload.Harness.fuzz ~backends ?repro_dir ~seed ~count ~shrink:(not no_shrink) ()
    in
    Format.fprintf ppf
      "fuzz seed %d: %d program(s), %d event(s), %d race(s) planted, %d found, %d clean \
       program(s), %d shrink step(s)@."
      seed report.Workload.Harness.programs report.Workload.Harness.events
      report.Workload.Harness.planted report.Workload.Harness.found
      report.Workload.Harness.clean_programs report.Workload.Harness.shrink_steps;
    List.iter
      (fun (m : Workload.Harness.mismatch) ->
        Format.fprintf ppf "MISMATCH [%s] %s@.%a@."
          (Workload.Harness.kind_name m.Workload.Harness.kind)
          m.Workload.Harness.detail Workload.Program.pp m.Workload.Harness.program)
      report.Workload.Harness.mismatches;
    List.iter
      (fun path -> Format.fprintf ppf "repro -> %s@." path)
      report.Workload.Harness.repro_files;
    (match json with
    | Some (path, oc) ->
        let mismatch_json (m : Workload.Harness.mismatch) =
          Bench_json.Obj
            [
              ("kind", Bench_json.String (Workload.Harness.kind_name m.Workload.Harness.kind));
              ("detail", Bench_json.String m.Workload.Harness.detail);
              ( "program",
                Bench_json.String
                  (Workload.Trace_file.to_string m.Workload.Harness.program) );
              ("events", Bench_json.Int (Workload.Program.size m.Workload.Harness.program));
            ]
        in
        write_json oc
          (Bench_json.Obj
             [
               ("schema", Bench_json.String "cvm-race-fuzz/1");
               ("seed", Bench_json.Int seed);
               ("count", Bench_json.Int count);
               ("backends", Bench_json.List (List.map (fun b -> Bench_json.String b) backends));
               ("programs", Bench_json.Int report.Workload.Harness.programs);
               ("events", Bench_json.Int report.Workload.Harness.events);
               ("races_planted", Bench_json.Int report.Workload.Harness.planted);
               ("races_found", Bench_json.Int report.Workload.Harness.found);
               ("clean_programs", Bench_json.Int report.Workload.Harness.clean_programs);
               ("shrink_steps", Bench_json.Int report.Workload.Harness.shrink_steps);
               ( "mismatches",
                 Bench_json.List
                   (List.map mismatch_json report.Workload.Harness.mismatches) );
               ( "repro_files",
                 Bench_json.List
                   (List.map
                      (fun p -> Bench_json.String p)
                      report.Workload.Harness.repro_files) );
             ]);
        Format.fprintf ppf "fuzz report JSON -> %s@." path
    | None -> ());
    if report.Workload.Harness.mismatches <> [] then exit 1
  in
  let term =
    Term.(const fuzz $ seed_arg $ count_arg $ no_shrink_arg $ repro_dir_arg $ json_arg
        $ backends_arg)
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Differential fuzzing: generate seeded random concurrent programs with \
          by-construction ground-truth racy sets, run the online detector (with and \
          without elision) against the offline oracle across every backend, and shrink \
          any mismatch to a minimized trace-file repro. Exits nonzero on any mismatch.")
    term

let () =
  (* registry listing; handled before Cmdliner so it works from any
     subcommand position *)
  if Array.exists (String.equal "--list-backends") Sys.argv then begin
    List.iter
      (fun name ->
        Printf.printf "%-8s %s\n" name
          (Option.value ~default:"" (Backends.describe name)))
      Backends.all;
    exit 0
  end;
  let doc = "online data-race detection via coherency guarantees (OSDI '96 reproduction)" in
  let info = Cmd.info "cvm_race" ~version:"1.0.0" ~doc in
  (* a margin wide enough that a bad-input diagnostic never wraps *)
  let err = Format.formatter_of_out_channel stderr in
  Format.pp_set_margin err 10_000;
  exit
    (Cmd.eval ~err
       (Cmd.group info
          [
            run_command;
            hunt_command;
            record_command;
            replay_command;
            trace_command;
            analyze_command;
            litmus_command;
            fuzz_command;
          ]))
