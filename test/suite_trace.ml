(* The record/replay subsystem: codec round-trips, recording is
   behavior-neutral, a pristine log replays cleanly for every app on a
   lossy wire, a single mutated event is pinpointed by index, and the
   race set + memory checksum reconstruct from the log alone. *)

let check = Alcotest.check

let sample_meta =
  {
    Trace.Codec.m_app = "sor";
    m_scale = "small";
    m_nprocs = 4;
    m_protocol = "single-writer";
    m_detect = true;
    m_first_race_only = false;
    m_stores_from_diffs = false;
    m_seed = 42;
    m_drop = 0.2;
    m_dup = 0.05;
    m_reorder = 0.1;
    m_partitions = [ (0, 1, 5_000, 10_000); (2, 3, 0, max_int) ];
    m_transport = Some 5;
    m_gc_epochs = Some 2;
    m_elide = true;
    m_backend = "lrc";
  }

(* A decoded log keeps only bytes; a test that inspects or edits its
   events builds its own array of (time, event) records *)
let events_of decoded =
  let r = Trace.Codec.reader decoded in
  Array.init decoded.Trace.Codec.count (fun _ ->
      let e = Trace.Codec.next r in
      (Trace.Codec.time r, e))

(* ------------------------------------------------------------------ *)
(* Codec round-trip (property)                                          *)

let gen_event : Trace.Event.t QCheck.Gen.t =
  let open QCheck.Gen in
  let proc = int_bound 7 in
  let small = int_bound 1_000_000 in
  let kind_name = oneofl [ "page-req"; "diff-req"; "lock"; "barrier"; "x" ] in
  let pages = list_size (int_bound 4) (int_bound 255) in
  let vc = list_size (int_range 1 4) (int_bound 1000) >|= Array.of_list in
  let iid = map2 (fun proc index -> { Proto.Interval.proc; index }) proc (int_bound 1000) in
  let akind = oneofl [ Proto.Race.Read; Proto.Race.Write ] in
  let race =
    map2
      (fun (addr, page, word) ((a, ka), (b, kb), epoch) ->
        { Proto.Race.addr; page; word; first = (a, ka); second = (b, kb); epoch })
      (triple small (int_bound 255) (int_bound 511))
      (triple (pair iid akind) (pair iid akind) (int_bound 40))
  in
  let outcome =
    oneof
      [
        map2
          (fun copies extra_delay_ns -> Trace.Event.Passed { copies; extra_delay_ns })
          (int_range 1 3) small;
        return Trace.Event.Dropped;
        return Trace.Event.Blackholed;
      ]
  in
  oneof
    [
      map2
        (fun (src, dst) (kind, bytes) -> Trace.Event.Msg_send { src; dst; kind; bytes })
        (pair proc proc) (pair kind_name small);
      map2
        (fun (src, dst) (kind, bytes) -> Trace.Event.Msg_deliver { src; dst; kind; bytes })
        (pair proc proc) (pair kind_name small);
      map3 (fun src dst outcome -> Trace.Event.Fault { src; dst; outcome }) proc proc outcome;
      map3 (fun a b up -> Trace.Event.Partition { a; b; up }) proc proc bool;
      map3 (fun src dst seq -> Trace.Event.Retransmit { src; dst; seq }) proc proc small;
      map3 (fun src dst cum -> Trace.Event.Ack { src; dst; cum }) proc proc small;
      map2 (fun src dst -> Trace.Event.Link_failure { src; dst }) proc proc;
      map2 (fun proc label -> Trace.Event.Proc_block { proc; label }) proc kind_name;
      map (fun proc -> Trace.Event.Proc_resume { proc }) proc;
      map (fun proc -> Trace.Event.Proc_finish { proc }) proc;
      map3 (fun proc page kind -> Trace.Event.Page_fault { proc; page; kind }) proc
        (int_bound 255) akind;
      map3 (fun proc page count -> Trace.Event.Diff_fetch { proc; page; count }) proc
        (int_bound 255) small;
      map3 (fun proc page words -> Trace.Event.Diff_apply { proc; page; words }) proc
        (int_bound 255) small;
      map3 (fun proc lock vc -> Trace.Event.Lock_acquire { proc; lock; vc }) proc small vc;
      map3 (fun proc lock vc -> Trace.Event.Lock_release { proc; lock; vc }) proc small vc;
      map2 (fun proc epoch -> Trace.Event.Barrier_enter { proc; epoch }) proc small;
      map3 (fun proc epoch vc -> Trace.Event.Barrier_leave { proc; epoch; vc }) proc small vc;
      map3 (fun proc index epoch -> Trace.Event.Interval_open { proc; index; epoch }) proc
        small small;
      map3
        (fun (proc, index) epoch (write_pages, read_pages) ->
          Trace.Event.Interval_close { proc; index; epoch; write_pages; read_pages })
        (pair proc small) small (pair pages pages);
      map3 (fun a b pages -> Trace.Event.Check_entry { a; b; pages }) iid iid pages;
      map (fun race -> Trace.Event.Race race) race;
      map3
        (fun checksum sim_time_ns races -> Trace.Event.Run_end { checksum; sim_time_ns; races })
        (oneof [ small; return max_int; return min_int ])
        small (int_bound 100);
    ]

let arb_stream =
  QCheck.make
    ~print:(fun evs ->
      String.concat "; " (List.map (fun (t, e) -> Printf.sprintf "%d:%s" t (Trace.Event.to_string e)) evs))
    QCheck.Gen.(
      list_size (int_bound 40) (pair (int_bound 1_000_000) gen_event)
      >|= fun evs ->
      (* monotone absolute times, as the cluster produces them *)
      let t = ref 0 in
      List.map (fun (dt, e) -> t := !t + dt; (!t, e)) evs)

let prop_codec_roundtrip =
  QCheck.Test.make ~name:"codec: decode (encode stream) = stream" ~count:200 arb_stream
    (fun stream ->
      let events = Array.of_list stream in
      let decoded = Trace.Codec.decode (Trace.Codec.encode sample_meta events) in
      decoded.Trace.Codec.meta = sample_meta
      && decoded.Trace.Codec.count = Array.length events
      && Array.for_all2
           (fun (t1, e1) (t2, e2) -> t1 = t2 && Trace.Event.equal e1 e2)
           (events_of decoded) events
      (* what the checking pass gathers for log-only reconstruction *)
      && decoded.Trace.Codec.races
         = List.filter_map (function _, Trace.Event.Race r -> Some r | _ -> None) stream
      && decoded.Trace.Codec.run_end
         = List.fold_left
             (fun last (_, e) ->
               match e with
               | Trace.Event.Run_end { checksum; sim_time_ns; _ } -> Some (checksum, sim_time_ns)
               | _ -> last)
             None stream)

let test_codec_rejects_garbage () =
  let corrupt s = match Trace.Codec.decode s with
    | _ -> false
    | exception Trace.Codec.Corrupt _ -> true
  in
  check Alcotest.bool "bad magic" true (corrupt "JUNKJUNKJUNK");
  check Alcotest.bool "empty" true (corrupt "");
  let log = Trace.Codec.encode sample_meta [| (0, Trace.Event.Proc_finish { proc = 0 }) |] in
  let truncated = String.sub log 0 (String.length log - 1) in
  check Alcotest.bool "truncated record" true (corrupt truncated);
  let wrong_version = Bytes.of_string log in
  Bytes.set wrong_version 4 '\xff';
  check Alcotest.bool "unsupported version" true (corrupt (Bytes.to_string wrong_version))

(* zigzag LEB128, the codec's varint, so a test can forge a field *)
let varint n =
  let buf = Buffer.create 10 in
  let rec go u =
    if u land lnot 0x7f = 0 then Buffer.add_char buf (Char.chr u)
    else begin
      Buffer.add_char buf (Char.chr (0x80 lor (u land 0x7f)));
      go (u lsr 7)
    end
  in
  go ((n lsl 1) lxor (n asr (Sys.int_size - 1)));
  Buffer.contents buf

let test_codec_rejects_huge_lengths () =
  (* a 1-event log whose last bytes are the vclock: length 2, then 1, 2 *)
  let log =
    Trace.Codec.encode sample_meta
      [| (0, Trace.Event.Lock_acquire { proc = 0; lock = 1; vc = [| 1; 2 |] }) |]
  in
  let n = String.length log in
  check Alcotest.string "vclock is the tail" (varint 2 ^ varint 1 ^ varint 2)
    (String.sub log (n - 3) 3);
  let with_vc_length len = String.sub log 0 (n - 3) ^ varint len ^ varint 1 ^ varint 2 in
  List.iter
    (fun len ->
      match Trace.Codec.decode (with_vc_length len) with
      | _ -> Alcotest.failf "vclock length %d decoded" len
      | exception Trace.Codec.Corrupt msg ->
          check Alcotest.bool "names the vclock length" true (Testutil.contains msg "vclock")
      | exception e -> Alcotest.failf "vclock length %d: %s" len (Printexc.to_string e))
    [ 3; 1 lsl 30; 1 lsl 55; max_int; -1 ];
  (* a string length whose end would overflow the cursor *)
  let bad_string = Trace.Codec.magic ^ String.make 1 (Char.chr Trace.Codec.version) ^ varint max_int in
  match Trace.Codec.decode bad_string with
  | _ -> Alcotest.fail "max_int string length decoded"
  | exception Trace.Codec.Corrupt _ -> ()

let prop_codec_damage_is_corrupt =
  (* damage the tail of a valid log: truncate it, flip one bit, or
     replace it with random bytes — decoding succeeds or raises Corrupt,
     never anything else *)
  let damage =
    QCheck.Gen.(
      oneof
        [
          map (fun at -> `Truncate at) (int_bound 1_000_000);
          map2 (fun at bit -> `Flip (at, bit)) (int_bound 1_000_000) (int_bound 7);
          map2
            (fun at tail -> `Tail (at, tail))
            (int_bound 1_000_000)
            (string_size ~gen:char (int_range 1 24));
        ])
  in
  let print_damage = function
    | `Truncate at -> Printf.sprintf "truncate at %d" at
    | `Flip (at, bit) -> Printf.sprintf "flip bit %d of byte %d" bit at
    | `Tail (at, tail) -> Printf.sprintf "tail %S from %d" tail at
  in
  QCheck.Test.make ~name:"codec: a damaged log decodes or raises Corrupt" ~count:1000
    (QCheck.pair arb_stream (QCheck.make ~print:print_damage damage))
    (fun (stream, damage) ->
      let log = Trace.Codec.encode sample_meta (Array.of_list stream) in
      let n = String.length log in
      let damaged =
        match damage with
        | `Truncate at -> String.sub log 0 (at mod n)
        | `Flip (at, bit) ->
            let b = Bytes.of_string log in
            let at = at mod n in
            Bytes.set b at (Char.chr (Char.code (Bytes.get b at) lxor (1 lsl bit)));
            Bytes.to_string b
        | `Tail (at, tail) -> String.sub log 0 (at mod n) ^ tail
      in
      match Trace.Codec.decode damaged with
      | _ -> true
      | exception Trace.Codec.Corrupt _ -> true)

(* ------------------------------------------------------------------ *)
(* Recording must not perturb the run                                   *)

let lossy_cfg =
  {
    Coherence.Config.default with
    Coherence.Config.fault = { Sim.Fault.none with Sim.Fault.drop = 0.2 };
    transport = Some Sim.Transport.default_config;
  }

(* LRC on a lossy wire, and the mesi bus: the recorder must change
   neither the statistics nor the outcome *)
let test_recording_is_behavior_neutral () =
  let app = Apps.Registry.make ~scale:Apps.Registry.Small "sor" in
  List.iter
    (fun (label, cfg) ->
      let plain = Core.Driver.run ~cfg ~app ~nprocs:4 () in
      let traced, log =
        Core.Trace_run.record ~cfg ~app_name:"sor" ~scale:Apps.Registry.Small ~nprocs:4 ()
      in
      let stats (o : Core.Driver.outcome) =
        Format.asprintf "%a" Sim.Stats.pp o.Core.Driver.stats
      in
      check Alcotest.string (label ^ ": same statistics") (stats plain) (stats traced);
      check Alcotest.int (label ^ ": same simulated time") plain.Core.Driver.sim_time_ns
        traced.Core.Driver.sim_time_ns;
      check Alcotest.int (label ^ ": same memory checksum") plain.Core.Driver.mem_checksum
        traced.Core.Driver.mem_checksum;
      check Alcotest.bool (label ^ ": same races") true
        (plain.Core.Driver.races = traced.Core.Driver.races);
      check Alcotest.bool (label ^ ": log is non-trivial") true
        ((Trace.Codec.decode log).Trace.Codec.count > 100))
    [ ("lossy lrc", lossy_cfg); ("mesi", { Coherence.Config.default with backend = "mesi" }) ]

(* ------------------------------------------------------------------ *)
(* Record -> replay identity for every app under 20% drop              *)

let test_record_replay_identity name () =
  let _, log =
    Core.Trace_run.record ~cfg:lossy_cfg ~app_name:name ~scale:Apps.Registry.Small ~nprocs:4 ()
  in
  let r = Core.Trace_run.replay log in
  (match r.Core.Trace_run.rr_divergence with
  | None -> ()
  | Some d -> Alcotest.failf "unexpected divergence: %s" (Format.asprintf "%a" Trace.Replay.pp_divergence d));
  check Alcotest.bool "race set matches log" true r.Core.Trace_run.rr_races_match;
  check Alcotest.bool "memory checksum matches log" true r.Core.Trace_run.rr_checksum_match;
  check Alcotest.bool "clean" true (Core.Trace_run.clean r)

(* ------------------------------------------------------------------ *)
(* First divergence: one mutated event is pinpointed by its index       *)

let test_first_divergence_pinpointed () =
  let _, log =
    Core.Trace_run.record ~cfg:lossy_cfg ~app_name:"sor" ~scale:Apps.Registry.Small ~nprocs:4 ()
  in
  let decoded = Trace.Codec.decode log in
  let events = events_of decoded in
  let k = Array.length events / 3 in
  let time, _ = events.(k) in
  (* an event the live run can never produce at this point *)
  events.(k) <- (time, Trace.Event.Link_failure { src = 6; dst = 7 });
  let mutated = Trace.Codec.encode decoded.Trace.Codec.meta events in
  let r = Core.Trace_run.replay mutated in
  match r.Core.Trace_run.rr_divergence with
  | None -> Alcotest.fail "mutation not detected"
  | Some d ->
      check Alcotest.int "first divergence at the mutated index" k d.Trace.Replay.d_index;
      (match d.Trace.Replay.d_expected with
      | Some (_, e) ->
          check Alcotest.bool "expected side is the mutated event" true
            (Trace.Event.equal e (Trace.Event.Link_failure { src = 6; dst = 7 }))
      | None -> Alcotest.fail "expected event missing from the report");
      check Alcotest.bool "actual side reported" true (d.Trace.Replay.d_actual <> None);
      let report = Format.asprintf "%a" Trace.Replay.pp_divergence d in
      check Alcotest.bool "report names the event index" true
        (Testutil.contains report (string_of_int k))

(* The hunt's second run, a replay with a watch, is verified like any
   other: a log it does not repeat is reported at its first divergence. *)
let test_watched_replay_divergence () =
  let run1, log = Core.Trace_run.record ~app_name:"tsp" ~scale:Apps.Registry.Small ~nprocs:4 () in
  let watch_addrs = Core.Driver.racy_addrs run1 in
  check Alcotest.bool "the watched replay of the log is clean" true
    (Core.Trace_run.clean (Core.Trace_run.replay ~watch_addrs log));
  let decoded = Trace.Codec.decode log in
  let events = events_of decoded in
  let k = Array.length events / 2 in
  events.(k) <- (fst events.(k), Trace.Event.Link_failure { src = 6; dst = 7 });
  let r = Core.Trace_run.replay ~watch_addrs (Trace.Codec.encode decoded.Trace.Codec.meta events) in
  match r.Core.Trace_run.rr_divergence with
  | Some d -> check Alcotest.int "first divergence at the mutated index" k d.Trace.Replay.d_index
  | None -> Alcotest.fail "mutation not detected"

(* `dune runtest` runs with the test directory as cwd; `dune exec
   test/test_main.exe` runs from the workspace root *)
let golden_file name =
  let local = Filename.concat "golden" name in
  if Sys.file_exists local then local else Filename.concat "test/golden" name

(* The divergence report, pinned as text: golden/replay_divergence.txt
   holds it for four damaged copies of one lossy SOR log. *)
let divergence_report () =
  let _, log =
    Core.Trace_run.record ~cfg:lossy_cfg ~app_name:"sor" ~scale:Apps.Registry.Small ~nprocs:4 ()
  in
  let decoded = Trace.Codec.decode log in
  let events = events_of decoded in
  let n = Array.length events in
  let with_event i f =
    let copy = Array.copy events in
    copy.(i) <- f copy.(i);
    copy
  in
  [
    ( "event n/3 replaced by link-failure 6->7",
      with_event (n / 3) (fun (time, _) ->
          (time, Trace.Event.Link_failure { src = 6; dst = 7 })) );
    ("first event's time plus 1", with_event 0 (fun (time, e) -> (time + 1, e)));
    ("last event's time plus 1", with_event (n - 1) (fun (time, e) -> (time + 1, e)));
    ("log cut to its first half", Array.sub events 0 (n / 2));
  ]
  |> List.map (fun (label, damaged) ->
         let replayed =
           Core.Trace_run.replay (Trace.Codec.encode decoded.Trace.Codec.meta damaged)
         in
         match replayed.Core.Trace_run.rr_divergence with
         | Some d -> Format.asprintf "%s:@.%a@." label Trace.Replay.pp_divergence d
         | None -> Printf.sprintf "%s: no divergence\n" label)
  |> String.concat ""

let test_divergence_report_golden () =
  check Alcotest.string "divergence report"
    (Core.Trace_run.load (golden_file "replay_divergence.txt"))
    (divergence_report ())

let test_truncated_live_stream_diverges () =
  (* verifier finish: a live run that ends short of the log is flagged *)
  let _, log =
    Core.Trace_run.record ~cfg:lossy_cfg ~app_name:"sor" ~scale:Apps.Registry.Small ~nprocs:4 ()
  in
  let decoded = Trace.Codec.decode log in
  let v = Trace.Replay.create decoded in
  let stop = decoded.Trace.Codec.count - 5 in
  Array.iteri
    (fun i (time, e) -> if i < stop then Trace.Replay.check v ~time e)
    (events_of decoded);
  match Trace.Replay.finish v with
  | None -> Alcotest.fail "short stream not flagged"
  | Some d ->
      check Alcotest.int "divergence at the first unmatched event" stop d.Trace.Replay.d_index;
      check Alcotest.bool "no actual event" true (d.Trace.Replay.d_actual = None)

(* ------------------------------------------------------------------ *)
(* Log-only reconstruction: race set and checksum without re-executing  *)

let test_log_only_reconstruction () =
  (* a racy body so the log actually carries Race events *)
  let cfg =
    { Testutil.detect_cfg with
      Coherence.Config.fault = { Sim.Fault.none with Sim.Fault.drop = 0.15 };
      transport = Some Sim.Transport.default_config } in
  let meta = Core.Trace_run.meta_of ~app_name:"custom" ~scale:Apps.Registry.Small ~nprocs:4 cfg in
  let recorder = Trace.Sink.recorder meta in
  let cfg = { cfg with Coherence.Config.tracer = Some (Trace.Sink.sink recorder) } in
  let cluster = Backends.create ~cfg ~nprocs:4 ~pages:4 () in
  let racy = cluster.Coherence.Backend.alloc 8 in
  cluster.Coherence.Backend.run (fun node ->
      let open Lrc.Dsm in
      barrier node;
      if pid node = 0 then write_int node racy 1;
      if pid node = 3 then ignore (read_int node racy);
      barrier node);
  let live = Proto.Race.dedup (cluster.Coherence.Backend.races ()) in
  check Alcotest.bool "the body races" true (live <> []);
  (* Run_end is the driver's job; emit it here the same way *)
  Trace.Sink.emit (Trace.Sink.sink recorder)
    ~time:(cluster.Coherence.Backend.sim_time ())
    (Trace.Event.Run_end
       {
         checksum = cluster.Coherence.Backend.memory_checksum ();
         sim_time_ns = cluster.Coherence.Backend.sim_time ();
         races = List.length live;
       });
  let decoded = Trace.Codec.decode (Trace.Sink.contents recorder) in
  let from_log = Trace.Replay.races_of_log decoded in
  check Alcotest.int "same race count from log alone" (List.length live)
    (List.length from_log);
  check Alcotest.bool "same races from log alone" true
    (List.for_all2 Proto.Race.equal live from_log);
  check
    (Alcotest.option Alcotest.int)
    "checksum from log alone"
    (Some (cluster.Coherence.Backend.memory_checksum ()))
    (Trace.Replay.checksum_of_log decoded);
  check
    (Alcotest.option Alcotest.int)
    "sim time from log alone"
    (Some (cluster.Coherence.Backend.sim_time ()))
    (Trace.Replay.sim_time_of_log decoded);
  let stats = Trace.Replay.tags_of_log decoded in
  let total = List.fold_left (fun acc s -> acc + s.Trace.Replay.ts_count) 0 stats in
  check Alcotest.int "stats cover every event" decoded.Trace.Codec.count total

(* ------------------------------------------------------------------ *)
(* Meta completeness: every config knob that changes the simulation is
   in the log, so replay can never silently run a different config.
   The gc-epochs case is the regression that motivated format v2: the
   cadence was missing from the meta, so a --gc-epochs recording
   replayed with GC off and diverged. *)

let test_gc_epochs_record_replay () =
  let cfg =
    {
      Coherence.Config.default with
      Coherence.Config.protocol = Coherence.Config.Multi_writer;
      gc_epochs = Some 2;
    }
  in
  let _, log =
    Core.Trace_run.record ~cfg ~app_name:"sor" ~scale:Apps.Registry.Small ~nprocs:4 ()
  in
  let decoded = Trace.Codec.decode log in
  check
    (Alcotest.option Alcotest.int)
    "GC cadence recorded in the meta" (Some 2)
    decoded.Trace.Codec.meta.Trace.Codec.m_gc_epochs;
  let r = Core.Trace_run.replay log in
  (match r.Core.Trace_run.rr_divergence with
  | None -> ()
  | Some d ->
      Alcotest.failf "gc-epochs recording diverged on replay: %s"
        (Format.asprintf "%a" Trace.Replay.pp_divergence d));
  check Alcotest.bool "gc-epochs replay clean" true (Core.Trace_run.clean r)

(* Format v3 appends the instrumentation-elision flag: a log recorded
   with --elide must replay with the same derived elide set, and an
   elide-off log must decode with the flag unset. *)

let test_elide_record_replay () =
  let cfg = { Coherence.Config.default with Coherence.Config.elide_sites = Some [] } in
  let outcome, log =
    Core.Trace_run.record ~cfg ~app_name:"water" ~scale:Apps.Registry.Small ~nprocs:4 ()
  in
  check Alcotest.bool "elision was active during recording" true
    (outcome.Core.Driver.stats.Sim.Stats.elided_checks > 0);
  let m = (Trace.Codec.decode log).Trace.Codec.meta in
  check Alcotest.bool "elide flag recorded in the meta" true m.Trace.Codec.m_elide;
  let r = Core.Trace_run.replay log in
  check Alcotest.bool "elided recording replays clean" true (Core.Trace_run.clean r);
  check Alcotest.bool "replay re-derived the elide set" true
    (r.Core.Trace_run.rr_outcome.Core.Driver.stats.Sim.Stats.elided_checks
    = outcome.Core.Driver.stats.Sim.Stats.elided_checks);
  (* and a plain recording says elide off *)
  let _, plain_log =
    Core.Trace_run.record ~app_name:"water" ~scale:Apps.Registry.Small ~nprocs:4 ()
  in
  check Alcotest.bool "plain recording has the flag unset" false
    (Trace.Codec.decode plain_log).Trace.Codec.meta.Trace.Codec.m_elide

let test_version_window_messages () =
  let msg_of s = match Trace.Codec.decode s with
    | _ -> "decoded successfully"
    | exception Trace.Codec.Corrupt msg -> msg
  in
  let log = Trace.Codec.encode sample_meta [| (0, Trace.Event.Proc_finish { proc = 0 }) |] in
  let with_version v =
    let b = Bytes.of_string log in
    Bytes.set b 4 (Char.chr v);
    Bytes.to_string b
  in
  let newer = msg_of (with_version (Trace.Codec.version + 1)) in
  check Alcotest.bool "future version says the log is too new" true
    (Testutil.contains newer "newer");
  let older = msg_of (with_version 0) in
  check Alcotest.bool "prehistoric version says the log is too old" true
    (Testutil.contains older "older");
  let retired = msg_of (with_version (Trace.Codec.version - 1)) in
  check Alcotest.bool "a retired version says the log is too old" true
    (Testutil.contains retired "older")

(* A forged field in an otherwise intact lossy SOR log is rejected as a
   corrupt log before anything is built: no exception from inside a
   constructor, and no allocation sized by a forged processor count. *)
let test_forged_meta_rejected () =
  let _, log =
    Core.Trace_run.record ~cfg:lossy_cfg ~app_name:"sor" ~scale:Apps.Registry.Small ~nprocs:2 ()
  in
  let decoded = Trace.Codec.decode log in
  let m = decoded.Trace.Codec.meta in
  List.iter
    (fun (label, forged) ->
      match Core.Trace_run.replay (Trace.Codec.encode forged (events_of decoded)) with
      | _ -> Alcotest.failf "%s: replayed" label
      | exception Trace.Codec.Corrupt msg ->
          check Alcotest.bool (label ^ ": " ^ msg) true (Testutil.contains msg "metadata"))
    [
      ("unknown app", { m with Trace.Codec.m_app = "xor" });
      ("unknown scale", { m with Trace.Codec.m_scale = "huge" });
      ("unknown protocol", { m with Trace.Codec.m_protocol = "double-writer" });
      ("retired SC protocol", { m with Trace.Codec.m_protocol = "sequential-consistency" });
      ("unknown backend", { m with Trace.Codec.m_backend = "moesi" });
      ("0 processors", { m with Trace.Codec.m_nprocs = 0 });
      ("100,000 processors", { m with Trace.Codec.m_nprocs = 100_000 });
      ("drop 2.0", { m with Trace.Codec.m_drop = 2.0 });
      ("drop NaN", { m with Trace.Codec.m_drop = Float.nan });
      ("negative partition window", { m with Trace.Codec.m_partitions = [ (0, 1, 10, 5) ] });
      ("partition endpoint 9 of 2", { m with Trace.Codec.m_partitions = [ (0, 9, 0, 10) ] });
      ("mesi with faults", { m with Trace.Codec.m_backend = "mesi" });
      ("dragon with faults", { m with Trace.Codec.m_backend = "dragon" });
      ("retry cap max_int", { m with Trace.Codec.m_transport = Some max_int });
      ("zero GC cadence", { m with Trace.Codec.m_gc_epochs = Some 0 });
    ]

(* ------------------------------------------------------------------ *)
(* Chrome export smoke                                                  *)

let test_chrome_export () =
  let _, log =
    Core.Trace_run.record ~cfg:lossy_cfg ~app_name:"fft" ~scale:Apps.Registry.Small ~nprocs:4 ()
  in
  let path = Filename.temp_file "chrome" ".json" in
  let json =
    Fun.protect
      ~finally:(fun () -> Sys.remove path)
      (fun () ->
        let oc = open_out_bin path in
        Fun.protect
          ~finally:(fun () -> close_out oc)
          (fun () -> Trace.Chrome.export oc (Trace.Codec.decode log));
        Core.Trace_run.load path)
  in
  check Alcotest.bool "is a JSON array" true
    (String.length json > 2 && json.[0] = '[' && Testutil.contains json "]");
  check Alcotest.bool "names every processor track" true
    (Testutil.contains json "proc 0" && Testutil.contains json "proc 3");
  check Alcotest.bool "has begin slices" true (Testutil.contains json {|"ph":"B"|});
  check Alcotest.bool "has end slices" true (Testutil.contains json {|"ph":"E"|});
  check Alcotest.bool "has instants" true (Testutil.contains json {|"ph":"i"|});
  (* every B on a tid has a matching E: count them *)
  let count needle =
    let n = String.length needle and total = ref 0 in
    for i = 0 to String.length json - n do
      if String.sub json i n = needle then incr total
    done;
    !total
  in
  check Alcotest.int "slices balanced" (count {|"ph":"B"|}) (count {|"ph":"E"|})

(* ------------------------------------------------------------------ *)
(* Streaming: allocation, footprint and the divergence summary          *)

(* One small-scale SOR p4 log on a 20%-drop wire, shared by the tests
   below *)
let small_sor_log =
  lazy
    (snd
       (Core.Trace_run.record ~cfg:lossy_cfg ~app_name:"sor" ~scale:Apps.Registry.Small
          ~nprocs:4 ()))

let minor_words f =
  let before = Gc.minor_words () in
  let result = Sys.opaque_identity (f ()) in
  (Gc.minor_words () -. before, result)

(* Coding an integer allocates nothing, so encoding costs about the
   buffer's growth, and decoding each record's short-lived event *)
let test_codec_allocation () =
  let log = Lazy.force small_sor_log in
  let decoded = Trace.Codec.decode log in
  let events = events_of decoded in
  let n = float_of_int (Array.length events) in
  let words, encoded = minor_words (fun () -> Trace.Codec.encode decoded.Trace.Codec.meta events) in
  check Alcotest.bool "re-encoding gives the same bytes" true (String.equal encoded log);
  if words > 2.0 *. n then
    Alcotest.failf "encoding %.0f events allocated %.0f minor words (%.2f per event)" n words
      (words /. n);
  let words, _ = minor_words (fun () -> Trace.Codec.decode log) in
  if words > 10.0 *. n then
    Alcotest.failf "decoding %.0f events allocated %.0f minor words (%.2f per event)" n words
      (words /. n)

(* A decoded log and a fresh verifier hold the log's bytes and a few
   hundred words more, not its events *)
let test_decoded_footprint () =
  let log = Lazy.force small_sor_log in
  let decoded = Trace.Codec.decode log in
  let log_words = Obj.reachable_words (Obj.repr log) in
  List.iter
    (fun (what, words) ->
      if words > log_words + 256 then
        Alcotest.failf "%s reaches %d words from a %d-word log" what words log_words)
    [
      ("the decoded log", Obj.reachable_words (Obj.repr decoded));
      ("a fresh verifier", Obj.reachable_words (Obj.repr (Trace.Replay.create decoded)));
    ]

(* The summary the verifier reported before it streamed: scan the
   recorded events back from [k - 1] until every processor has its last
   one *)
let reference_proc_state ~nprocs events k =
  let proc_of : Trace.Event.t -> int option = function
    | Proc_block { proc; _ }
    | Proc_resume { proc }
    | Proc_finish { proc }
    | Page_fault { proc; _ }
    | Diff_fetch { proc; _ }
    | Diff_apply { proc; _ }
    | Lock_acquire { proc; _ }
    | Lock_release { proc; _ }
    | Barrier_enter { proc; _ }
    | Barrier_leave { proc; _ }
    | Interval_open { proc; _ }
    | Interval_close { proc; _ }
    | Bus { proc; _ } ->
        Some proc
    | Msg_send { src; _ } -> Some src
    | Msg_deliver { dst; _ } -> Some dst
    | _ -> None
  in
  let last = Array.make nprocs None in
  for i = k - 1 downto 0 do
    let time, e = events.(i) in
    match proc_of e with
    | Some p when p >= 0 && p < nprocs && last.(p) = None ->
        last.(p) <- Some (Printf.sprintf "%s @ %d ns" (Trace.Event.to_string e) time)
    | _ -> ()
  done;
  List.filter_map (fun p -> Option.map (fun s -> (p, s)) last.(p)) (List.init nprocs Fun.id)

(* At every 7th cut point and the last 10, a live stream that stops
   there, and a log whose record there is replaced, each diverge at that
   index with the reference's per-processor summary *)
let test_divergence_matches_backward_scan () =
  let decoded = Trace.Codec.decode (Lazy.force small_sor_log) in
  let meta = decoded.Trace.Codec.meta in
  let events = events_of decoded in
  let n = Array.length events in
  let feed v upto =
    for i = 0 to upto - 1 do
      let time, e = events.(i) in
      Trace.Replay.check v ~time e
    done
  in
  let expect label k = function
    | None -> Alcotest.failf "%s at %d: no divergence" label k
    | Some d ->
        check Alcotest.int (Printf.sprintf "%s at %d: index" label k) k d.Trace.Replay.d_index;
        check
          Alcotest.(list (pair int string))
          (Printf.sprintf "%s at %d: processor summary" label k)
          (reference_proc_state ~nprocs:meta.Trace.Codec.m_nprocs events k)
          d.Trace.Replay.d_proc_state
  in
  List.init n Fun.id
  |> List.filter (fun k -> k mod 7 = 0 || k >= n - 10)
  |> List.iter (fun k ->
         let v = Trace.Replay.create decoded in
         feed v k;
         expect "stream stopped" k (Trace.Replay.finish v);
         let mutated = Array.copy events in
         mutated.(k) <- (fst events.(k), Trace.Event.Link_failure { src = 6; dst = 7 });
         let v = Trace.Replay.create (Trace.Codec.decode (Trace.Codec.encode meta mutated)) in
         feed v n;
         expect "record replaced" k (Trace.Replay.finish v))

let suite =
  [
    ( "trace:codec",
      [
        QCheck_alcotest.to_alcotest prop_codec_roundtrip;
        Alcotest.test_case "corrupt logs rejected" `Quick test_codec_rejects_garbage;
        Alcotest.test_case "huge length prefixes rejected" `Quick test_codec_rejects_huge_lengths;
        QCheck_alcotest.to_alcotest prop_codec_damage_is_corrupt;
        Alcotest.test_case "coding allocates little" `Quick test_codec_allocation;
        Alcotest.test_case "decoded log holds its bytes" `Quick test_decoded_footprint;
      ] );
    ( "trace:replay",
      [
        Alcotest.test_case "recording is behavior-neutral" `Quick
          test_recording_is_behavior_neutral;
        Alcotest.test_case "record->replay: sor" `Quick (test_record_replay_identity "sor");
        Alcotest.test_case "record->replay: fft" `Quick (test_record_replay_identity "fft");
        Alcotest.test_case "record->replay: tsp" `Quick (test_record_replay_identity "tsp");
        Alcotest.test_case "record->replay: water" `Quick (test_record_replay_identity "water");
        Alcotest.test_case "record->replay: lu" `Quick (test_record_replay_identity "lu");
        Alcotest.test_case "mutated event pinpointed" `Quick test_first_divergence_pinpointed;
        Alcotest.test_case "watched replay pinpoints a mutation" `Quick
          test_watched_replay_divergence;
        Alcotest.test_case "short live stream flagged" `Quick
          test_truncated_live_stream_diverges;
        Alcotest.test_case "divergence report matches golden" `Quick
          test_divergence_report_golden;
        Alcotest.test_case "divergence summary = backward scan" `Quick
          test_divergence_matches_backward_scan;
      ] );
    ( "trace:meta",
      [
        Alcotest.test_case "gc-epochs recorded and replayed" `Quick
          test_gc_epochs_record_replay;
        Alcotest.test_case "elide flag recorded and replayed" `Quick
          test_elide_record_replay;
        Alcotest.test_case "version window messages" `Quick test_version_window_messages;
        Alcotest.test_case "forged metadata rejected" `Quick test_forged_meta_rejected;
      ] );
    ( "trace:offline",
      [
        Alcotest.test_case "race set + checksum from log alone" `Quick
          test_log_only_reconstruction;
        Alcotest.test_case "chrome export" `Quick test_chrome_export;
      ] );
  ]
