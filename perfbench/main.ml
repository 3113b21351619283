(* The repository benchmark: four workloads, an untraced pass that gives
   the end-to-end metrics (--trace 0) and a traced pass that gives the
   per-layer ones (--trace 1). Both run in this one process on one
   domain. perfbench/README.md explains the workloads and metrics.

     python3 perfbench/run.py --workload dsm-paper --seed 1 --seconds 20 --trace 0

   The last line of standard output is the result object; a
   human-readable summary goes to standard error. *)

let fuzz_programs = 1000
let setup_rounds = 7
let setup_round_s = 0.02
let paper_apps = [ "fft"; "sor"; "tsp"; "water"; "lu" ]

type workload = {
  name : string;
  setup : seed:int -> Ops.op array * int;
      (* the operations and the number of generated program events; only
         fuzz draws its inputs from the seed, the others run the paper's
         fixed inputs *)
  compact : bool;  (* compact the heap before every operation *)
}

let make_apps names = List.map (Apps.Registry.make ~scale:Apps.Registry.Paper) names

let workloads =
  [
    {
      name = "dsm-paper";
      compact = true;
      setup =
        (fun ~seed:_ ->
          let apps = make_apps paper_apps in
          let water = List.find (fun a -> Ops.key a = "water") apps in
          let p8 = List.map (Ops.paper ~backend:"lrc" ~nprocs:8) apps in
          (Array.of_list (p8 @ [ Ops.paper ~backend:"lrc" ~nprocs:32 water ]), 0));
    };
    {
      name = "bus-paper";
      compact = true;
      setup =
        (fun ~seed:_ ->
          let apps = make_apps paper_apps in
          let ops =
            List.concat_map
              (fun backend -> List.map (Ops.paper ~backend ~nprocs:8) apps)
              [ "mesi"; "dragon" ]
          in
          (Array.of_list ops, 0));
    };
    {
      name = "fuzz";
      compact = false;
      setup =
        (fun ~seed ->
          let generated =
            List.init fuzz_programs (fun index ->
                Workload.Generator.generate_seeded ~seed ~index ())
          in
          let events =
            List.fold_left
              (fun acc (g : Workload.Generator.generated) ->
                acc + Workload.Program.size g.Workload.Generator.program)
              0 generated
          in
          (Array.of_list (List.map Ops.fuzz generated), events));
    };
    {
      name = "record-replay";
      compact = true;
      setup =
        (fun ~seed:_ ->
          let ops = List.map (Ops.record_replay ~nprocs:8) (make_apps [ "lu"; "sor"; "water" ]) in
          (Array.of_list ops, 0));
    };
  ]

(* ------------------------------------------------------------------ *)
(* Statistics *)

let seconds_since t0 = float_of_int (Span.now_ns () - t0) /. 1e9

(* the lower median *)
let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  if Array.length a = 0 then 0.0 else a.((Array.length a - 1) / 2)

(* nearest-rank percentile *)
let percentile p xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.0 else a.(max 0 (min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1)))

let ratio a b = if b = 0.0 then 0.0 else a /. b

(* ------------------------------------------------------------------ *)
(* Passes *)

let check ~pins (op : Ops.op) outcome =
  if op.Ops.pinned then Pins.diff ~expected:(Hashtbl.find_opt pins op.Ops.name) outcome else None

let attempt f = try Ok (f ()) with e -> Error (Printexc.to_string e)

(* Run the thunks an operation returned, outside any timed region. *)
let observe ~pins op plain traced =
  match plain with
  | Error e -> Error e
  | Ok observe -> (
      match attempt observe with
      | Error e -> Error e
      | Ok (outcome, accesses) -> (
          let traced_differs =
            match traced with
            | None -> None
            | Some (Error e) -> Some ("traced: " ^ e)
            | Some (Ok observe) -> (
                match attempt observe with
                | Error e -> Some ("traced: " ^ e)
                | Ok outcome' when outcome' <> outcome ->
                    Some "the decomposed call's outcome differs from the plain call's"
                | Ok _ -> None)
          in
          match traced_differs with
          | Some d -> Error d
          | None -> (
              match check ~pins op outcome with None -> Ok accesses | Some d -> Error d)))

type tally = {
  attempted : int;
  failures : (string * string) list;  (* operation, reason *)
}

type sample = {
  mutable times : float list;
  mutable scaled : float list;  (* the same times at the reference speed *)
  mutable words : float list;
  mutable accesses : int;
}

(* One untimed pass over every operation, checked like the timed ones.
   The first run of an operation in a process is 10-30% slower than the
   next ones (the heap grows to its working size). *)
let warm_up ~pins ~compact ops =
  Array.fold_left
    (fun failures (op : Ops.op) ->
      if compact then Gc.compact ();
      match observe ~pins op (attempt op.Ops.run) None with
      | Ok _ -> failures
      | Error e -> (op.Ops.name, e) :: failures)
    [] ops
  |> List.rev

(* The untraced pass: operations round-robin, each at least once, until
   [seconds] have passed, calling [between_passes] after each pass. The
   calibration loop runs between operations, in proportion to their
   time; each run's time is scaled to the reference speed by the median
   of the loops that ran next after it. *)
let measure ~pins ~seconds ~compact ?(between_passes = ignore) calib ops =
  let n = Array.length ops in
  let samples = Array.init n (fun _ -> { times = []; scaled = []; words = []; accesses = 0 }) in
  let failures = ref [] and uncalibrated = ref [] in
  let calibrate paid =
    if paid <> [] then begin
      let speed = Calib.reference_s /. median paid in
      List.iter (fun (s, dt) -> s.scaled <- (dt *. speed) :: s.scaled) !uncalibrated;
      uncalibrated := []
    end
  in
  let t_start = Span.now_ns () in
  let i = ref 0 in
  while !i < n || seconds_since t_start < seconds do
    let k = !i mod n in
    let op = ops.(k) in
    if k = 0 && !i > 0 then between_passes ();
    if compact then Gc.compact ();
    let w0 = Gc.minor_words () and t0 = Span.now_ns () in
    let plain = attempt op.Ops.run in
    let dt = seconds_since t0 and words = Gc.minor_words () -. w0 in
    let s = samples.(k) in
    s.times <- dt :: s.times;
    s.words <- words :: s.words;
    uncalibrated := (s, dt) :: !uncalibrated;
    (match observe ~pins op plain None with
    | Ok accesses -> s.accesses <- accesses
    | Error e -> failures := (op.Ops.name, e) :: !failures);
    Calib.owe calib dt;
    calibrate (Calib.pay calib);
    incr i
  done;
  if !uncalibrated <> [] then calibrate (Calib.settle calib);
  ({ attempted = !i; failures = List.rev !failures }, samples)

(* The traced pass: after the warm-up, each operation plainly (timed as a
   whole), then decomposed under spans with a counting sink, then its
   calibration runs; whole passes until [seconds] have passed. Returns
   the number of passes, the wall time the top-level spans should cover,
   and each operation's fastest plain run. *)
let traced_pass ~pins ~seconds ~compact ops =
  let l = Ops.layers () in
  let span name f = Span.with_ l.Ops.spans name f in
  let t_start = Span.now_ns () in
  let warm_failures = span "warmup" (fun () -> warm_up ~pins ~compact ops) in
  let failures = ref [] and attempted = ref (Array.length ops) and passes = ref 0 in
  let plain_s = Array.make (Array.length ops) infinity in
  let t_measure = Span.now_ns () in
  while !passes = 0 || seconds_since t_measure < seconds do
    Array.iteri
      (fun k (op : Ops.op) ->
        if compact then span "harness.gc" Gc.compact;
        let t0 = Span.now_ns () in
        let plain = span "untraced" (fun () -> attempt op.Ops.run) in
        plain_s.(k) <- Float.min plain_s.(k) (seconds_since t0);
        if compact then span "harness.gc" Gc.compact;
        let traced = span "traced" (fun () -> attempt (fun () -> op.Ops.traced l)) in
        span "harness.check" (fun () ->
            incr attempted;
            match observe ~pins op plain (Some traced) with
            | Ok _ -> ()
            | Error e -> failures := (op.Ops.name, e) :: !failures);
        span "aux" (fun () -> op.Ops.aux l))
      ops;
    incr passes
  done;
  ( { attempted = !attempted; failures = warm_failures @ List.rev !failures },
    l,
    !passes,
    seconds_since t_start,
    Array.to_list plain_s )

(* ------------------------------------------------------------------ *)
(* Metrics *)

type metric = { m_name : string; value : float; unit : string }

let m m_name unit value = { m_name; value; unit }

(* An operation's time is the median of its runs at the reference
   speed. *)
let end_to_end ~setup_s samples =
  let per_op f = Array.to_list (Array.map f samples) in
  let wall_s = List.fold_left ( +. ) 0.0 (per_op (fun s -> median s.scaled)) in
  let words = List.fold_left ( +. ) 0.0 (per_op (fun s -> median s.words)) in
  let accesses = Array.fold_left (fun acc s -> acc + s.accesses) 0 samples in
  let top_heap_bytes = (Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8) in
  [
    m "wall_s" "s" wall_s;
    m "accesses_per_s" "1/s" (ratio (float_of_int accesses) wall_s);
    m "alloc_mwords" "Mwords" (words /. 1e6);
    m "top_heap_mb" "MB" (float_of_int top_heap_bytes /. 1e6);
    m "setup_s" "s" setup_s;
  ]

let per_layer ~setup_s ~events (l : Ops.layers) ~passes ~wall_s ~plain_s =
  let totals = Span.reduce l.Ops.spans in
  let per = float_of_int passes in
  let self name = (Span.find totals name).Span.self_s /. per in
  let total name = (Span.find totals name).Span.total_s /. per in
  let st = l.Ops.stats and c = l.Ops.counts in
  let n ?(unit_ = "count") name v = m name unit_ (float_of_int v /. per) in
  let accesses = float_of_int (Sim.Stats.instrumented_accesses st) /. per in
  let msgs = float_of_int c.Ops.msg_sends and rtx = float_of_int c.Ops.retransmits in
  let hits = float_of_int st.Sim.Stats.cache_hits in
  let op_ms = List.map (fun s -> s *. 1000.0) plain_s in
  [
    m "op_p50_ms" "ms" (percentile 0.50 op_ms);
    m "op_p99_ms" "ms" (percentile 0.99 op_ms);
    m "instrument.binary_ms" "ms" (1000.0 *. self "instrument.binary");
    m "instrument.analyze_ms" "ms" (1000.0 *. self "instrument.analyze");
    m "instrument.mhp_ms" "ms" (1000.0 *. self "instrument.mhp");
    m "backends.create_ms" "ms" (1000.0 *. self "backends.create");
    m "sim.run_s" "s" (self "sim.run");
    m "sim.ns_per_access" "ns" (ratio (1e9 *. self "sim.run") accesses);
    m "sim.words_per_access" "words"
      (ratio ((Span.find totals "sim.run").Span.self_words /. per) accesses);
    n "sim.proc_blocks" c.Ops.proc_blocks;
    n "net.messages" c.Ops.msg_sends;
    n ~unit_:"bytes" "net.bytes" c.Ops.msg_bytes;
    n "transport.retransmits" c.Ops.retransmits;
    n "transport.acks" c.Ops.acks;
    n "transport.dup_suppressed" st.Sim.Stats.dup_suppressed;
    m "transport.useful_frac" "frac" (ratio msgs (msgs +. rtx));
    n "lrc.read_faults" st.Sim.Stats.read_faults;
    n "lrc.write_faults" st.Sim.Stats.write_faults;
    n "lrc.pages_fetched" st.Sim.Stats.pages_fetched;
    n "lrc.diffs_created" st.Sim.Stats.diffs_created;
    n ~unit_:"words" "lrc.diff_words" st.Sim.Stats.diff_words;
    n "cc.bus_transactions" c.Ops.bus;
    n ~unit_:"words" "cc.bus_words" st.Sim.Stats.bus_words;
    m "cc.hit_frac" "frac" (ratio hits (hits +. float_of_int st.Sim.Stats.cache_misses));
    n "cc.invalidations" st.Sim.Stats.invalidations;
    n "cc.updates_applied" st.Sim.Stats.updates_applied;
    n "access.shared" (Sim.Stats.shared_accesses st);
    n "access.private" st.Sim.Stats.private_accesses;
    n "access.elided" st.Sim.Stats.elided_checks;
    m "access.detect_s" "s" ((l.Ops.detect_on_s -. l.Ops.detect_off_s) /. per);
    n "detector.interval_comparisons" st.Sim.Stats.interval_comparisons;
    n "detector.concurrent_pairs" st.Sim.Stats.concurrent_pairs;
    n "detector.overlapping_pairs" st.Sim.Stats.overlapping_pairs;
    n "detector.bitmap_comparisons" st.Sim.Stats.bitmap_comparisons;
    m "detector.useful_frac" "frac"
      (ratio
         (float_of_int st.Sim.Stats.overlapping_pairs)
         (float_of_int st.Sim.Stats.concurrent_pairs));
    m "oracle.ms" "ms" (1000.0 *. self "oracle");
    n "oracle.events" l.Ops.oracle_events;
    m "oracle.mwords" "Mwords" ((Span.find totals "oracle").Span.self_words /. per /. 1e6);
    m "trace.record_s" "s" (total "trace.record" -. (l.Ops.unrecorded_s /. per));
    n "trace.events" l.Ops.trace_events;
    n ~unit_:"bytes" "trace.log_bytes" l.Ops.log_bytes;
    m "trace.bytes_per_event" "bytes"
      (ratio (float_of_int l.Ops.log_bytes) (float_of_int l.Ops.trace_events));
    m "trace.decode_s" "s" (total "trace.decode");
    m "trace.replay_s" "s" (total "trace.replay");
    m "workload.generate_ms" "ms" (1000.0 *. setup_s);
    m "workload.events" "count" (float_of_int events);
    m "trace_overhead_frac" "frac" (ratio (total "traced") (total "untraced") -. 1.0);
    m "traced.unattributed_frac" "frac"
      (ratio (wall_s -. Span.top_level_s l.Ops.spans) wall_s);
  ]

(* ------------------------------------------------------------------ *)
(* Output *)

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else if Float.is_finite v then Printf.sprintf "%.17g" v
  else "0"

let host_json ~rev =
  Printf.sprintf {|{"nproc": %d, "ocaml": %S, "rev": %S, "domains": 1}|}
    (Domain.recommended_domain_count ()) Sys.ocaml_version rev

let print_result run metrics =
  let failed = List.length run.failures in
  let fields =
    List.map
      (fun x -> Printf.sprintf {|%S: {"value": %s, "unit": %S}|} x.m_name (json_number x.value) x.unit)
      metrics
  in
  Printf.printf {|{"correct": %b, "attempted": %d, "failed": %d, "metrics": {%s}}|}
    (failed = 0 && run.attempted > 0)
    run.attempted failed (String.concat ", " fields);
  print_newline ()

let summarize ~workload run metrics =
  List.iter (fun (op, e) -> Printf.eprintf "FAILED %s: %s\n" op e) run.failures;
  Printf.eprintf "%s: %d attempted, %d failed, failed_frac %g\n" workload run.attempted
    (List.length run.failures)
    (ratio (float_of_int (List.length run.failures)) (float_of_int run.attempted));
  List.iter (fun x -> Printf.eprintf "  %-32s %16.6g %s\n" x.m_name x.value x.unit) metrics

let out_dir = Filename.concat "perfbench" "out"

let write_spans ~host ~workload ~seed (l : Ops.layers) ~passes ~wall_s =
  if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
  let path = Filename.concat out_dir (Printf.sprintf "%s-seed%d.json" workload seed) in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      Printf.fprintf oc
        "{\n  \"host\": %s,\n  \"workload\": %S,\n  \"seed\": %d,\n  \"passes\": %d,\n  \"wall_s\": %s,\n  \"top_level_s\": %s,\n  \"self_time\": ["
        host workload seed passes (json_number wall_s)
        (json_number (Span.top_level_s l.Ops.spans));
      List.iteri
        (fun i (name, (t : Span.total)) ->
          Printf.fprintf oc
            "%s\n    {\"name\": %S, \"count\": %d, \"total_s\": %s, \"self_s\": %s, \"self_mwords\": %s}"
            (if i = 0 then "" else ",")
            name t.Span.count (json_number t.Span.total_s) (json_number t.Span.self_s)
            (json_number (t.Span.self_words /. 1e6)))
        (Span.reduce l.Ops.spans);
      output_string oc "\n  ],\n  \"spans\": [";
      Span.write l.Ops.spans oc;
      output_string oc "\n  ]\n}\n");
  Printf.eprintf "spans: %s\n" path

(* ------------------------------------------------------------------ *)
(* Modes *)

let find_workload name =
  match List.find_opt (fun w -> w.name = name) workloads with
  | Some w -> w
  | None ->
      Printf.eprintf "unknown workload %S (known: %s)\n" name
        (String.concat ", " (List.map (fun w -> w.name) workloads));
      exit 2

(* Set-up is timed in rounds, each repeating it for at least
   [setup_round_s] (a paper workload's set-up takes microseconds) and
   scaled to the reference speed by a calibration loop after it;
   [setup_rounds] rounds before the first operation. The untraced pass
   times another round after every pass, so the median per set-up comes
   from more than one of the host's speed phases. *)
let setup w ~seed calib =
  let times = ref [] and result = ref None in
  let round () =
    let reps = ref 0 and t0 = Span.now_ns () in
    while !reps = 0 || seconds_since t0 < setup_round_s do
      result := Some (w.setup ~seed);
      incr reps
    done;
    let per_rep = seconds_since t0 /. float_of_int !reps in
    let speed = Calib.reference_s /. median (Calib.settle calib) in
    times := (per_rep *. speed) :: !times
  in
  for _ = 1 to setup_rounds do
    round ()
  done;
  (Option.get !result, round, fun () -> median !times)

let bench ~pins ~rev ~workload ~seed ~seconds ~trace =
  let w = find_workload workload in
  let host = host_json ~rev in
  Printf.printf "perfbench host %s workload %s seed %d trace %b\n%!" host workload seed trace;
  let calib = Calib.create () in
  let (ops, events), setup_again, setup_s = setup w ~seed calib in
  if trace then begin
    let run, l, passes, wall_s, plain_s = traced_pass ~pins ~seconds ~compact:w.compact ops in
    let metrics = per_layer ~setup_s:(setup_s ()) ~events l ~passes ~wall_s ~plain_s in
    write_spans ~host ~workload ~seed l ~passes ~wall_s;
    summarize ~workload run metrics;
    print_result run metrics
  end
  else begin
    let run, samples =
      measure ~pins ~seconds ~compact:w.compact ~between_passes:setup_again calib ops
    in
    if Array.length ops <= 24 then
      Array.iteri
        (fun k s ->
          let show ts = String.concat " " (List.rev_map (Printf.sprintf "%.3f") ts) in
          Printf.eprintf "  %-24s %3d runs, s: %s; at reference speed: %s; median %.3f Mwords\n"
            ops.(k).Ops.name (List.length s.times) (show s.times) (show s.scaled)
            (median s.words /. 1e6))
        samples;
    Printf.eprintf "  calibration: %d loops, median %.4f s\n" (List.length calib.Calib.samples)
      (median calib.Calib.samples);
    let metrics = end_to_end ~setup_s:(setup_s ()) samples in
    summarize ~workload run metrics;
    print_result run metrics
  end

let pinned_workloads = [ "dsm-paper"; "bus-paper"; "record-replay" ]

(* Run every pinned operation once and record its outcome. *)
let write_pins path =
  let entries =
    List.concat_map
      (fun name ->
        let ops, _ = (find_workload name).setup ~seed:0 in
        Array.to_list ops
        |> List.sort (fun (a : Ops.op) b -> compare a.Ops.name b.Ops.name)
        |> List.map (fun (op : Ops.op) ->
               Printf.eprintf "pinning %s\n%!" op.Ops.name;
               let outcome, _ = op.Ops.run () () in
               (op.Ops.name, outcome)))
      pinned_workloads
  in
  Pins.save path entries
    ~header:
      [
        "Deterministic outcome of every pinned perfbench operation.";
        "Regenerate with: python3 perfbench/run.py --write-pins";
      ]

(* A perturbed expectation must make the operation fail: the pin check
   is live, not vacuous. *)
let self_test ~pins =
  let ops, _ = (find_workload "dsm-paper").setup ~seed:0 in
  let op = List.find (fun (o : Ops.op) -> o.Ops.name = "lu/lrc/p8") (Array.to_list ops) in
  let failed_frac pins =
    let run, _ = measure ~pins ~seconds:0.0 ~compact:true (Calib.create ()) [| op |] in
    summarize ~workload:"self-test" run [];
    float_of_int (List.length run.failures) /. float_of_int run.attempted
  in
  let perturbed = Hashtbl.copy pins in
  let bump (k, v) = if k = "checksum" then (k, string_of_int (int_of_string v + 1)) else (k, v) in
  Hashtbl.replace perturbed op.Ops.name (List.map bump (Hashtbl.find pins op.Ops.name));
  let pinned = failed_frac pins and bumped = failed_frac perturbed in
  Printf.printf "self-test: failed_frac %g with the pinned expectation, %g with a perturbed one\n"
    pinned bumped;
  exit (if pinned = 0.0 && bumped > 0.0 then 0 else 1)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 20.0 and trace = ref 0 in
  let rev = ref "unknown" and pins_path = Filename.concat "perfbench" "pins.txt" in
  let mode = ref `Bench in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME dsm-paper, bus-paper, fuzz or record-replay");
      ("--seed", Arg.Set_int seed, "N input seed (default 1)");
      ("--seconds", Arg.Set_float seconds, "S measurement time (default 20)");
      ("--trace", Arg.Set_int trace, "0|1 untraced end-to-end pass, or traced per-layer pass");
      ("--rev", Arg.Set_string rev, "REV source revision stamped into the result");
      ("--write-pins", Arg.Unit (fun () -> mode := `Write_pins), " record the pinned outcomes");
      ("--self-test", Arg.Unit (fun () -> mode := `Self_test), " check that a drifted outcome fails");
    ]
  in
  let usage = "perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]" in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  match !mode with
  | `Write_pins -> write_pins pins_path
  | `Self_test -> self_test ~pins:(Pins.load pins_path)
  | `Bench ->
      if !workload = "" || (!trace <> 0 && !trace <> 1) then begin
        prerr_endline usage;
        exit 2
      end;
      bench ~pins:(Pins.load pins_path) ~rev:!rev ~workload:!workload ~seed:!seed
        ~seconds:!seconds ~trace:(!trace = 1)
