(* Benchmark harness and the one frontend for batch experiments:
   regenerates every table and figure of the paper's evaluation section,
   the extension experiments and ablations, the machine-readable sweep,
   and Bechamel micro-benchmarks for the constant-time building blocks.

     dune exec bench/main.exe            -- everything, paper scale
     dune exec bench/main.exe -- table1  -- one experiment
     dune exec bench/main.exe -- --small all   -- reduced inputs (CI-sized)
     dune exec bench/main.exe -- sweep --json out.json   -- machine-readable
     dune exec bench/main.exe -- --jobs 4 sweep   -- fan runs over 4 domains

   Every experiment is a fan-out of independent simulation runs, so the
   harness runs them with Parallel.map ([--jobs N], from 1 to
   Parallel.max_jobs, default the host's recommended domain count).
   Results come back in input order and all rendering happens on the
   main domain, so the report and the JSON are identical whatever
   [--jobs] is; only the wall-clock and GC numbers (real measurements)
   move.

   Bad flags, unknown experiments and a --json file that cannot be
   opened end in one line on stderr and exit 2, before any experiment
   runs.

   Absolute numbers come from the simulator's calibrated cost model
   (DESIGN.md section 4); the comparison targets are the *shapes* reported
   in the paper, quoted under each table.

   With [--json FILE] the harness also writes a machine-readable record of
   the run: one entry per (app, nprocs, detect) sweep point with wall-clock
   (monotonic), simulated time, GC allocation counters and wire totals,
   plus the wall-clock of every table/figure section that ran. The schema
   is documented in docs/BENCH.md; bench/compare.exe diffs two such files
   and fails on regression. *)

let ppf = Format.std_formatter

let section_walls : (string * float) list ref = ref []

let current_section = ref ""

let section title =
  current_section := title;
  Format.fprintf ppf "@.=== %s ===@.@." title

(* Wall-clock via the monotonic clock (CLOCK_MONOTONIC under the hood):
   NTP steps and leap smearing cannot corrupt the JSON numbers. *)
let now_s () = Int64.to_float (Monotonic_clock.now ()) /. 1e9

let wall f =
  let t0 = now_s () in
  let result = f () in
  let dt = now_s () -. t0 in
  if !current_section <> "" then section_walls := (!current_section, dt) :: !section_walls;
  Format.fprintf ppf "(%.1fs)@." dt;
  result

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks: the operations the paper argues are cheap *)

let micro_tests () =
  let open Bechamel in
  let nprocs = 8 in
  let vc_a = Proto.Vclock.create nprocs and vc_b = Proto.Vclock.create nprocs in
  Array.iteri (fun i _ -> vc_a.(i) <- i * 3) vc_a;
  Array.iteri (fun i _ -> vc_b.(i) <- (i * 2) + 1) vc_b;
  let words = 512 in
  let bitmap_a = Mem.Bitmap.create words and bitmap_b = Mem.Bitmap.create words in
  List.iter (fun i -> Mem.Bitmap.set bitmap_a ((i * 7) mod words)) (List.init 64 Fun.id);
  List.iter (fun i -> Mem.Bitmap.set bitmap_b ((i * 11) mod words)) (List.init 64 Fun.id);
  let page_size = Sim.Cost.default.Sim.Cost.page_size in
  let twin = Mem.Page.create ~page_size in
  let current = Mem.Page.create ~page_size in
  for i = 0 to 63 do
    Mem.Page.set_int64 current (i * 8) (Int64.of_int i)
  done;
  let diff = Mem.Diff.create ~page:0 ~twin ~current in
  let target = Mem.Page.create ~page_size in
  (* a synthetic barrier epoch: 8 procs x 8 intervals, cross-proc concurrent;
     concurrent-check-list-64 runs [Coherence.Front.plan]'s scan over it *)
  let epoch_intervals =
    List.concat_map
      (fun proc ->
        List.map
          (fun k ->
            let index = k + 1 in
            let vc = Proto.Vclock.create nprocs in
            Proto.Vclock.set vc proc index;
            let interval = Proto.Interval.create ~proc ~index ~vc ~epoch:0 in
            Proto.Interval.add_write_page interval (proc mod 3);
            Proto.Interval.add_read_page interval ((proc + 1) mod 3);
            interval.Proto.Interval.closed <- true;
            interval)
          (List.init 8 Fun.id))
      (List.init nprocs Fun.id)
  in
  let first = List.hd epoch_intervals and tenth = List.nth epoch_intervals 9 in
  (* the bus machine's per-miss cost: 8 processes of 64 advances each on
     one engine, durations differing by process so the queue reorders *)
  let engine_advances () =
    let engine = Sim.Engine.create () in
    for _ = 1 to 8 do
      ignore
        (Sim.Engine.spawn engine (fun pid ->
             for _ = 1 to 64 do
               Sim.Engine.advance engine (1 + pid)
             done))
    done;
    Sim.Engine.run engine
  in
  (* the per-access path with detection on: one processor, a fresh
     machine per call, a warm-up write of 8 words of one page, then 4,096
     read hits and 4,096 write hits over those words *)
  let access_hits backend () =
    let cfg = { Coherence.Config.default with Coherence.Config.backend } in
    let machine = Backends.create ~cfg ~nprocs:1 ~pages:2 () in
    let base = machine.Coherence.Backend.alloc (8 * Mem.Page.word_size) ~name:"hits" in
    machine.Coherence.Backend.run (fun node ->
        for w = 0 to 7 do
          Lrc.Dsm.write_int_at node ~site:"warm" base w 0
        done;
        for i = 0 to 4095 do
          ignore (Lrc.Dsm.read_int_at node ~site:"hit:r" base (i land 7));
          Lrc.Dsm.write_int_at node ~site:"hit:w" base (i land 7) i
        done)
  in
  Test.make_grouped ~name:"micro"
    [
      Test.make ~name:"vclock-compare"
        (Staged.stage (fun () -> Proto.Vclock.concurrent vc_a vc_b));
      Test.make ~name:"interval-precedes"
        (Staged.stage (fun () -> Proto.Interval.precedes first tenth));
      Test.make ~name:"bitmap-intersect"
        (Staged.stage (fun () -> Mem.Bitmap.intersects bitmap_a bitmap_b));
      Test.make ~name:"bitmap-racy-words"
        (Staged.stage (fun () -> Mem.Bitmap.inter_indices bitmap_a bitmap_b));
      Test.make ~name:"diff-create"
        (Staged.stage (fun () -> Mem.Diff.create ~page:0 ~twin ~current));
      Test.make ~name:"diff-apply" (Staged.stage (fun () -> Mem.Diff.apply diff target));
      Test.make ~name:"concurrent-check-list-64"
        (Staged.stage (fun () -> Racedetect.Detector.concurrent_check_list epoch_intervals));
      Test.make ~name:"engine-advance" (Staged.stage engine_advances);
      Test.make ~name:"access-hit-lrc" (Staged.stage (access_hits "lrc"));
      Test.make ~name:"access-hit-mesi" (Staged.stage (access_hits "mesi"));
    ]

let run_micro () =
  let open Bechamel in
  section "Micro-benchmarks (Bechamel, real ns on this host)";
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) () in
  let instance = Toolkit.Instance.monotonic_clock in
  let raw = Benchmark.all cfg [ instance ] (micro_tests ()) in
  let ols = Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |] in
  let results = Analyze.all ols instance raw in
  let rows =
    Hashtbl.fold (fun name v acc -> (name, v) :: acc) results []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  List.iter
    (fun (name, ols_result) ->
      match Analyze.OLS.estimates ols_result with
      | Some (estimate :: _) -> Format.fprintf ppf "%-40s %12.1f ns/run@." name estimate
      | _ -> Format.fprintf ppf "%-40s %12s@." name "n/a")
    rows

(* ------------------------------------------------------------------ *)

let scale = ref Apps.Registry.Paper

(* Coherence backend for the tables/figures and the sweep; the
   separation experiment always runs all three. *)
let backend = ref "lrc"

(* Set once during flag parsing, before any helper domain exists; helpers
   only ever read it. *)
let jobs = ref (Parallel.default_jobs ())

let scale_name () = Apps.Registry.scale_name !scale

let run_table1 () =
  section "Table 1";
  wall (fun () ->
      Core.Report.table1 ppf
        (Core.Experiments.table1 ~scale:!scale ~backend:!backend ~jobs:!jobs ()))

let run_table2 () =
  section "Table 2";
  wall (fun () -> Core.Report.table2 ppf (Core.Experiments.table2 ~scale:!scale ~jobs:!jobs ()))

let run_table3 () =
  section "Table 3";
  wall (fun () ->
      Core.Report.table3 ppf
        (Core.Experiments.table3 ~scale:!scale ~backend:!backend ~jobs:!jobs ()))

let run_figure3 () =
  section "Figure 3";
  wall (fun () ->
      Core.Report.figure3 ppf
        (Core.Experiments.figure3 ~scale:!scale ~backend:!backend ~jobs:!jobs ()))

let run_figure4 () =
  section "Figure 4";
  wall (fun () ->
      (* TSP's branch-and-bound tree is badly load-imbalanced at 2
         processors, which makes the full-scale point very slow to
         simulate; sweep it from 4 as the paper's own TSP curve is the
         noisiest of the four. *)
      let names = [ "fft"; "sor"; "water" ] in
      let rows =
        Core.Experiments.figure4 ~scale:!scale ~names ~backend:!backend ~jobs:!jobs ()
      in
      let tsp =
        Core.Experiments.figure4 ~scale:!scale ~procs:[ 4; 8 ] ~names:[ "tsp" ]
          ~backend:!backend ~jobs:!jobs ()
      in
      Core.Report.figure4 ppf (rows @ tsp))

let run_figure5 () =
  section "Figure 5";
  wall (fun () -> Core.Report.figure5 ppf (Core.Experiments.figure5_both ~jobs:!jobs ()))

let run_ablation () =
  section "Ablation: stores from diffs (section 6.5)";
  wall (fun () ->
      Core.Report.ablation ppf
        (Core.Experiments.stores_from_diffs_ablation_all ~scale:!scale ~jobs:!jobs
           [ "sor"; "water" ]))

let run_retention () =
  section "Ablation: single-run site retention (section 6.1)";
  wall (fun () ->
      Core.Report.retention ppf
        (Core.Experiments.site_retention_ablation_all ~scale:!scale ~jobs:!jobs
           [ "tsp"; "water" ]))

let run_protocols () =
  section "Protocol comparison (single-writer vs multi-writer vs home-based)";
  wall (fun () ->
      Core.Report.protocols ppf
        (Core.Experiments.protocol_comparison_all ~scale:!scale ~jobs:!jobs ()))

let run_faults () =
  section "Fault sweep: report stability over a lossy wire";
  wall (fun () ->
      Core.Report.faults ppf (Core.Experiments.fault_sweep_all ~scale:!scale ~jobs:!jobs ()))

(* ------------------------------------------------------------------ *)
(* The machine-readable sweep: one simulated run per (app, nprocs,
   detect) point, timed and bracketed by the minor-word counter so
   allocation pressure is part of the record. The measurement itself is
   [Core.Experiments.sweep_point] (self-contained, silent), fanned over
   [--jobs] domains; rendering happens here on the main domain, in
   submission order. The word count is domain-local ([Gc.minor_words]),
   so under [--jobs > 1] each point is still billed for its own
   allocation only, and wall-clock includes contention. Those are
   measurement fields, not outcomes: bench/compare.exe treats only the
   deterministic fields as gating. *)

let sweep_entries : Bench_json.t list ref = ref []

let json_of_sweep_point (sp : Core.Experiments.sweep_point) =
  let stats = sp.Core.Experiments.sp_stats in
  let open Bench_json in
  Obj
    [
      ("app", String sp.Core.Experiments.sp_app);
      ("scale", String sp.Core.Experiments.sp_scale);
      ("nprocs", Int sp.Core.Experiments.sp_nprocs);
      ("detect", Bool sp.Core.Experiments.sp_detect);
      ("elide", Bool sp.Core.Experiments.sp_elide);
      ("elided_checks", Int stats.Sim.Stats.elided_checks);
      ("protocol", String sp.Core.Experiments.sp_protocol);
      ("backend", String sp.Core.Experiments.sp_backend);
      ("wall_s", Float sp.Core.Experiments.sp_wall_s);
      ("sim_time_ns", Int sp.Core.Experiments.sp_sim_time_ns);
      ("races", Int sp.Core.Experiments.sp_races);
      ("mem_checksum", Int sp.Core.Experiments.sp_mem_checksum);
      ("messages", Int stats.Sim.Stats.messages);
      ("fragments", Int stats.Sim.Stats.fragments);
      ("bytes", Int stats.Sim.Stats.bytes);
      ("read_notice_bytes", Int stats.Sim.Stats.read_notice_bytes);
      ("bitmap_round_bytes", Int stats.Sim.Stats.bitmap_round_bytes);
      ("diffs_created", Int stats.Sim.Stats.diffs_created);
      ("diffs_gced", Int stats.Sim.Stats.diffs_gced);
      ("pages_fetched", Int stats.Sim.Stats.pages_fetched);
      ("intervals_created", Int stats.Sim.Stats.intervals_created);
      ("interval_comparisons", Int stats.Sim.Stats.interval_comparisons);
      ("bitmaps_requested", Int stats.Sim.Stats.bitmaps_requested);
      ("shared_reads", Int stats.Sim.Stats.shared_reads);
      ("shared_writes", Int stats.Sim.Stats.shared_writes);
      ("private_accesses", Int stats.Sim.Stats.private_accesses);
      ("lock_acquires", Int stats.Sim.Stats.lock_acquires);
      ("barriers", Int stats.Sim.Stats.barriers);
      ("bus_transactions", Int stats.Sim.Stats.bus_transactions);
      ("bus_reads", Int stats.Sim.Stats.bus_reads);
      ("bus_read_x", Int stats.Sim.Stats.bus_read_x);
      ("bus_upgrades", Int stats.Sim.Stats.bus_upgrades);
      ("bus_updates", Int stats.Sim.Stats.bus_updates);
      ("bus_writebacks", Int stats.Sim.Stats.bus_writebacks);
      ("bus_syncs", Int stats.Sim.Stats.bus_syncs);
      ("bus_words", Int stats.Sim.Stats.bus_words);
      ("cache_hits", Int stats.Sim.Stats.cache_hits);
      ("cache_misses", Int stats.Sim.Stats.cache_misses);
      ("cache_evictions", Int stats.Sim.Stats.cache_evictions);
      ("invalidations", Int stats.Sim.Stats.invalidations);
      ("updates_applied", Int stats.Sim.Stats.updates_applied);
      ("minor_words", Float sp.Core.Experiments.sp_minor_words);
    ]

let line_of_sweep_point (sp : Core.Experiments.sweep_point) =
  Printf.sprintf
    "%-6s p=%-3d %-6s %s  %8.2fs wall  %10d ns sim  %9.2e minor words  %d races"
    sp.Core.Experiments.sp_app sp.Core.Experiments.sp_nprocs
    sp.Core.Experiments.sp_backend
    (if sp.Core.Experiments.sp_detect && sp.Core.Experiments.sp_elide then "det+elide"
     else if sp.Core.Experiments.sp_detect then "detect   "
     else "no-detect")
    sp.Core.Experiments.sp_wall_s sp.Core.Experiments.sp_sim_time_ns
    sp.Core.Experiments.sp_minor_words sp.Core.Experiments.sp_races

let sweep_procs : int list option ref = ref None

let run_sweep () =
  section
    (Printf.sprintf "Scale sweep (%s inputs): wall clock, allocation, wire totals"
       (scale_name ()));
  let procs =
    match !sweep_procs with
    | Some procs -> procs
    | None -> ( match !scale with Apps.Registry.Small -> [ 4; 8; 16 ] | _ -> [ 8; 16; 32 ])
  in
  let names =
    (* at the large tier only SOR/FFT/Water have enlarged inputs; TSP
       would silently rerun its paper input, so leave it out *)
    match !scale with
    | Apps.Registry.Large -> [ "fft"; "sor"; "water" ]
    | _ -> Apps.Registry.all_names
  in
  let points =
    List.concat_map
      (fun name ->
        List.map (fun nprocs -> (name, nprocs, true, false, !backend)) procs
        (* one uninstrumented point per app anchors the slowdown, and one
           elision point measures how much the static MHP analysis buys *)
        @ [
            (name, List.hd procs, false, false, !backend);
            (name, List.hd procs, true, true, !backend);
          ])
      names
  in
  wall (fun () ->
      let results =
        Core.Experiments.sweep_points ~clock:now_s ~scale:!scale ~jobs:!jobs points
      in
      List.iter
        (fun sp ->
          sweep_entries := json_of_sweep_point sp :: !sweep_entries;
          Format.fprintf ppf "%s@." (line_of_sweep_point sp))
        results)

(* ------------------------------------------------------------------ *)
(* The separation experiment: the same barrier apps under all three
   backends as p scales. A DSM keeps caches consistent with messages
   (diffs, write notices, bitmap rounds over a wire); a cache-coherent
   bus does it with bus transactions and collects detection bitmaps
   through shared memory. The table puts the two traffic currencies side
   by side — messages/bytes versus bus transactions/words — so the
   paper's "coherency guarantees make online detection cheap" argument
   is visible as data. Points also land in the JSON sweep entries
   (keyed by backend), so compare.exe gates them like any other. *)

let run_separation () =
  section "CC vs DSM separation: consistency traffic as p scales";
  let names = [ "sor"; "water" ] in
  let procs = [ 4; 8; 16 ] in
  let points =
    List.concat_map
      (fun name ->
        List.concat_map
          (fun nprocs -> List.map (fun b -> (name, nprocs, true, false, b)) Backends.all)
          procs)
      names
  in
  wall (fun () ->
      let results =
        Core.Experiments.sweep_points ~clock:now_s ~scale:!scale ~jobs:!jobs points
      in
      Format.fprintf ppf "%-6s %4s %-7s %10s %12s %10s %10s %6s@." "app" "p" "backend"
        "messages" "bytes" "bus-txns" "bus-words" "races";
      List.iter
        (fun (sp : Core.Experiments.sweep_point) ->
          let stats = sp.Core.Experiments.sp_stats in
          sweep_entries := json_of_sweep_point sp :: !sweep_entries;
          Format.fprintf ppf "%-6s %4d %-7s %10d %12d %10d %10d %6d@."
            sp.Core.Experiments.sp_app sp.Core.Experiments.sp_nprocs
            sp.Core.Experiments.sp_backend stats.Sim.Stats.messages
            stats.Sim.Stats.bytes stats.Sim.Stats.bus_transactions
            stats.Sim.Stats.bus_words sp.Core.Experiments.sp_races)
        results)

(* The commit of the working directory's checkout, or null outside one
   (or without git). *)
let git_rev () =
  let ic = Unix.open_process_in "git rev-parse --short=12 HEAD 2>/dev/null" in
  let rev = try input_line ic with End_of_file -> "" in
  match Unix.close_process_in ic with
  | Unix.WEXITED 0 when rev <> "" -> Bench_json.String rev
  | _ -> Bench_json.Null

(* The host stamp: how many points ran at once, on how many cores,
   under which compiler, from which commit. Wall and GC fields are only
   comparable between records whose stamps agree. *)
let write_json path =
  let open Bench_json in
  let v =
    Obj
      [
        ("schema", String "cvm-race-bench/1");
        ("jobs", Int !jobs);
        ("host_cores", Int (Domain.recommended_domain_count ()));
        ("ocaml_version", String Sys.ocaml_version);
        ("git_rev", git_rev ());
        ("scale", String (scale_name ()));
        ("entries", List (List.rev !sweep_entries));
        ( "sections",
          List
            (List.rev_map
               (fun (name, dt) -> Obj [ ("name", String name); ("wall_s", Float dt) ])
               !section_walls) );
      ]
  in
  to_file path v;
  Format.fprintf ppf "@.wrote %s@." path

(* In the order [all] runs them. *)
let experiments =
  [
    ("table1", run_table1);
    ("table2", run_table2);
    ("table3", run_table3);
    ("figure3", run_figure3);
    ("figure4", run_figure4);
    ("figure5", run_figure5);
    ("ablation", run_ablation);
    ("retention", run_retention);
    ("protocols", run_protocols);
    ("faults", run_faults);
    ("sweep", run_sweep);
    ("separation", run_separation);
    ("micro", run_micro);
  ]

let fail fmt = Printf.ksprintf (fun msg -> prerr_endline msg; exit 2) fmt

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let json_path = ref None in
  let rec parse_flags = function
    | "--small" :: rest ->
        scale := Apps.Registry.Small;
        parse_flags rest
    | "--large" :: rest ->
        scale := Apps.Registry.Large;
        parse_flags rest
    | "--backend" :: name :: rest ->
        if not (Backends.known name) then
          fail "unknown backend %S (available: %s)" name (String.concat ", " Backends.all);
        backend := name;
        parse_flags rest
    | "--backend" :: [] -> fail "--backend requires a name (see --list-backends)"
    | "--list-backends" :: _ ->
        List.iter
          (fun name ->
            Printf.printf "%-8s %s\n" name
              (Option.value ~default:"" (Backends.describe name)))
          Backends.all;
        exit 0
    | "--json" :: path :: rest ->
        json_path := Some path;
        parse_flags rest
    | "--json" :: [] -> fail "--json requires a file argument"
    | "--procs" :: spec :: rest ->
        let procs = List.map int_of_string_opt (String.split_on_char ',' spec) in
        if
          List.exists
            (function Some n -> n < 1 || n > Coherence.Config.max_procs | None -> true)
            procs
        then
          fail "--procs requires comma-separated processor counts from 1 to %d, got %S"
            Coherence.Config.max_procs spec;
        sweep_procs := Some (List.filter_map Fun.id procs);
        parse_flags rest
    | "--procs" :: [] -> fail "--procs requires a comma-separated list"
    | "--jobs" :: n :: rest ->
        (match int_of_string_opt n with
        | Some n when n >= 1 && n <= Parallel.max_jobs -> jobs := n
        | _ -> fail "--jobs requires an integer from 1 to %d, got %S" Parallel.max_jobs n);
        parse_flags rest
    | "--jobs" :: [] -> fail "--jobs requires an integer from 1 to %d" Parallel.max_jobs
    | arg :: rest -> arg :: parse_flags rest
    | [] -> []
  in
  let names = match parse_flags args with [] -> [ "all" ] | names -> names in
  let runners =
    List.concat_map
      (fun name ->
        match List.assoc_opt name experiments with
        | Some run -> [ run ]
        | None when name = "all" -> List.map snd experiments
        | None ->
            fail "unknown experiment %S (expected %s|all)" name
              (String.concat "|" (List.map fst experiments)))
      names
  in
  (* Fail on an unwritable --json before any experiment runs, but write
     it only at the end: a channel held open across the run changes the
     word counts the sweep points measure. *)
  let writable path =
    try close_out (open_out_gen [ Open_wronly; Open_creat ] 0o666 path)
    with Sys_error msg -> fail "%s" msg
  in
  Option.iter writable !json_path;
  List.iter (fun run -> run ()) runners;
  Option.iter
    (fun path -> try write_json path with Sys_error msg -> fail "%s" msg)
    !json_path
