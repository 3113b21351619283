(* Differential performance-equivalence suite.

   The golden file (golden/perf_equiv.json) was recorded from the
   pre-optimization protocol core. Every combo run here must reproduce
   that recorded outcome — race set, memory checksum, simulated time and
   wire totals — exactly, which is what makes the hot-path optimization a
   pure performance change.

   Two layers:
   - the combo matrix: a handful of pinned combos (one per combo family)
     give named, fast-failing coverage, and the FULL combo space then
     runs fanned out with Parallel.map — every combo, every
     `dune runtest`, not a random sample;
   - cross-version replay: binary trace logs recorded by the
     pre-optimization build replay against the current build and must
     produce identical event streams, races and checksums. Their headers
     have since been re-encoded in the current format; the event bytes
     are as recorded. *)

let check = Alcotest.check

let result_t =
  Alcotest.testable Equiv_combos.pp_result ( = )

(* `dune runtest` runs with the test directory as cwd; `dune exec
   test/test_main.exe` runs from the workspace root *)
let golden_file name =
  let local = Filename.concat "golden" name in
  if Sys.file_exists local then local else Filename.concat "test/golden" name

let golden = lazy (Equiv_combos.load_golden (golden_file "perf_equiv.json"))

let golden_for label =
  match List.assoc_opt label (Lazy.force golden) with
  | Some result -> result
  | None ->
      Alcotest.fail
        (Printf.sprintf
           "combo %S has no golden entry — regenerate with `dune exec \
            test/gen_equiv_golden.exe` from a known-good build (see docs/BENCH.md)"
           label)

let run_label label =
  match Equiv_combos.find label with
  | Some combo -> Equiv_combos.run combo
  | None -> Alcotest.fail (Printf.sprintf "no combo labelled %S" label)

let test_combo label () = check result_t label (golden_for label) (run_label label)

(* One pinned combo per family: base protocol grid, detection-flag
   variants, lossy wire, alternate scheduling seed, and the bus machine
   on the one app that evicts and writes back. These always run, so
   a behavior change in any family fails even if the random sample
   happens to miss it. *)
let pinned =
  [
    "fft-sw-p4";
    "sor-mw-p8";
    "water-hb-p4";
    "water-mw-diffs-p4";
    "tsp-first-race-p4";
    "sor-nodetect-p4";
    "tsp-drop20-net1312-p4";
    "water-seed99-p8";
    "water-mesi-p4";
  ]

let test_golden_is_complete () =
  (* every combo must have a golden: an unrecorded combo is a hole the
     sampler cannot see into *)
  let golden = Lazy.force golden in
  let missing =
    List.filter_map
      (fun (c : Equiv_combos.combo) ->
        if List.mem_assoc c.Equiv_combos.label golden then None
        else Some c.Equiv_combos.label)
      Equiv_combos.all
  in
  check (Alcotest.list Alcotest.string) "combos without goldens" [] missing

let test_full_matrix () =
  (* the whole combo space, one task per combo. [Equiv_combos.run]
     builds the app and cluster inside the task and the golden lookup
     happens back on this domain, so the matrix is safe at any job
     count; on a many-core host it finishes in wall-clock over jobs. *)
  let combos = Equiv_combos.all in
  let results = Parallel.map ~jobs:(Parallel.default_jobs ()) Equiv_combos.run combos in
  let diverged =
    List.filter_map
      (fun ((c : Equiv_combos.combo), actual) ->
        let label = c.Equiv_combos.label in
        if golden_for label = actual then None else Some label)
      (List.combine combos results)
  in
  check (Alcotest.list Alcotest.string) "combos diverging from pre-optimization golden" []
    diverged

(* ------------------------------------------------------------------ *)
(* Interval GC is a storage policy: with any cadence, the race set must
   match the no-GC golden. Timing and wire totals legitimately differ
   (the GC's validation traffic is real). The memory checksum is only
   required to match for barrier-structured apps: the extra traffic
   shifts lock-grant order, and an app that accumulates floats in lock
   arrival order (water's force merge) then rounds differently at the
   last few ULPs — a schedule change, not a value bug. *)

let test_gc_matches_golden ~checksum label () =
  let combo =
    match Equiv_combos.find label with
    | Some c -> c
    | None -> Alcotest.fail (Printf.sprintf "no combo labelled %S" label)
  in
  let gced =
    {
      combo with
      Equiv_combos.cfg = { combo.Equiv_combos.cfg with Coherence.Config.gc_epochs = Some 2 };
    }
  in
  let expected = golden_for label and actual = Equiv_combos.run gced in
  check (Alcotest.list Alcotest.string) "race set unchanged by GC"
    expected.Equiv_combos.races actual.Equiv_combos.races;
  if checksum then
    check Alcotest.int "memory checksum unchanged by GC"
      expected.Equiv_combos.mem_checksum actual.Equiv_combos.mem_checksum

(* ------------------------------------------------------------------ *)
(* Cross-version replay: logs recorded by the pre-optimization build    *)

let test_pre_opt_replay log () =
  let result = Core.Trace_run.replay (Core.Trace_run.load (golden_file log)) in
  (match result.Core.Trace_run.rr_divergence with
  | None -> ()
  | Some d ->
      Alcotest.fail
        (Format.asprintf "pre-optimization log diverged: %a" Trace.Replay.pp_divergence d));
  check Alcotest.bool "races match recorded run" true result.Core.Trace_run.rr_races_match;
  check Alcotest.bool "checksum matches recorded run" true
    result.Core.Trace_run.rr_checksum_match

(* golden/sharded_sor.cvmt is a format v5 log, recorded with --sim-jobs 1
   before the sharded engine was removed: its events carry that engine's
   times, so it must be refused, not replayed into a divergence. This
   build decodes v7 only, so the version refuses it. *)
let test_sharded_log_rejected () =
  match Core.Trace_run.replay (Core.Trace_run.load (golden_file "sharded_sor.cvmt")) with
  | _ -> Alcotest.fail "a sharded-engine log replayed"
  | exception Trace.Codec.Corrupt msg ->
      check Alcotest.bool "the diagnostic names the retired format" true
        (Testutil.contains msg "format v5 is older")

let suite =
  [
    ( "perf-equiv",
      [ Alcotest.test_case "golden covers every combo" `Quick test_golden_is_complete ]
      @ List.map
          (fun label -> Alcotest.test_case ("pinned " ^ label) `Quick (test_combo label))
          pinned
      @ [ Alcotest.test_case "full combo matrix matches golden" `Quick test_full_matrix ]
      @ List.map
          (fun (label, checksum) ->
            Alcotest.test_case ("gc-differential " ^ label) `Quick
              (test_gc_matches_golden ~checksum label))
          [
            (* barrier-structured apps: bit-identical memory required *)
            ("sor-mw-p4", true);
            ("fft-mw-p8", true);
            (* lock-order-sensitive float accumulation: race set only *)
            ("water-mw-p8", false);
          ]
      @ List.map
          (fun log ->
            Alcotest.test_case ("cross-version replay " ^ log) `Quick
              (test_pre_opt_replay log))
          [ "pre_opt_sor_drop.cvmt"; "pre_opt_water.cvmt"; "pre_opt_tsp.cvmt" ]
      @ [ Alcotest.test_case "sharded-engine log rejected" `Quick test_sharded_log_rejected ] );
  ]
