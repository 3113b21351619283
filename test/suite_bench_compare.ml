(* The benchmark regression gate's decision logic (Compare_core), on
   synthetic runs. The CLI is a thin wrapper, so these cover everything
   that decides the exit code. *)

let check = Alcotest.check

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  go 0

let entry ?(wall = 1.0) ?(races = 3) ?(checksum = 0xbeef) ?(sim = 5_000) ?(bytes = 4096)
    ?(nprocs = 8) ?(backend = "lrc") ?(extras = []) name =
  {
    Compare_core.key = (name, "small", nprocs, true, false, "single-writer", backend);
    wall_s = wall;
    sim_time_ns = sim;
    races;
    mem_checksum = checksum;
    bytes;
    extras;
  }

let gate ?threshold_pct ?ignore_wall baseline current =
  Compare_core.compare_runs ?threshold_pct ?ignore_wall ~baseline ~current ()

let test_identical_passes () =
  let run = [ entry "sor"; entry "fft" ] in
  let r = gate run run in
  check Alcotest.bool "identical runs pass" true (Compare_core.passed r);
  check Alcotest.int "both entries compared" 2 r.Compare_core.compared

let test_missing_baseline_entry_fails () =
  (* a sweep point that silently disappears from the current run must
     fail the gate, not print a note *)
  let baseline = [ entry "sor"; entry "fft" ] and current = [ entry "sor" ] in
  let r = gate baseline current in
  check Alcotest.bool "missing entry fails" false (Compare_core.passed r);
  check Alcotest.int "exactly one failure" 1 r.Compare_core.failures;
  check Alcotest.bool "the failure names the missing point" true
    (List.exists
       (fun l ->
         String.length l >= 4 && String.sub l 0 4 = "FAIL"
         && contains l "missing from current run")
       r.Compare_core.lines)

let test_extra_current_entry_passes () =
  (* the other direction — the suite grew — is fine *)
  let baseline = [ entry "sor" ] and current = [ entry "sor"; entry "fft" ] in
  let r = gate baseline current in
  check Alcotest.bool "extra current entry passes" true (Compare_core.passed r)

let test_wall_regression_fails () =
  let baseline = [ entry ~wall:1.0 "sor" ] and current = [ entry ~wall:1.5 "sor" ] in
  let r = gate ~threshold_pct:15.0 baseline current in
  check Alcotest.bool "50% slower fails a 15% threshold" false (Compare_core.passed r)

let test_wall_noise_floor () =
  (* huge ratio, tiny absolute drift: under the 50 ms floor, never fails *)
  let baseline = [ entry ~wall:0.010 "sor" ] and current = [ entry ~wall:0.040 "sor" ] in
  let r = gate ~threshold_pct:15.0 baseline current in
  check Alcotest.bool "sub-noise-floor drift passes" true (Compare_core.passed r)

let test_ignore_wall () =
  let baseline = [ entry ~wall:1.0 "sor" ] and current = [ entry ~wall:10.0 "sor" ] in
  let r = gate ~ignore_wall:true baseline current in
  check Alcotest.bool "--ignore-wall skips the wall check" true (Compare_core.passed r)

let test_deterministic_drift_fails_despite_ignore_wall () =
  let baseline = [ entry ~races:3 "sor" ] and current = [ entry ~races:4 "sor" ] in
  let r = gate ~ignore_wall:true baseline current in
  check Alcotest.bool "race-count drift fails even with --ignore-wall" false
    (Compare_core.passed r)

let test_checksum_drift_fails () =
  let baseline = [ entry ~checksum:1 "sor" ] and current = [ entry ~checksum:2 "sor" ] in
  check Alcotest.bool "checksum drift fails" false (Compare_core.passed (gate baseline current))

let test_nothing_comparable_fails () =
  let r = gate [ entry "sor" ~nprocs:4 ] [ entry "sor" ~nprocs:8 ] in
  check Alcotest.int "no shared keys" 0 r.Compare_core.compared;
  check Alcotest.bool "an empty comparison never passes" false (Compare_core.passed r)

let fail_lines r =
  List.filter
    (fun l -> String.length l >= 4 && String.sub l 0 4 = "FAIL")
    r.Compare_core.lines

let test_every_drifted_field_reported () =
  (* three counters drift plus the race count: one FAIL line each, so a
     single gate run names the whole divergence *)
  let baseline =
    [ entry ~races:3 ~extras:[ ("messages", 100); ("diffs_created", 7); ("barriers", 4) ] "sor" ]
  in
  let current =
    [ entry ~races:4 ~extras:[ ("messages", 120); ("diffs_created", 9); ("barriers", 4) ] "sor" ]
  in
  let r = gate ~ignore_wall:true baseline current in
  check Alcotest.bool "drift fails" false (Compare_core.passed r);
  check Alcotest.int "one FAIL line per drifted field" 3 (List.length (fail_lines r));
  List.iter
    (fun needle ->
      check Alcotest.bool (needle ^ " named") true
        (List.exists (fun l -> contains l needle) (fail_lines r)))
    [ "race count 3 -> 4"; "messages 100 -> 120"; "diffs_created 7 -> 9" ]

let test_extras_compared_only_when_shared () =
  (* a counter the old baseline never recorded cannot drift; one both
     runs have still gates *)
  let baseline = [ entry ~extras:[ ("messages", 100) ] "sor" ] in
  let current = [ entry ~extras:[ ("messages", 100); ("lock_acquires", 55) ] "sor" ] in
  check Alcotest.bool "new counter in current only passes" true
    (Compare_core.passed (gate ~ignore_wall:true baseline current));
  let current' = [ entry ~extras:[ ("messages", 99); ("lock_acquires", 55) ] "sor" ] in
  let r = gate ~ignore_wall:true baseline current' in
  check Alcotest.bool "shared counter still gates" false (Compare_core.passed r);
  check Alcotest.int "only the shared drift reported" 1 (List.length (fail_lines r))

let test_backend_in_key () =
  (* an entry that moved to a different backend is a different point: no
     shared key, so the gate refuses to call the comparison clean *)
  let baseline = [ entry ~backend:"lrc" "sor" ] in
  let current = [ entry ~backend:"mesi" "sor" ] in
  let r = gate baseline current in
  check Alcotest.int "different backends never match" 0 r.Compare_core.compared;
  (* same backend on both sides still compares *)
  let r' = gate [ entry ~backend:"mesi" "sor" ] [ entry ~backend:"mesi" "sor" ] in
  check Alcotest.bool "same backend compares" true (Compare_core.passed r')

let test_backend_absent_defaults_lrc () =
  (* a pre-v8 baseline has no "backend" field; it must keep matching
     entries recorded as lrc *)
  let json =
    Bench_json.Obj
      [
        ("app", Bench_json.String "sor");
        ("scale", Bench_json.String "small");
        ("nprocs", Bench_json.Int 8);
        ("detect", Bench_json.Bool true);
        ("protocol", Bench_json.String "single-writer");
        ("wall_s", Bench_json.Float 1.0);
        ("sim_time_ns", Bench_json.Int 5000);
        ("races", Bench_json.Int 3);
        ("mem_checksum", Bench_json.Int 48879);
        ("bytes", Bench_json.Int 4096);
      ]
  in
  let e = Compare_core.entry_of_json json in
  let _, _, _, _, _, _, backend = e.Compare_core.key in
  check Alcotest.string "absent backend field reads as lrc" "lrc" backend

let test_old_sim_jobs_field_ignored () =
  (* BENCH files written while the sharded engine existed carry
     "sim_jobs": null on every entry, and files written before sweep
     points kept only minor words carry promoted and major words and
     collection counts; no such field is part of the key, so such an
     entry gates like any other *)
  let null_jobs =
    Compare_core.entry_of_json
      (Bench_json.Obj
         [
           ("app", Bench_json.String "sor");
           ("scale", Bench_json.String "small");
           ("nprocs", Bench_json.Int 8);
           ("detect", Bench_json.Bool true);
           ("elide", Bench_json.Bool false);
           ("protocol", Bench_json.String "single-writer");
           ("backend", Bench_json.String "lrc");
           ("sim_jobs", Bench_json.Null);
           ("wall_s", Bench_json.Float 1.0);
           ("sim_time_ns", Bench_json.Int 5000);
           ("races", Bench_json.Int 3);
           ("mem_checksum", Bench_json.Int 48879);
           ("bytes", Bench_json.Int 4096);
           ("promoted_words", Bench_json.Float 4526.0);
           ("major_words", Bench_json.Float 4526.0);
           ("minor_collections", Bench_json.Int 2);
           ("major_collections", Bench_json.Int 0);
         ])
  in
  check Alcotest.bool "a null sim_jobs entry matches" true
    (Compare_core.passed (gate ~ignore_wall:true [ entry "sor" ] [ null_jobs ]))

(* The PR 8 back-compat contract, end to end: a pre-v8 baseline entry
   (no "backend" field, no bus counters) must gate cleanly against a
   current lrc entry that records bus counters — the absent backend
   folds to "lrc" so the keys match, and counters only one side has are
   never compared. *)
let test_pre_v8_baseline_gates_current_lrc () =
  let pre_v8 =
    Compare_core.entry_of_json
      (Bench_json.Obj
         [
           ("app", Bench_json.String "sor");
           ("scale", Bench_json.String "small");
           ("nprocs", Bench_json.Int 8);
           ("detect", Bench_json.Bool true);
           ("protocol", Bench_json.String "single-writer");
           ("wall_s", Bench_json.Float 1.0);
           ("sim_time_ns", Bench_json.Int 5000);
           ("races", Bench_json.Int 3);
           ("mem_checksum", Bench_json.Int 48879);
           ("bytes", Bench_json.Int 4096);
           ("messages", Bench_json.Int 100);
         ])
  in
  let current =
    [
      entry ~backend:"lrc"
        ~extras:[ ("messages", 100); ("bus_transactions", 0); ("invalidations", 0) ]
        "sor";
    ]
  in
  let r = gate ~ignore_wall:true [ pre_v8 ] current in
  check Alcotest.bool "pre-v8 baseline gates a current lrc entry" true
    (Compare_core.passed r);
  check Alcotest.int "the shared key compared" 1 r.Compare_core.compared

let test_bus_counters_compared_only_when_shared () =
  (* baseline recorded before the bus backends existed: a current run's
     bus counters must not be compared against its absence... *)
  let baseline = [ entry ~backend:"mesi" ~extras:[ ("messages", 0) ] "sor" ] in
  let current =
    [ entry ~backend:"mesi" ~extras:[ ("messages", 0); ("bus_transactions", 512) ] "sor" ]
  in
  check Alcotest.bool "bus counter only in current never drifts" true
    (Compare_core.passed (gate ~ignore_wall:true baseline current));
  (* ...but once both files carry the counter, it gates and is named *)
  let baseline' =
    [ entry ~backend:"mesi" ~extras:[ ("messages", 0); ("bus_transactions", 512) ] "sor" ]
  in
  let current' =
    [ entry ~backend:"mesi" ~extras:[ ("messages", 0); ("bus_transactions", 640) ] "sor" ]
  in
  let r = gate ~ignore_wall:true baseline' current' in
  check Alcotest.bool "shared bus counter drift fails" false (Compare_core.passed r);
  check Alcotest.bool "the drifted counter is named" true
    (List.exists (fun l -> contains l "bus_transactions 512 -> 640") (fail_lines r))

let test_extras_parsed_from_json () =
  let json =
    Bench_json.Obj
      [
        ("app", Bench_json.String "sor");
        ("scale", Bench_json.String "small");
        ("nprocs", Bench_json.Int 8);
        ("detect", Bench_json.Bool true);
        ("protocol", Bench_json.String "single-writer");
        ("wall_s", Bench_json.Float 1.0);
        ("sim_time_ns", Bench_json.Int 5000);
        ("races", Bench_json.Int 3);
        ("mem_checksum", Bench_json.Int 48879);
        ("bytes", Bench_json.Int 4096);
        ("messages", Bench_json.Int 100);
        ("barriers", Bench_json.Int 4);
        ("wall_phase", Bench_json.Int 9);
        (* not a known counter: ignored *)
      ]
  in
  let e = Compare_core.entry_of_json json in
  check
    Alcotest.(list (pair string int))
    "known counters harvested in order"
    [ ("messages", 100); ("barriers", 4) ]
    e.Compare_core.extras

let test_host_stamp_ignored () =
  (* records from two commits on two hosts: the stamp (git_rev, jobs,
     host_cores, ocaml_version) is provenance, never compared *)
  let record ~rev ~cores =
    Bench_json.Obj
      [
        ("schema", Bench_json.String "cvm-race-bench/1");
        ("jobs", Bench_json.Int 1);
        ("host_cores", Bench_json.Int cores);
        ("ocaml_version", Bench_json.String "5.1.1");
        ("git_rev", rev);
        ( "entries",
          Bench_json.List
            [
              Bench_json.Obj
                [
                  ("app", Bench_json.String "sor");
                  ("scale", Bench_json.String "small");
                  ("nprocs", Bench_json.Int 8);
                  ("detect", Bench_json.Bool true);
                  ("protocol", Bench_json.String "single-writer");
                  ("wall_s", Bench_json.Float 1.0);
                  ("sim_time_ns", Bench_json.Int 5000);
                  ("races", Bench_json.Int 3);
                  ("mem_checksum", Bench_json.Int 48879);
                  ("bytes", Bench_json.Int 4096);
                ];
            ] );
      ]
  in
  let baseline = Compare_core.entries_of_json (record ~rev:Bench_json.Null ~cores:2) in
  let current =
    Compare_core.entries_of_json (record ~rev:(Bench_json.String "7f62e6d6ba54") ~cores:64)
  in
  check Alcotest.bool "same entries" true (baseline = current);
  check Alcotest.bool "stamp drift passes" true (Compare_core.passed (gate baseline current))

let test_load_failures_are_failure () =
  (* every load failure surfaces as [Failure] with the path prefixed, so
     compare.exe's one handler turns it into a clean usage-error exit *)
  let expect_failure path =
    match Compare_core.load path with
    | _ -> Alcotest.fail "load of a bad input succeeded"
    | exception Failure msg ->
        check Alcotest.bool
          (Printf.sprintf "message names the input: %s" msg)
          true
          (String.length msg > 0 && String.sub msg 0 4 = "/tmp")
  in
  expect_failure "/tmp/cvm_compare_missing.json";
  let malformed = "/tmp/cvm_compare_malformed.json" in
  let oc = open_out malformed in
  output_string oc "{\"schema\": \"not-terminated";
  close_out oc;
  expect_failure malformed;
  Sys.remove malformed

let suite =
  [
    ( "bench-compare",
      [
        Alcotest.test_case "identical runs pass" `Quick test_identical_passes;
        Alcotest.test_case "missing baseline entry fails" `Quick
          test_missing_baseline_entry_fails;
        Alcotest.test_case "extra current entry passes" `Quick test_extra_current_entry_passes;
        Alcotest.test_case "wall regression fails" `Quick test_wall_regression_fails;
        Alcotest.test_case "noise floor" `Quick test_wall_noise_floor;
        Alcotest.test_case "--ignore-wall" `Quick test_ignore_wall;
        Alcotest.test_case "deterministic drift beats --ignore-wall" `Quick
          test_deterministic_drift_fails_despite_ignore_wall;
        Alcotest.test_case "checksum drift fails" `Quick test_checksum_drift_fails;
        Alcotest.test_case "nothing comparable fails" `Quick test_nothing_comparable_fails;
        Alcotest.test_case "every drifted field reported" `Quick
          test_every_drifted_field_reported;
        Alcotest.test_case "extras compared only when shared" `Quick
          test_extras_compared_only_when_shared;
        Alcotest.test_case "backend part of the key" `Quick test_backend_in_key;
        Alcotest.test_case "old sim_jobs field ignored" `Quick test_old_sim_jobs_field_ignored;
        Alcotest.test_case "absent backend defaults to lrc" `Quick
          test_backend_absent_defaults_lrc;
        Alcotest.test_case "pre-v8 baseline gates current lrc entry" `Quick
          test_pre_v8_baseline_gates_current_lrc;
        Alcotest.test_case "bus counters compared only when shared" `Quick
          test_bus_counters_compared_only_when_shared;
        Alcotest.test_case "extras parsed from JSON" `Quick test_extras_parsed_from_json;
        Alcotest.test_case "host stamp and git_rev ignored" `Quick test_host_stamp_ignored;
        Alcotest.test_case "load failures normalize to Failure" `Quick
          test_load_failures_are_failure;
      ] );
  ]
