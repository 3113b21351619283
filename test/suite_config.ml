(* Coherence.Config.check, the one place a run configuration is judged:
   every setting it rejects, each with a one-line message, and the four
   effective values it returns. *)

let check = Alcotest.check

let test_check_table () =
  let base = Coherence.Config.default in
  let faults fault = { base with Coherence.Config.fault } in
  let plan ?(drop = 0.0) ?(duplicate = 0.0) ?(reorder = 0.0) ?(partitions = []) () =
    { Sim.Fault.drop; duplicate; reorder; partitions }
  in
  let cut p_a p_b p_from_ns p_until_ns =
    plan ~partitions:[ { Sim.Fault.p_a; p_b; p_from_ns; p_until_ns } ] ()
  in
  List.iter
    (fun (label, nprocs, cfg, needle) ->
      match Coherence.Config.check ~nprocs cfg with
      | _ -> Alcotest.failf "%s: accepted" label
      | exception Invalid_argument msg ->
          check Alcotest.bool (label ^ ": " ^ msg) true
            (Testutil.contains msg needle && not (String.contains msg '\n')))
    [
      ("0 processors", 0, base, "processor count 0");
      ("257 processors", 257, base, "processor count 257");
      ("drop 1.5", 4, faults (plan ~drop:1.5 ()), "drop probability");
      ("duplicate NaN", 4, faults (plan ~duplicate:Float.nan ()), "duplicate probability");
      ("reorder -0.5", 4, faults (plan ~reorder:(-0.5) ()), "reorder probability");
      ("inverted partition window", 4, faults (cut 0 1 100 0), "partition window");
      ("partition from -1 ns", 4, faults (cut 0 1 (-1) 5), "partition window");
      ("partition endpoint 9 of 4", 4, faults (cut 0 9 0 100), "names no link");
      ("partition endpoint 4 of 4", 4, faults (cut 4 0 0 100), "names no link");
      ("partition endpoint -1", 4, faults (cut (-1) 0 0 100), "names no link");
      ("partition 1,1", 4, faults (cut 1 1 0 100), "names no link");
      ( "negative retry cap",
        4,
        { base with Coherence.Config.transport = Some { Sim.Transport.max_retries = -1 } },
        "retry cap" );
      ( "retry cap above the largest",
        4,
        {
          base with
          Coherence.Config.transport =
            Some { Sim.Transport.max_retries = Sim.Transport.max_retry_cap + 1 };
        },
        "retry cap" );
      ( "mesi with a drop",
        4,
        { (faults (plan ~drop:0.1 ())) with Coherence.Config.backend = "mesi" },
        "lrc backend" );
      ( "dragon with a partition",
        4,
        { (faults (cut 0 1 0 100)) with Coherence.Config.backend = "dragon" },
        "lrc backend" );
      ( "mesi with the transport",
        4,
        {
          base with
          Coherence.Config.backend = "mesi";
          transport = Some Sim.Transport.default_config;
        },
        "lrc backend" );
      ("GC cadence 0", 4, { base with Coherence.Config.gc_epochs = Some 0 }, "GC cadence");
    ];
  (* accepted: both processor-count bounds and a partition between the
     last processor and the first *)
  List.iter
    (fun (nprocs, cfg) -> ignore (Coherence.Config.check ~nprocs cfg))
    [ (1, base); (256, base); (4, faults (cut 3 0 0 max_int)) ];
  (* the effective values *)
  let effective ?(nprocs = 4) cfg = Coherence.Config.check ~nprocs cfg in
  let transport cfg = (effective cfg).Coherence.Config.transport in
  let retries = Option.map (fun (t : Sim.Transport.config) -> t.Sim.Transport.max_retries) in
  check (Alcotest.option Alcotest.int) "faults turn the transport on" (Some 20)
    (retries (transport (faults (plan ~drop:0.1 ()))));
  check (Alcotest.option Alcotest.int) "a chosen retry cap is kept" (Some 5)
    (retries
       (transport
          { (faults (cut 0 1 0 10)) with Coherence.Config.transport = Some { max_retries = 5 } }));
  check (Alcotest.option Alcotest.int) "a clean wire needs no transport" None
    (retries (transport base));
  let diffs backend protocol =
    (effective
       { base with Coherence.Config.backend; protocol; stores_from_diffs = true })
      .Coherence.Config.stores_from_diffs
  in
  check Alcotest.bool "stores_from_diffs under lrc multi-writer" true
    (diffs "lrc" Coherence.Config.Multi_writer);
  check Alcotest.bool "no stores_from_diffs under lrc single-writer" false
    (diffs "lrc" Coherence.Config.Single_writer);
  check Alcotest.bool "no stores_from_diffs on a bus" false
    (diffs "mesi" Coherence.Config.Multi_writer);
  let sites backend =
    (effective { base with Coherence.Config.backend; retain_sites = true })
      .Coherence.Config.retain_sites
  in
  check Alcotest.bool "retain_sites on lrc" true (sites "lrc");
  check Alcotest.bool "no retain_sites on a bus" false (sites "dragon");
  let gc backend protocol =
    (effective { base with Coherence.Config.backend; protocol; gc_epochs = Some 2 })
      .Coherence.Config.gc_epochs
  in
  check (Alcotest.option Alcotest.int) "gc_epochs under lrc multi-writer" (Some 2)
    (gc "lrc" Coherence.Config.Multi_writer);
  check (Alcotest.option Alcotest.int) "no gc_epochs under lrc single-writer" None
    (gc "lrc" Coherence.Config.Single_writer);
  check (Alcotest.option Alcotest.int) "no gc_epochs under lrc home-based" None
    (gc "lrc" Coherence.Config.Home_based);
  check (Alcotest.option Alcotest.int) "no gc_epochs on a bus" None
    (gc "mesi" Coherence.Config.Multi_writer);
  let lossy = faults (plan ~drop:0.2 ~reorder:0.1 ()) in
  check Alcotest.bool "checking twice changes nothing" true
    (effective (effective lossy) = effective lossy)

let suite =
  [ ("coherence:config", [ Alcotest.test_case "check table" `Quick test_check_table ]) ]
