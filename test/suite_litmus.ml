(* Memory-model litmus assertions, per protocol — the section 6.4 story
   made executable: LRC exhibits SC-forbidden outcomes exactly where
   synchronization is missing, sequential consistency (the mesi bus)
   never does, and proper locking restores SC outcomes under every
   protocol. *)

let check = Alcotest.check

let lrc_protocols =
  [
    ("single-writer", Coherence.Config.Single_writer);
    ("multi-writer", Coherence.Config.Multi_writer);
    ("home-based", Coherence.Config.Home_based);
  ]

(* a machine is a backend and a protocol; the sequentially consistent
   one is the mesi bus, which ignores the protocol *)
let lrc protocol = ("lrc", protocol)
let sc = ("mesi", Coherence.Config.Single_writer)

(* a faster grid than the default for test time *)
let grid = [| 0.0; 250_000.0; 2_000_000.0 |]

let obs ?(grid = grid) (backend, protocol) test outcome =
  Litmus.observable ~backend ~protocol ~grid test outcome

let test_late_publish_weak_under protocol () =
  check Alcotest.bool "LRC shows the stale read" true
    (obs (lrc protocol) Litmus.message_passing_late_publish [ ("r1", 1); ("r2", 0) ])

let test_late_publish_forbidden_under_sc () =
  check Alcotest.bool "SC never shows the stale read" false
    (obs ~grid:Litmus.default_grid sc Litmus.message_passing_late_publish
       [ ("r1", 1); ("r2", 0) ])

let test_mp_weak_forbidden_under_sc () =
  check Alcotest.bool "SC forbids r1=1,r2=0" false
    (obs ~grid:Litmus.default_grid sc Litmus.message_passing [ ("r1", 1); ("r2", 0) ])

let test_mp_fresh_observable_under_sc () =
  check Alcotest.bool "SC can observe both writes" true
    (obs ~grid:Litmus.default_grid sc Litmus.message_passing [ ("r1", 1); ("r2", 1) ])

let test_locked_mp_never_weak protocol () =
  let outcomes = Litmus.explore ~protocol ~grid Litmus.message_passing_synchronized in
  let weak = List.sort compare [ ("r1", 1); ("r2", 0) ] in
  check Alcotest.bool "locking forbids the weak outcome" false
    (List.mem weak (List.map (List.sort compare) outcomes));
  check Alcotest.bool "and the synchronized outcome is observable" true
    (obs (lrc protocol) Litmus.message_passing_synchronized [ ("r1", 1); ("r2", 1) ])

let test_sb_weak_under protocol () =
  check Alcotest.bool "LRC shows store buffering" true
    (obs (lrc protocol) Litmus.store_buffering [ ("r1", 0); ("r2", 0) ])

let test_sb_weak_forbidden_under_sc () =
  check Alcotest.bool "SC forbids r1=0,r2=0" false
    (obs ~grid:Litmus.default_grid sc Litmus.store_buffering [ ("r1", 0); ("r2", 0) ])

let test_coherence_never_backwards (backend, protocol) () =
  let outcomes =
    Litmus.explore ~backend ~protocol ~grid:Litmus.default_grid Litmus.coherence_rr
  in
  let backwards = List.sort compare [ ("r1", 2); ("r2", 1) ] in
  check Alcotest.bool "reads never go backwards" false
    (List.mem backwards (List.map (List.sort compare) outcomes))

(* ------------------------------------------------------------------ *)
(* Protocol-stress kernels: detector == oracle under every LRC
   protocol, with the per-kernel racy-address counts pinned by the
   table shared with suite_cc (Testutil.kernel_expected_races). The
   kernel bodies self-check the values they read, so a wrong answer out
   of the diff cache, the interval GC or a lock handoff fails the run
   itself. *)

let addr_list = Testutil.addr_list

let test_gc_kernel_checksum_stable () =
  (* interval GC is a storage policy: running the same kernel with and
     without it must end in the same memory image *)
  let with_gc = Litmus.run_kernel Litmus.gc_interval_rerequest in
  let without =
    Litmus.run_kernel
      { Litmus.gc_interval_rerequest with Litmus.k_cfg = Fun.id }
  in
  check Alcotest.int "checksum unchanged by GC" without.Litmus.checksum
    with_gc.Litmus.checksum;
  check addr_list "races unchanged by GC" without.Litmus.detected with_gc.Litmus.detected

let test_run_rejects_bad_delays () =
  Alcotest.check_raises "delay per processor"
    (Invalid_argument "Litmus.run: delay per processor") (fun () ->
      ignore (Litmus.run ~delays:[| 0.0 |] Litmus.message_passing))

let suite =
  [
    ( "litmus",
      List.concat_map
        (fun (name, protocol) ->
          [
            Alcotest.test_case (name ^ " late-publish weak") `Quick
              (test_late_publish_weak_under protocol);
            Alcotest.test_case (name ^ " locked MP never weak") `Quick
              (test_locked_mp_never_weak protocol);
            Alcotest.test_case (name ^ " SB weak") `Quick (test_sb_weak_under protocol);
            Alcotest.test_case (name ^ " coherence") `Quick
              (test_coherence_never_backwards (lrc protocol));
          ])
        lrc_protocols
      @ [
          Alcotest.test_case "SC forbids late-publish weak" `Quick
            test_late_publish_forbidden_under_sc;
          Alcotest.test_case "SC forbids MP weak" `Quick test_mp_weak_forbidden_under_sc;
          Alcotest.test_case "SC observes MP fresh" `Quick test_mp_fresh_observable_under_sc;
          Alcotest.test_case "SC forbids SB weak" `Quick test_sb_weak_forbidden_under_sc;
          Alcotest.test_case "SC coherence" `Quick (test_coherence_never_backwards sc);
          Alcotest.test_case "bad delays rejected" `Quick test_run_rejects_bad_delays;
        ] );
    ( "litmus:kernels",
      List.concat_map
        (fun (name, protocol) ->
          Testutil.kernel_cases ~label:name ~run:(fun kernel ->
              Litmus.run_kernel ~protocol kernel))
        lrc_protocols
      @ [
          Alcotest.test_case "GC leaves checksum and races unchanged" `Quick
            test_gc_kernel_checksum_stable;
        ] );
  ]
