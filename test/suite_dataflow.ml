(* Tests for the register-transfer IR and the provenance data-flow pass:
   lattice laws, transfer functions, the worklist fixpoint on looping
   CFGs, redundant-check batching, the lockset warnings the MHP pairs
   give, and the per-app results the static elimination derives from
   the synthetic CFGs. *)

let check = Alcotest.check

open Instrument

(* ------------------------------------------------------------------ *)
(* Lattice laws                                                        *)

let gen_prov =
  let open QCheck.Gen in
  let regions = list_size (int_range 0 3) (oneofl [ "a"; "b"; "c"; "d" ]) in
  oneof
    [
      return Dataflow.Stack;
      return Dataflow.Static;
      return Dataflow.Private_heap;
      map (fun names -> Dataflow.Shared_heap (Dataflow.Regions.of_list names)) regions;
      return Dataflow.Unknown;
    ]

let arb_prov = QCheck.make ~print:(Format.asprintf "%a" Dataflow.pp_prov) gen_prov

let prop_join_commutative =
  QCheck.Test.make ~name:"prov join is commutative" ~count:200
    QCheck.(pair arb_prov arb_prov)
    (fun (a, b) -> Dataflow.prov_equal (Dataflow.join a b) (Dataflow.join b a))

let prop_join_associative =
  QCheck.Test.make ~name:"prov join is associative" ~count:200
    QCheck.(triple arb_prov arb_prov arb_prov)
    (fun (a, b, c) ->
      Dataflow.prov_equal
        (Dataflow.join a (Dataflow.join b c))
        (Dataflow.join (Dataflow.join a b) c))

let prop_join_idempotent =
  QCheck.Test.make ~name:"prov join is idempotent" ~count:200 arb_prov (fun a ->
      Dataflow.prov_equal (Dataflow.join a a) a)

let prop_join_top =
  QCheck.Test.make ~name:"Unknown absorbs every join" ~count:200 arb_prov (fun a ->
      Dataflow.prov_equal (Dataflow.join a Dataflow.Unknown) Dataflow.Unknown)

(* ------------------------------------------------------------------ *)
(* Transfer functions                                                  *)

let test_transfer () =
  let open Ir in
  let s = Dataflow.initial_state in
  let s = Dataflow.transfer_op s (malloc_shared ~dst:0 "grid") in
  let s = Dataflow.transfer_op s (malloc_private ~dst:1 "arena") in
  let s = Dataflow.transfer_op s (mov ~dst:2 ~src:0) in
  let s = Dataflow.transfer_op s (lea ~dst:3 (Reg 1) ~offset:64) in
  let s = Dataflow.transfer_op s (lea ~dst:4 (Fp 8)) in
  let s = Dataflow.transfer_op s (load ~dst:5 (Reg 0) ~site:"ptr") in
  let prov = Alcotest.testable Dataflow.pp_prov Dataflow.prov_equal in
  check prov "dsm_malloc result" (Dataflow.Shared_heap (Dataflow.Regions.singleton "grid"))
    (Dataflow.lookup s 0);
  check prov "private malloc result" Dataflow.Private_heap (Dataflow.lookup s 1);
  check prov "mov copies provenance"
    (Dataflow.Shared_heap (Dataflow.Regions.singleton "grid"))
    (Dataflow.lookup s 2);
  check prov "lea keeps the region" Dataflow.Private_heap (Dataflow.lookup s 3);
  check prov "lea of a stack slot" Dataflow.Stack (Dataflow.lookup s 4);
  check prov "pointer loaded from memory" Dataflow.Unknown (Dataflow.lookup s 5);
  check prov "undefined register" Dataflow.Unknown (Dataflow.lookup s 9)

let test_transfer_locks () =
  let open Ir in
  let s = Dataflow.initial_state in
  let s = Dataflow.transfer_op s (acquire 3) in
  let s = Dataflow.transfer_op s (acquire 7) in
  let s = Dataflow.transfer_op s (release 3) in
  check (Alcotest.list Alcotest.int) "must-hold lockset" [ 7 ]
    (Dataflow.Intset.elements s.Dataflow.locks)

(* ------------------------------------------------------------------ *)
(* Fixpoint on a looping CFG                                           *)

let test_fixpoint_loop_joins_regions () =
  (* a loop body swaps two pointers to different shared allocations: the
     fixpoint must terminate and both registers must converge to the
     union of the two regions *)
  let open Ir in
  let p =
    proc ~name:"swap" ~entry:"head"
      [
        block "head"
          [ malloc_shared ~dst:0 "red"; malloc_shared ~dst:1 "black" ]
          ~succs:[ "loop" ];
        block "loop"
          [ mov ~dst:2 ~src:0; mov ~dst:0 ~src:1; mov ~dst:1 ~src:2 ]
          ~succs:[ "loop"; "exit" ];
        block "exit" [ store (Reg 0) ~site:"st" ];
      ]
  in
  let states = Dataflow.fixpoint p in
  let at_exit = Hashtbl.find states "exit" in
  let both = Dataflow.Regions.of_list [ "red"; "black" ] in
  let prov = Alcotest.testable Dataflow.pp_prov Dataflow.prov_equal in
  check prov "r0 joins both regions" (Dataflow.Shared_heap both)
    (Dataflow.lookup at_exit 0);
  check prov "r1 joins both regions" (Dataflow.Shared_heap both)
    (Dataflow.lookup at_exit 1)

let test_fixpoint_lockset_intersects () =
  (* two branches acquire different locks; only the common one is
     must-hold at the join *)
  let open Ir in
  let p =
    proc ~name:"branchy" ~entry:"e"
      [
        block "e" [ malloc_shared ~dst:0 "g" ] ~succs:[ "l"; "r" ];
        block "l" [ acquire 1; acquire 2 ] ~succs:[ "j" ];
        block "r" [ acquire 1; acquire 3 ] ~succs:[ "j" ];
        block "j" [ store (Reg 0) ~site:"st" ];
      ]
  in
  let at_join = Hashtbl.find (Dataflow.fixpoint p) "j" in
  check (Alcotest.list Alcotest.int) "intersection at the join" [ 1 ]
    (Dataflow.Intset.elements at_join.Dataflow.locks)

let test_unreachable_block () =
  let open Ir in
  let p =
    proc ~name:"dead" ~entry:"e"
      [ block "e" [ malloc_shared ~dst:0 "g" ]; block "orphan" [ store (Reg 0) ~site:"st" ] ]
  in
  let a =
    List.find (fun a -> a.Dataflow.a_block = "orphan") (Dataflow.analyze p)
  in
  check Alcotest.bool "orphan block is unreachable" false a.Dataflow.a_reachable

(* ------------------------------------------------------------------ *)
(* Redundant-check batching                                            *)

let accesses_of ops = Dataflow.analyze (Ir.proc ~name:"p" ~entry:"b" [ Ir.block "b" ops ])

let find_site site accesses = List.find (fun a -> a.Dataflow.a_site = site) accesses

let test_batching_same_page () =
  let open Ir in
  let accesses =
    accesses_of
      [
        malloc_shared ~dst:0 "g";
        load (Reg 0) ~stride:8 ~count:10 ~site:"first";
        store (Reg 0) ~stride:8 ~count:10 ~site:"second";
      ]
  in
  (* 10 stride-8 words span one page: the first access checks it, the
     other 9 batch; the store's 10 all batch onto the load's check *)
  check Alcotest.int "intra-op batching" 9 (find_site "first" accesses).Dataflow.a_batched;
  check Alcotest.int "cross-op batching" 10 (find_site "second" accesses).Dataflow.a_batched

let test_batching_page_spread () =
  let open Ir in
  let accesses =
    accesses_of
      [ malloc_shared ~dst:0 "g"; load (Reg 0) ~stride:4096 ~count:10 ~site:"spread" ]
  in
  check Alcotest.int "page-stride accesses never batch" 0
    (find_site "spread" accesses).Dataflow.a_batched

let test_batching_cleared_by_redefinition () =
  let open Ir in
  let accesses =
    accesses_of
      [
        malloc_shared ~dst:0 "g";
        load (Reg 0) ~site:"before";
        malloc_shared ~dst:0 "h";
        load (Reg 0) ~site:"after";
      ]
  in
  check Alcotest.int "redefinition invalidates the dominating check" 0
    (find_site "after" accesses).Dataflow.a_batched

let test_batching_cleared_by_sync () =
  let open Ir in
  let accesses =
    accesses_of
      [
        malloc_shared ~dst:0 "g";
        load (Reg 0) ~site:"before";
        acquire 1;
        load (Reg 0) ~site:"after";
      ]
  in
  check Alcotest.int "synchronization invalidates the dominating check" 0
    (find_site "after" accesses).Dataflow.a_batched

let test_private_accesses_not_counted () =
  let open Ir in
  let accesses =
    accesses_of
      [ malloc_private ~dst:0 "arena"; load (Reg 0) ~stride:8 ~count:10 ~site:"private" ]
  in
  check Alcotest.int "proven-private accesses need no checks to batch" 0
    (find_site "private" accesses).Dataflow.a_batched

(* ------------------------------------------------------------------ *)
(* The lockset warnings (Mhp.warnings)                                 *)

let report_of proc = Mhp.analyze (Binary.make ~name:"t" ~procs:[ proc ] ())
let warnings_of proc = Mhp.warnings (report_of proc)

let test_lint_flags_unlocked_store () =
  let open Ir in
  let p =
    proc ~name:"p" ~entry:"e"
      [
        block "e" [ malloc_shared ~dst:0 "acc" ] ~succs:[ "racy"; "locked" ];
        block "racy" [ store (Reg 0) ~site:"racy_store" ] ~succs:[ "tail" ];
        block "locked"
          [ acquire 1; store (Reg 0) ~site:"locked_store"; release 1 ]
          ~succs:[ "tail" ];
        block "tail" [ barrier ];
      ]
  in
  match warnings_of p with
  | [ w ] ->
      check Alcotest.string "the unlocked side is reported" "racy_store" w.Mhp.w_site;
      check Alcotest.string "against the locked conflict" "locked_store" w.Mhp.w_other_site;
      check (Alcotest.list Alcotest.int) "with its lockset" [ 1 ] w.Mhp.w_other_locks
  | ws -> Alcotest.fail (Printf.sprintf "expected exactly one warning, got %d" (List.length ws))

let test_lint_barrier_discipline_silent () =
  (* all-empty locksets: barrier-phase discipline, not lint's business *)
  let open Ir in
  let p =
    proc ~name:"p" ~entry:"e"
      [
        block "e" [ malloc_shared ~dst:0 "grid" ] ~succs:[ "a"; "b" ];
        block "a" [ store (Reg 0) ~site:"writer_a" ] ~succs:[ "t" ];
        block "b" [ store (Reg 0) ~site:"writer_b" ] ~succs:[ "t" ];
        block "t" [ barrier ];
      ]
  in
  check Alcotest.int "no warning without a lock-discipline mismatch" 0
    (List.length (warnings_of p))

let test_lint_barrier_separates_phases () =
  (* the unlocked store happens in a different barrier phase than the
     locked accesses: no statically concurrent pair, no warning *)
  let open Ir in
  let p =
    proc ~name:"p" ~entry:"e"
      [
        block "e" [ malloc_shared ~dst:0 "acc"; store (Reg 0) ~site:"init"; barrier ]
          ~succs:[ "locked" ];
        block "locked"
          [ acquire 1; store (Reg 0) ~site:"locked_store"; release 1 ]
      ]
  in
  check Alcotest.int "barrier separation suppresses the pair" 0
    (List.length (warnings_of p))

let test_lint_disjoint_regions_silent () =
  let open Ir in
  let p =
    proc ~name:"p" ~entry:"e"
      [
        block "e" [ malloc_shared ~dst:0 "red"; malloc_shared ~dst:1 "black" ]
          ~succs:[ "w" ];
        block "w"
          [ store (Reg 0) ~site:"unlocked"; acquire 1; store (Reg 1) ~site:"locked";
            release 1 ]
      ]
  in
  check Alcotest.int "different regions never pair" 0 (List.length (warnings_of p))

let test_lint_disjoint_footprints_silent () =
  (* one region, but the unlocked store covers bytes [0, 8) and the
     locked one [64, 72): no overlap, no pair *)
  let open Ir in
  let p =
    proc ~name:"p" ~entry:"e"
      [
        block "e" [ malloc_shared ~dst:0 "acc" ] ~succs:[ "racy"; "locked" ];
        block "racy" [ store (Reg 0) ~site:"head_store" ] ~succs:[ "tail" ];
        block "locked"
          [ acquire 1; store (Reg 0) ~offset:64 ~site:"tail_store"; release 1 ]
          ~succs:[ "tail" ];
        block "tail" [ barrier ];
      ]
  in
  check Alcotest.int "disjoint footprints never pair" 0 (List.length (warnings_of p))

let test_lint_unknown_pointer_flagged () =
  (* register 7 is never defined: its provenance is unknown, so the
     store may address every shared region *)
  let open Ir in
  let p =
    proc ~name:"p" ~entry:"e"
      [
        block "e" [ malloc_shared ~dst:0 "acc" ] ~succs:[ "wild"; "locked" ];
        block "wild" [ store (Reg 7) ~site:"wild_store" ] ~succs:[ "tail" ];
        block "locked"
          [ acquire 1; store (Reg 0) ~site:"locked_store"; release 1 ]
          ~succs:[ "tail" ];
        block "tail" [ barrier ];
      ]
  in
  match warnings_of p with
  | [ w ] ->
      check Alcotest.string "the unknown-pointer store is reported" "wild_store" w.Mhp.w_site;
      check Alcotest.string "on the locked side's region" "acc" w.Mhp.w_region;
      check Alcotest.string "against the locked conflict" "locked_store" w.Mhp.w_other_site
  | ws -> Alcotest.fail (Printf.sprintf "expected exactly one warning, got %d" (List.length ws))

let test_lint_disjoint_locksets_not_flagged () =
  (* both sides lock, under different locks: a lock-mismatch pair in
     the report, but neither side holds an empty lockset *)
  let open Ir in
  let p =
    proc ~name:"p" ~entry:"e"
      [
        block "e" [ malloc_shared ~dst:0 "acc" ] ~succs:[ "one"; "two" ];
        block "one" [ acquire 1; store (Reg 0) ~site:"under_1"; release 1 ] ~succs:[ "tail" ];
        block "two" [ acquire 2; store (Reg 0) ~site:"under_2"; release 2 ] ~succs:[ "tail" ];
        block "tail" [ barrier ];
      ]
  in
  let r = report_of p in
  check Alcotest.bool "the pair is a lock mismatch" true
    (List.exists
       (fun q ->
         q.Mhp.p_severity = Mhp.Mismatch
         && q.Mhp.p_a.Mhp.s_site = "under_1"
         && q.Mhp.p_b.Mhp.s_site = "under_2")
       r.Mhp.pairs);
  check Alcotest.int "no empty-lockset warning" 0 (List.length (Mhp.warnings r))

(* ------------------------------------------------------------------ *)
(* Whole-binary invariants (qcheck over random binaries)              *)

let gen_binary =
  let open QCheck.Gen in
  map
    (fun ((fp, gp, lib, cvm), (shared_count, private_count, stride, locked)) ->
      let open Ir in
      let body =
        [
          load (Fp 0) ~count:fp ~site:"fp";
          store (Gp "bss") ~count:gp ~site:"gp";
          load (Reg 0) ~stride ~count:shared_count ~site:"shared_ld";
          store (Reg 0) ~stride ~count:shared_count ~site:"shared_st";
          load (Reg 1) ~count:private_count ~site:"private_ld";
        ]
      in
      let body = if locked then (acquire 1 :: body) @ [ release 1 ] else body in
      let p =
        proc ~name:"p" ~entry:"e"
          [
            block "e" [ malloc_shared ~dst:0 "g"; malloc_private ~dst:1 "a" ] ~succs:[ "w" ];
            block "w" body ~succs:[ "w"; "x" ];
            block "x" [ barrier ];
          ]
      in
      Binary.make ~name:"rand" ~library:lib ~cvm ~procs:[ p ] ())
    (pair
       (quad (int_range 0 40) (int_range 0 40) (int_range 0 200) (int_range 0 50))
       (quad (int_range 1 60) (int_range 0 30) (oneofl [ 8; 64; 4096 ]) bool))

let arb_binary = QCheck.make gen_binary

let prop_sites_match_classification =
  QCheck.Test.make ~name:"instrumented_sites length = classification.instrumented" ~count:100
    arb_binary (fun binary ->
      let r = Static_analysis.analyze binary in
      List.length r.Static_analysis.sites
      = r.Static_analysis.classification.Static_analysis.instrumented)

let prop_eliminated_fraction_bounded =
  QCheck.Test.make ~name:"eliminated_fraction stays within [0,1]" ~count:100 arb_binary
    (fun binary ->
      let c = Static_analysis.classify binary in
      let f = Static_analysis.eliminated_fraction c in
      f >= 0.0 && f <= 1.0)

let prop_scale_bounded =
  QCheck.Test.make ~name:"check_cost_scale stays within (0,1]" ~count:100 arb_binary
    (fun binary ->
      let r = Static_analysis.analyze binary in
      let s = r.Static_analysis.check_cost_scale in
      s > 0.0 && s <= 1.0)

(* ------------------------------------------------------------------ *)
(* The shipped applications                                            *)

let binary_of name = (Apps.Registry.make ~scale:Apps.Registry.Small name).Apps.App.binary ()
let analyze_app name = Static_analysis.analyze (binary_of name)
let lint_app name = Mhp.warnings (Mhp.analyze (binary_of name))

let test_apps_race_free_lint_clean () =
  List.iter
    (fun name ->
      match lint_app name with
      | [] -> ()
      | w :: _ ->
          Alcotest.fail
            (Format.asprintf "%s should lint clean, got: %a" name Mhp.pp_warning w))
    [ "sor"; "fft"; "lu" ]

let test_water_bug_flagged () =
  match lint_app "water" with
  | [ w ] ->
      check Alcotest.string "the racy potential update" "water:pot_racy" w.Mhp.w_site;
      check Alcotest.bool "reported by its load" true (w.Mhp.w_kind = Binary.Load);
      check Alcotest.string "conflicts with the locked version" "water:pot_locked"
        w.Mhp.w_other_site
  | ws ->
      Alcotest.fail (Printf.sprintf "water: expected exactly one warning, got %d" (List.length ws))

let test_tsp_bound_read_flagged () =
  match lint_app "tsp" with
  | [ w ] ->
      check Alcotest.string "the unsynchronized bound read" "tsp:bound_prune" w.Mhp.w_site;
      check Alcotest.string "conflicts with the locked update" "tsp:bound_update"
        w.Mhp.w_other_site
  | ws ->
      Alcotest.fail (Printf.sprintf "tsp: expected exactly one warning, got %d" (List.length ws))

let test_apps_batching_scale () =
  List.iter
    (fun name ->
      let r = analyze_app name in
      if r.Static_analysis.batched_checks <= 0 then
        Alcotest.fail (name ^ ": no checks batched");
      let s = r.Static_analysis.check_cost_scale in
      if not (s > 0.0 && s < 1.0) then
        Alcotest.fail (Printf.sprintf "%s: scale %.3f outside (0,1)" name s))
    [ "fft"; "sor"; "tsp"; "water"; "lu" ]

let test_apps_elimination_ordering () =
  (* the paper's Table 2 ordering of eliminated fractions must survive
     the computed analysis (LU slots between SOR and Water) *)
  let fraction name =
    Static_analysis.eliminated_fraction (analyze_app name).Static_analysis.classification
  in
  let ranked = List.map (fun n -> (n, fraction n)) [ "fft"; "sor"; "lu"; "water"; "tsp" ] in
  let rec monotone = function
    | (a, fa) :: ((b, fb) :: _ as rest) ->
        if fa <= fb then
          Alcotest.fail (Printf.sprintf "%s (%.4f) should eliminate more than %s (%.4f)" a fa b fb);
        monotone rest
    | _ -> ()
  in
  monotone ranked

(* The cost model's input, pinned exactly (%h) on the five applications,
   the nine litmus kernels, and a digest over 200 generated programs
   (seed 1), so no change to the static passes moves it unnoticed. *)
let scale_hex binary = Printf.sprintf "%h" (Static_analysis.analyze binary).check_cost_scale

let test_check_cost_scale_pinned () =
  List.iter
    (fun (name, want) -> check Alcotest.string name want (scale_hex (binary_of name)))
    [
      ("fft", "0x1.40bc52640bc52p-1");
      ("sor", "0x1.8c30c30c30c31p-1");
      ("tsp", "0x1.23796ac9dfd13p-1");
      ("water", "0x1.6a2e8ba2e8ba3p-1");
      ("lu", "0x1.4c20563b48c2p-1");
    ];
  let kernels =
    [
      ("diff-cache-reuse", "0x1.43c3c3c3c3c3cp-2");
      ("gc-interval-rerequest", "0x1.8p-2");
      ("write-notice-invalid", "0x1.4p-1");
      ("lock-handoff-chain", "0x1.8p-1");
      ("lock-chained-publish", "0x1p+0");
      ("false-sharing-writers", "0x1.cp-2");
      ("true-sharing-overlap", "0x1.cp-2");
      ("multi-reader-race", "0x1.4p-1");
      ("partially-locked", "0x1.8p-1");
    ]
  in
  check Alcotest.int "every kernel pinned" (List.length kernels) (List.length Litmus.kernels);
  List.iter
    (fun (k : Litmus.kernel) ->
      check Alcotest.string k.Litmus.k_name (List.assoc k.Litmus.k_name kernels)
        (scale_hex (k.Litmus.k_binary ())))
    Litmus.kernels;
  let generated =
    List.init 200 (fun index ->
        let g = Workload.Generator.generate_seeded ~seed:1 ~index () in
        scale_hex (Workload.Program.binary g.Workload.Generator.program))
  in
  check Alcotest.string "200 generated programs" "c448af98dec32f8398ca74e4f4e9e60d"
    (Digest.to_hex (Digest.string (String.concat ";" generated)))

let suite =
  [
    ( "dataflow",
      [
        QCheck_alcotest.to_alcotest prop_join_commutative;
        QCheck_alcotest.to_alcotest prop_join_associative;
        QCheck_alcotest.to_alcotest prop_join_idempotent;
        QCheck_alcotest.to_alcotest prop_join_top;
        Alcotest.test_case "transfer functions" `Quick test_transfer;
        Alcotest.test_case "lock transfer" `Quick test_transfer_locks;
        Alcotest.test_case "looping fixpoint joins regions" `Quick
          test_fixpoint_loop_joins_regions;
        Alcotest.test_case "locksets intersect at joins" `Quick test_fixpoint_lockset_intersects;
        Alcotest.test_case "unreachable block" `Quick test_unreachable_block;
        Alcotest.test_case "batching: same page" `Quick test_batching_same_page;
        Alcotest.test_case "batching: page spread" `Quick test_batching_page_spread;
        Alcotest.test_case "batching: redefinition" `Quick test_batching_cleared_by_redefinition;
        Alcotest.test_case "batching: synchronization" `Quick test_batching_cleared_by_sync;
        Alcotest.test_case "batching: private exempt" `Quick test_private_accesses_not_counted;
        Alcotest.test_case "lint: unlocked store flagged" `Quick test_lint_flags_unlocked_store;
        Alcotest.test_case "lint: barrier discipline silent" `Quick
          test_lint_barrier_discipline_silent;
        Alcotest.test_case "lint: barrier separates phases" `Quick
          test_lint_barrier_separates_phases;
        Alcotest.test_case "lint: disjoint regions silent" `Quick
          test_lint_disjoint_regions_silent;
        Alcotest.test_case "lint: disjoint footprints silent" `Quick
          test_lint_disjoint_footprints_silent;
        Alcotest.test_case "lint: unknown pointer flagged" `Quick
          test_lint_unknown_pointer_flagged;
        Alcotest.test_case "lint: disjoint locksets not flagged" `Quick
          test_lint_disjoint_locksets_not_flagged;
        QCheck_alcotest.to_alcotest prop_sites_match_classification;
        QCheck_alcotest.to_alcotest prop_eliminated_fraction_bounded;
        QCheck_alcotest.to_alcotest prop_scale_bounded;
        Alcotest.test_case "apps: race-free lint clean" `Quick test_apps_race_free_lint_clean;
        Alcotest.test_case "apps: water bug flagged" `Quick test_water_bug_flagged;
        Alcotest.test_case "apps: tsp bound read flagged" `Quick test_tsp_bound_read_flagged;
        Alcotest.test_case "apps: batching scale" `Quick test_apps_batching_scale;
        Alcotest.test_case "apps: elimination ordering" `Quick test_apps_elimination_ordering;
        Alcotest.test_case "check_cost_scale pinned" `Quick test_check_cost_scale_pinned;
      ] );
  ]
