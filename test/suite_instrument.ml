(* Tests for the ATOM-analogue: synthetic binaries, the static
   elimination pass (Table 2), and the runtime watch list. *)

let check = Alcotest.check

(* A one-block procedure over [ops]. *)
let proc_of ops = Instrument.Ir.(proc ~name:"p" ~entry:"b" [ block "b" ops ])

let test_classification_rules () =
  let open Instrument in
  (* register 9 is never defined, so its accesses stay instrumented *)
  let p =
    proc_of
      Ir.
        [
          load (Fp 0) ~site:"stack";
          load (Gp "data") ~site:"static";
          load (Reg 9) ~site:"computed_ld";
          store (Reg 9) ~site:"computed_st";
        ]
  in
  let binary = Binary.make ~name:"t" ~library:1 ~cvm:1 ~procs:[ p ] () in
  let c = Static_analysis.classify binary in
  check Alcotest.int "stack" 1 c.Static_analysis.stack;
  check Alcotest.int "static" 1 c.Static_analysis.static_data;
  check Alcotest.int "library" 1 c.Static_analysis.library;
  check Alcotest.int "cvm" 1 c.Static_analysis.cvm;
  check Alcotest.int "instrumented (unknown computed accesses stay)" 2
    c.Static_analysis.instrumented;
  check Alcotest.int "total" 6 (Static_analysis.total c)

let test_proven_private_from_cfg () =
  (* a computed access the data-flow can trace to a private malloc is
     proven private; one reaching a shared malloc stays instrumented *)
  let open Instrument in
  let p =
    Ir.(
      proc ~name:"p" ~entry:"b"
        [
          block "b"
            [
              malloc_private ~dst:0 "arena";
              malloc_shared ~dst:1 "grid";
              load (Reg 0) ~site:"private_ld";
              store (Reg 1) ~site:"shared_st";
            ];
        ])
  in
  let c = Static_analysis.classify (Binary.make ~name:"t" ~procs:[ p ] ()) in
  check Alcotest.int "proven private" 1 c.Static_analysis.proven_private;
  check Alcotest.int "instrumented" 1 c.Static_analysis.instrumented;
  check Alcotest.int "stack" 0 c.Static_analysis.stack

let test_library_always_eliminated () =
  (* library accesses count as library by origin alone, never as stack *)
  let open Instrument in
  let c = Static_analysis.classify (Binary.make ~name:"t" ~library:1 ()) in
  check Alcotest.int "library" 1 c.Static_analysis.library;
  check Alcotest.int "stack" 0 c.Static_analysis.stack

let test_paper_binaries_over_99_percent () =
  List.iter
    (fun name ->
      let app = Apps.Registry.make name in
      let c = Instrument.Static_analysis.classify (app.Apps.App.binary ()) in
      let eliminated = Instrument.Static_analysis.eliminated_fraction c in
      if eliminated < 0.99 then
        Alcotest.fail
          (Printf.sprintf "%s eliminates only %.2f%%" name (100.0 *. eliminated)))
    Apps.Registry.all_names

let test_paper_binary_counts () =
  (* the synthetic images carry the paper's Table 2 section counts *)
  let expect =
    [
      ("fft", (1285, 1496, 124716, 3910, 261));
      ("sor", (342, 1304, 48717, 3910, 126));
      ("tsp", (244, 1213, 48717, 3910, 350));
      ("water", (649, 1919, 124716, 3910, 528));
    ]
  in
  List.iter
    (fun (name, (stack, static_data, library, cvm, instrumented)) ->
      let app = Apps.Registry.make name in
      let c = Instrument.Static_analysis.classify (app.Apps.App.binary ()) in
      check Alcotest.int (name ^ " stack") stack c.Instrument.Static_analysis.stack;
      check Alcotest.int (name ^ " static") static_data
        c.Instrument.Static_analysis.static_data;
      check Alcotest.int (name ^ " library") library c.Instrument.Static_analysis.library;
      check Alcotest.int (name ^ " cvm") cvm c.Instrument.Static_analysis.cvm;
      check Alcotest.int (name ^ " inst") instrumented
        c.Instrument.Static_analysis.instrumented;
      (* the CFGs also carry computed accesses the data-flow proves
         private — on top of the paper's counts, never replacing them *)
      if c.Instrument.Static_analysis.proven_private <= 0 then
        Alcotest.fail (name ^ " proves no computed access private"))
    expect

let test_instrumented_sites () =
  let open Instrument in
  let p = proc_of Ir.[ load (Reg 9) ~site:"hot"; load (Fp 0) ~site:"stack" ] in
  check (Alcotest.list Alcotest.string) "sites" [ "hot" ]
    (Static_analysis.instrumented_sites (Binary.make ~name:"t" ~procs:[ p ] ()))

(* The image counts its library and CVM accesses, so building one
   allocates a few hundred words whatever those counts are. *)
let test_binary_build_allocation () =
  List.iter
    (fun name ->
      let app = Apps.Registry.make name in
      let w0 = Gc.minor_words () in
      let binary = app.Apps.App.binary () in
      let words = Gc.minor_words () -. w0 in
      ignore (Sys.opaque_identity binary);
      if words >= 10_000.0 then
        Alcotest.fail (Printf.sprintf "%s: binary () allocated %.0f minor words" name words))
    Apps.Registry.extended_names

let test_watch () =
  let watch = Instrument.Watch.create ~addrs:[ 100; 200 ] in
  check Alcotest.bool "watched" true (Instrument.Watch.watched watch 100);
  check Alcotest.bool "unwatched" false (Instrument.Watch.watched watch 300);
  Instrument.Watch.observe watch ~site:"a" ~addr:100 Proto.Race.Read;
  Instrument.Watch.observe watch ~site:"a" ~addr:100 Proto.Race.Read;
  Instrument.Watch.observe watch ~site:"b" ~addr:100 Proto.Race.Write;
  Instrument.Watch.observe watch ~site:"c" ~addr:300 Proto.Race.Write (* ignored *);
  let hits = Instrument.Watch.hits watch in
  check Alcotest.int "two sites" 2 (List.length hits);
  let reads = List.find (fun h -> h.Instrument.Watch.site = "a") hits in
  check Alcotest.int "count accumulates" 2 reads.Instrument.Watch.count;
  check
    (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.bool))
    "sites_for"
    [ ("a", false); ("b", true) ]
    (List.map
       (fun (site, kind) -> (site, kind = Proto.Race.Write))
       (Instrument.Watch.sites_for watch ~addr:100))

let suite =
  [
    ( "instrument",
      [
        Alcotest.test_case "classification rules" `Quick test_classification_rules;
        Alcotest.test_case "proven private from CFG" `Quick test_proven_private_from_cfg;
        Alcotest.test_case "library elimination" `Quick test_library_always_eliminated;
        Alcotest.test_case ">99% eliminated" `Quick test_paper_binaries_over_99_percent;
        Alcotest.test_case "table 2 counts" `Quick test_paper_binary_counts;
        Alcotest.test_case "instrumented sites" `Quick test_instrumented_sites;
        Alcotest.test_case "binary build allocates under 10k words" `Quick
          test_binary_build_allocation;
        Alcotest.test_case "watch list" `Quick test_watch;
      ] );
  ]
