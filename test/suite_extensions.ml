(* Tests for the extensions beyond the paper's prototype: the LU workload,
   the symbol table, home-based LRC's version gating, and wire
   fragmentation. *)

let check = Alcotest.check

(* ------------------------------------------------------------------ *)
(* LU                                                                  *)

let test_lu_race_free_all_protocols () =
  List.iter
    (fun protocol ->
      let cfg = { Testutil.detect_cfg with protocol } in
      let app = Apps.Registry.make ~scale:Apps.Registry.Small "lu" in
      let outcome = Core.Driver.run ~cfg ~app ~nprocs:4 () in
      check Testutil.addr_list "lu race-free" [] (Core.Driver.racy_addrs outcome);
      let oracle =
        Racedetect.Oracle.racy_addrs ~nprocs:4 outcome.Core.Driver.trace
      in
      check Testutil.addr_list "oracle agrees" [] oracle)
    [ Coherence.Config.Single_writer; Coherence.Config.Multi_writer; Coherence.Config.Home_based ]

let test_lu_reference_is_lu () =
  (* multiplying the factors back together recovers the input *)
  let n = 8 in
  let a = Apps.Lu.reference { Apps.Lu.n } in
  let recovered i j =
    let acc = ref 0.0 in
    for k = 0 to min i j do
      let l = if k = i then 1.0 else a.(i).(k) in
      let u = if k <= j then a.(k).(j) else 0.0 in
      if k < i || k <= j then acc := !acc +. (l *. u)
    done;
    !acc
  in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      let want = Apps.Lu.input n i j in
      if Float.abs (recovered i j -. want) > 1e-9 *. (1.0 +. Float.abs want) then
        Alcotest.fail (Printf.sprintf "L*U mismatch at (%d,%d)" i j)
    done
  done

(* ------------------------------------------------------------------ *)
(* Symbol table                                                        *)

let test_symtab_resolution () =
  let symtab = Mem.Symtab.create () in
  Mem.Symtab.register symtab ~name:"counter" ~base:1000 ~bytes:8;
  Mem.Symtab.register symtab ~name:"grid" ~base:2000 ~bytes:800;
  check Alcotest.string "exact" "counter" (Mem.Symtab.name_of symtab 1000);
  check Alcotest.string "indexed" "grid[3]" (Mem.Symtab.name_of symtab 2024);
  check Alcotest.string "unknown" "0x00000bb8" (Mem.Symtab.name_of symtab 3000);
  check Alcotest.string "offset in scalar" "counter+4" (Mem.Symtab.name_of symtab 1004)

let test_symtab_overlap_rejected () =
  let symtab = Mem.Symtab.create () in
  Mem.Symtab.register symtab ~name:"a" ~base:0 ~bytes:16;
  Alcotest.check_raises "overlap" (Invalid_argument "Symtab.register: b overlaps a")
    (fun () -> Mem.Symtab.register symtab ~name:"b" ~base:8 ~bytes:8)

let test_symbolic_race_reports () =
  let cluster = Backends.create ~cfg:Testutil.detect_cfg ~nprocs:2 ~pages:2 () in
  let x = cluster.Coherence.Backend.alloc 8 ~name:"shared_flag" in
  let body node =
    let open Lrc.Dsm in
    barrier node;
    if pid node = 0 then write_int node x 1;
    if pid node = 1 then ignore (read_int node x);
    barrier node
  in
  cluster.Coherence.Backend.run body;
  match cluster.Coherence.Backend.races () with
  | [ race ] ->
      let rendered =
        Format.asprintf "%a"
          (Proto.Race.pp_named
             ~name_of:(Mem.Symtab.name_of cluster.Coherence.Backend.symtab))
          race
      in
      check Alcotest.bool "symbolic name in report" true
        (Testutil.contains rendered "shared_flag")
  | _ -> Alcotest.fail "expected one race"

(* ------------------------------------------------------------------ *)
(* Home-based LRC specifics                                            *)

let test_hb_fetch_waits_for_flush () =
  (* the home must not serve a fetch until the flush carrying the needed
     version has arrived. On this lossy wire (seed 3) the writer's
     diff-flush is retransmitted, while the lock grant it sent after it
     travels another link; so the reader's home-req reaches the home
     first, and the home must hold it until the flush lands *)
  let home_deliveries = ref [] in
  let sink =
    {
      Trace.Sink.emit =
        (fun ~time:_ ev ->
          match ev with
          | Trace.Event.Msg_deliver { src; dst = 0; kind; _ } ->
              home_deliveries := (src, kind) :: !home_deliveries
          | _ -> ());
    }
  in
  let cfg =
    {
      Coherence.Config.default with
      protocol = Coherence.Config.Home_based;
      seed = 3;
      fault = { Sim.Fault.none with Sim.Fault.drop = 0.2 };
      transport = Some Sim.Transport.default_config;
      tracer = Some sink;
    }
  in
  let cluster = Backends.create ~cfg ~nprocs:3 ~pages:4 () in
  let x = cluster.Coherence.Backend.alloc 8 in
  (* page 0's home is processor 0; the writer and reader are 1 and 2 *)
  let body node =
    let open Lrc.Dsm in
    barrier node;
    if pid node = 1 then with_lock node 7 (fun () -> write_int node x 42);
    if pid node = 2 then begin
      idle node 500_000.0;
      let v = with_lock node 7 (fun () -> read_int node x) in
      if v <> 42 then failwith (Printf.sprintf "hb stale read: %d" v)
    end;
    barrier node
  in
  cluster.Coherence.Backend.run body;
  check
    (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.string))
    "the home gets the fetch before the flush"
    [ (2, "home-req"); (1, "diff-flush") ]
    (List.filter
       (fun (_, kind) -> kind = "home-req" || kind = "diff-flush")
       (List.rev !home_deliveries))

let test_hb_paper_counters () =
  (* under HLRC all coherence data motion is flushes + home fetches *)
  let cfg =
    { Coherence.Config.default with protocol = Coherence.Config.Home_based; detect = false }
  in
  let app = Apps.Registry.make ~scale:Apps.Registry.Small "sor" in
  let outcome = Core.Driver.run ~cfg ~app ~nprocs:4 () in
  let stats = outcome.Core.Driver.stats in
  check Alcotest.bool "diffs flushed" true (stats.Sim.Stats.diffs_created > 0);
  check Alcotest.bool "home fetches happened" true (stats.Sim.Stats.pages_fetched > 0)

(* ------------------------------------------------------------------ *)
(* Fragmentation                                                       *)

let test_fragmentation_math () =
  (* the wire's MTU and per-fragment header *)
  check Alcotest.int "MTU" 65_536 Sim.Cost.max_message_bytes;
  check Alcotest.int "fragment header" 24 Sim.Cost.fragment_overhead_bytes;
  check Alcotest.int "small payload" 1 (Sim.Cost.fragments ~bytes:65_535);
  check Alcotest.int "exact fit" 1 (Sim.Cost.fragments ~bytes:65_536);
  check Alcotest.int "one over" 2 (Sim.Cost.fragments ~bytes:65_537);
  check Alcotest.int "wire bytes include headers" (163_841 + 48)
    (Sim.Cost.wire_bytes ~bytes:163_841);
  check Alcotest.bool "fragmented message slower" true
    (Sim.Cost.message_ns ~bytes:65_537 > Sim.Cost.message_ns ~bytes:65_535)

let test_fragments_counted () =
  (* one payload a byte over the MTU, on a reliable wire: two fragments,
     one extra header on the wire, and one latency plus the wire time of
     every byte (110,000 + 55 x 65,561 ns) *)
  let engine = Sim.Engine.create () in
  let stats = Sim.Stats.create () in
  let net = Sim.Net.create engine stats ~nodes:2 ~size_of:(fun () -> 65_537) in
  let arrived = ref (-1) in
  Sim.Net.set_handler net ~node:1 (fun () -> arrived := Sim.Engine.now engine);
  ignore (Sim.Engine.spawn engine (fun _ -> Sim.Net.send net ~src:0 ~dst:1 ()));
  Sim.Engine.run engine;
  check Alcotest.int "one message" 1 stats.Sim.Stats.messages;
  check Alcotest.int "two fragments" 2 stats.Sim.Stats.fragments;
  check Alcotest.int "wire bytes" (65_537 + 24) stats.Sim.Stats.bytes;
  check Alcotest.int "arrival" 3_715_855 !arrived

let suite =
  [
    ( "extensions:lu",
      [
        Alcotest.test_case "race-free, all protocols" `Quick test_lu_race_free_all_protocols;
        Alcotest.test_case "reference factorization" `Quick test_lu_reference_is_lu;
      ] );
    ( "extensions:symtab",
      [
        Alcotest.test_case "resolution" `Quick test_symtab_resolution;
        Alcotest.test_case "overlap rejected" `Quick test_symtab_overlap_rejected;
        Alcotest.test_case "symbolic race reports" `Quick test_symbolic_race_reports;
      ] );
    ( "extensions:home-based",
      [
        Alcotest.test_case "fetch waits for flush" `Quick test_hb_fetch_waits_for_flush;
        Alcotest.test_case "coherence counters" `Quick test_hb_paper_counters;
      ] );
    ( "extensions:fragmentation",
      [
        Alcotest.test_case "math" `Quick test_fragmentation_math;
        Alcotest.test_case "counted" `Quick test_fragments_counted;
      ] );
  ]
