(* Additional coverage: message sizing, statistics plumbing, interval
   accounting, sequential-consistency semantics, consolidation, float
   traffic, and the cost model. *)

let check = Alcotest.check

(* ------------------------------------------------------------------ *)
(* Cost model                                                          *)

let test_cost_message_ns () =
  let base = Sim.Cost.message_ns ~bytes:0 in
  let big = Sim.Cost.message_ns ~bytes:4096 in
  check Alcotest.int "latency only at 0 bytes" Sim.Cost.msg_latency_ns base;
  check Alcotest.bool "bandwidth term grows" true (big > base);
  check Alcotest.int "words per page" 512
    (Mem.Geometry.words_per_page
       (Mem.Geometry.create ~page_size:Sim.Cost.default.Sim.Cost.page_size ~pages:1 ()))

(* ------------------------------------------------------------------ *)
(* Message sizes                                                       *)

let interval_with_notices ~reads ~writes =
  let vc = Proto.Vclock.create 4 in
  Proto.Vclock.set vc 0 1;
  let interval = Proto.Interval.create ~proc:0 ~index:1 ~vc ~epoch:0 in
  List.iter (Proto.Interval.add_read_page interval) reads;
  List.iter (Proto.Interval.add_write_page interval) writes;
  interval.Proto.Interval.closed <- true;
  interval

let test_message_sizes () =
  let vc = Proto.Vclock.create 4 in
  let small =
    Lrc.Message.size ~with_read_notices:true
      (Lrc.Message.Lock_req { lock = 1; requester = 2; vc })
  in
  check Alcotest.bool "positive" true (small > 0);
  let no_notices = interval_with_notices ~reads:[] ~writes:[ 1 ] in
  let notices = interval_with_notices ~reads:[ 2; 3; 4 ] ~writes:[ 1 ] in
  let grant intervals =
    Lrc.Message.size ~with_read_notices:true
      (Lrc.Message.Lock_grant { lock = 1; granter_vc = vc; intervals })
  in
  check Alcotest.int "read notices cost 4 bytes each" 12
    (grant [ notices ] - grant [ no_notices ]);
  (* with detection off, read notices do not ship at all *)
  let grant_off intervals =
    Lrc.Message.size ~with_read_notices:false
      (Lrc.Message.Lock_grant { lock = 1; granter_vc = vc; intervals })
  in
  check Alcotest.int "no read notices when detection is off" 0
    (grant_off [ notices ] - grant_off [ no_notices ]);
  check Alcotest.int "read_notice_bytes helper" 12
    (Lrc.Message.read_notice_bytes [ notices ])

let test_page_data_size () =
  let data = Bytes.create 4096 in
  let size =
    Lrc.Message.size ~with_read_notices:true (Lrc.Message.Copy_data { page = 0; data })
  in
  check Alcotest.bool "page payload dominates" true (size >= 4096)

(* ------------------------------------------------------------------ *)
(* Interval accounting: 2 intervals per processor per barrier           *)

let test_two_intervals_per_barrier () =
  let cluster = Backends.create ~nprocs:4 ~pages:2 () in
  let barriers = 6 in
  let body node =
    for _ = 1 to barriers do
      Lrc.Dsm.barrier node
    done
  in
  cluster.Coherence.Backend.run body;
  let stats = cluster.Coherence.Backend.stats in
  check Alcotest.int "barriers counted once" barriers stats.Sim.Stats.barriers;
  (* each barrier creates 2 intervals per processor (arrive + depart),
     plus the initial interval of each processor *)
  check Alcotest.int "interval count"
    (4 * ((2 * barriers) + 1))
    stats.Sim.Stats.intervals_created

let test_lock_creates_two_intervals () =
  let cluster = Backends.create ~nprocs:2 ~pages:2 () in
  let body node =
    Lrc.Dsm.barrier node;
    if Lrc.Dsm.pid node = 0 then Lrc.Dsm.with_lock node 3 (fun () -> ());
    Lrc.Dsm.barrier node
  in
  cluster.Coherence.Backend.run body;
  let stats = cluster.Coherence.Backend.stats in
  (* 2 procs x (1 initial + 2x2 barrier) + 2 for the acquire/release *)
  check Alcotest.int "acquire and release each open an interval" 12
    stats.Sim.Stats.intervals_created

(* ------------------------------------------------------------------ *)
(* Sequential consistency (the mesi bus): reads always see the latest
   write                                                               *)

let test_sc_reads_latest () =
  let cfg = { Coherence.Config.default with backend = "mesi" } in
  let cluster = Backends.create ~cfg ~nprocs:2 ~pages:2 () in
  let x = cluster.Coherence.Backend.alloc 8 in
  let seen = ref (-1) in
  let body node =
    let open Lrc.Dsm in
    barrier node;
    if pid node = 0 then begin
      compute node 50_000.0;
      write_int node x 9
    end
    else begin
      compute node 5_000_000.0 (* well after p0's write *);
      seen := read_int node x
    end;
    barrier node
  in
  cluster.Coherence.Backend.run body;
  check Alcotest.int "SC read sees the unsynchronized write" 9 !seen

(* ------------------------------------------------------------------ *)
(* Consolidation (section 6.3): detection without an application
   barrier                                                             *)

let test_consolidate_runs_detection () =
  let cfg = Testutil.detect_cfg in
  let cluster = Backends.create ~cfg ~nprocs:2 ~pages:2 () in
  let x = cluster.Coherence.Backend.alloc 8 in
  let body node =
    let open Lrc.Dsm in
    barrier node;
    (* a lock-only program with a race; no barrier until consolidation *)
    with_lock node 1 (fun () -> ());
    if pid node = 0 then write_int node x 1;
    if pid node = 1 then ignore (read_int node x);
    consolidate node;
    barrier node
  in
  cluster.Coherence.Backend.run body;
  check Testutil.addr_list "consolidation found the race" [ x ]
    (Testutil.racy_addrs_of cluster)

(* ------------------------------------------------------------------ *)
(* Float traffic through the DSM                                       *)

let test_float_roundtrip_through_dsm () =
  let cluster = Backends.create ~nprocs:2 ~pages:2 () in
  let x = cluster.Coherence.Backend.alloc 16 in
  let got = ref 0.0 in
  let body node =
    let open Lrc.Dsm in
    if pid node = 0 then begin
      write_float node x 3.14159265;
      write_float node (x + 8) (-0.0)
    end;
    barrier node;
    if pid node = 1 then got := read_float node x;
    barrier node
  in
  cluster.Coherence.Backend.run body;
  check (Alcotest.float 0.0) "exact float transfer" 3.14159265 !got

(* ------------------------------------------------------------------ *)
(* Stats plumbing                                                      *)

let test_stats_charges () =
  let stats = Sim.Stats.create () in
  Sim.Stats.charge stats Sim.Stats.Proc_call 10.0;
  Sim.Stats.charge stats Sim.Stats.Proc_call 5.0;
  Sim.Stats.charge stats Sim.Stats.Bitmaps 2.5;
  check (Alcotest.float 0.0) "accumulates" 15.0 (Sim.Stats.charged stats Sim.Stats.Proc_call);
  check (Alcotest.float 0.0) "total" 17.5 (Sim.Stats.total_charged stats);
  check Alcotest.int "categories distinct" 5 (List.length Sim.Stats.all_categories)

let test_detect_changes_traffic_only_in_detect_runs () =
  let run detect =
    let cfg = { Coherence.Config.default with detect } in
    let cluster = Backends.create ~cfg ~nprocs:2 ~pages:2 () in
    let x = cluster.Coherence.Backend.alloc 8 in
    let body node =
      let open Lrc.Dsm in
      barrier node;
      if pid node = 0 then write_int node x 1 else ignore (read_int node x);
      barrier node
    in
    cluster.Coherence.Backend.run body;
    cluster.Coherence.Backend.stats
  in
  let off = run false and on = run true in
  check Alcotest.int "no read-notice bytes when off" 0 off.Sim.Stats.read_notice_bytes;
  check Alcotest.bool "read notices ship when on" true (on.Sim.Stats.read_notice_bytes > 0);
  check Alcotest.int "no bitmap round when off" 0 off.Sim.Stats.bitmap_round_bytes;
  check Alcotest.bool "bitmap round when on" true (on.Sim.Stats.bitmap_round_bytes > 0)

(* ------------------------------------------------------------------ *)
(* Experiments helpers (small scale)                                   *)

let test_experiments_table2 () =
  let rows = Core.Experiments.table2 () in
  check Alcotest.int "four rows" 4 (List.length rows)

let test_driver_slowdown_sane () =
  let app = Apps.Registry.make ~scale:Apps.Registry.Small "sor" in
  let sd = Core.Driver.measure_slowdown ~app ~nprocs:4 () in
  check Alcotest.bool "instrumented at least as slow" true (sd.Core.Driver.factor >= 1.0);
  let percentages = Core.Driver.overhead_percentages sd in
  check Alcotest.int "five categories" 5 (List.length percentages);
  List.iter (fun (_, pct) -> if pct < 0.0 then Alcotest.fail "negative overhead") percentages

let test_timeline_rows () =
  let cfg = { Coherence.Config.default with record_trace = true } in
  let cluster = Backends.create ~cfg ~nprocs:2 ~pages:2 () in
  let x = cluster.Coherence.Backend.alloc 8 in
  let body node =
    let open Lrc.Dsm in
    barrier node;
    with_lock node 1 (fun () -> write_int node x (pid node));
    barrier node
  in
  cluster.Coherence.Backend.run body;
  let rows = Core.Timeline.rows ~nprocs:2 (cluster.Coherence.Backend.timed_trace ()) in
  (* 2 barriers + acquire/release per proc = 8 sync rows, time-ordered *)
  check Alcotest.int "sync rows" 8 (List.length rows);
  let times = List.map (fun (r : Core.Timeline.entry) -> r.time_ns) rows in
  check Alcotest.bool "sorted by time" true (times = List.sort compare times);
  let write_rows =
    List.filter (fun (r : Core.Timeline.entry) -> Testutil.contains r.label "1w") rows
  in
  check Alcotest.int "each release summarizes the critical section" 2
    (List.length write_rows)

let test_report_printers_smoke () =
  let buffer = Buffer.create 256 in
  let ppf = Format.formatter_of_buffer buffer in
  Core.Report.table2 ppf (Core.Experiments.table2 ());
  Core.Report.figure5 ppf (Core.Experiments.figure5_both ());
  Format.pp_print_flush ppf ();
  check Alcotest.bool "output produced" true (Buffer.length buffer > 200)

let suite =
  [
    ( "extra:cost+messages",
      [
        Alcotest.test_case "cost model" `Quick test_cost_message_ns;
        Alcotest.test_case "message sizes" `Quick test_message_sizes;
        Alcotest.test_case "page payload" `Quick test_page_data_size;
      ] );
    ( "extra:intervals",
      [
        Alcotest.test_case "2 per proc per barrier" `Quick test_two_intervals_per_barrier;
        Alcotest.test_case "2 per lock round trip" `Quick test_lock_creates_two_intervals;
      ] );
    ( "extra:semantics",
      [
        Alcotest.test_case "SC reads latest" `Quick test_sc_reads_latest;
        Alcotest.test_case "consolidation detects" `Quick test_consolidate_runs_detection;
        Alcotest.test_case "float roundtrip" `Quick test_float_roundtrip_through_dsm;
      ] );
    ( "extra:stats",
      [
        Alcotest.test_case "charges" `Quick test_stats_charges;
        Alcotest.test_case "detection traffic" `Quick
          test_detect_changes_traffic_only_in_detect_runs;
      ] );
    ( "extra:experiments",
      [
        Alcotest.test_case "table2 rows" `Quick test_experiments_table2;
        Alcotest.test_case "slowdown sane" `Quick test_driver_slowdown_sane;
        Alcotest.test_case "report printers" `Quick test_report_printers_smoke;
        Alcotest.test_case "timeline rows" `Quick test_timeline_rows;
      ] );
  ]
