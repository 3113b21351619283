(* Tests for the detection algorithm (steps 2-5) as pure functions, and
   for the independent offline oracle. *)

let check = Alcotest.check

let nprocs = 3
let geometry = Mem.Geometry.create ~page_size:4096 ~pages:8 ()
let words = 512

let interval ~proc ~index ~seen =
  let vc = Proto.Vclock.create nprocs in
  List.iter (fun (p, i) -> Proto.Vclock.set vc p i) seen;
  Proto.Vclock.set vc proc index;
  Proto.Interval.create ~proc ~index ~vc ~epoch:0

let with_accesses interval ~reads ~writes =
  List.iter (fun (page, _) -> Proto.Interval.add_read_page interval page) reads;
  List.iter (fun (page, _) -> Proto.Interval.add_write_page interval page) writes;
  interval.Proto.Interval.closed <- true;
  interval

(* a bitmap source backed by an association list of (id, page) -> words *)
let source_of assoc (id : Proto.Interval.id) ~page =
  let find kind =
    match List.assoc_opt (id, page, kind) assoc with
    | Some ws ->
        let bitmap = Mem.Bitmap.create words in
        List.iter (Mem.Bitmap.set bitmap) ws;
        bitmap
    | None -> Mem.Bitmap.create words
  in
  { Racedetect.Detector.reads = find `R; writes = find `W }

(* ------------------------------------------------------------------ *)

let test_concurrent_pairs_barrier_epoch () =
  (* three barrier-style intervals, one per proc, mutually unsynchronized *)
  let intervals =
    List.init nprocs (fun proc -> interval ~proc ~index:2 ~seen:[])
  in
  let pairs = Racedetect.Detector.concurrent_pairs intervals in
  check Alcotest.int "all cross pairs concurrent" 3 (List.length pairs)

let test_concurrent_pairs_chain_ordered () =
  (* lock chain p0 -> p1 -> p2: no pair is concurrent *)
  let a = interval ~proc:0 ~index:1 ~seen:[] in
  let b = interval ~proc:1 ~index:1 ~seen:[ (0, 1) ] in
  let c = interval ~proc:2 ~index:1 ~seen:[ (0, 1); (1, 1) ] in
  let pairs = Racedetect.Detector.concurrent_pairs [ a; b; c ] in
  check Alcotest.int "chain fully ordered" 0 (List.length pairs)

let test_concurrent_pairs_skips_same_proc () =
  let stats = Sim.Stats.create () in
  let a = interval ~proc:0 ~index:1 ~seen:[] in
  let b = interval ~proc:0 ~index:2 ~seen:[] in
  let pairs = Racedetect.Detector.concurrent_pairs ~stats [ a; b ] in
  check Alcotest.int "no same-proc pairs" 0 (List.length pairs);
  check Alcotest.int "no comparisons spent" 0 stats.Sim.Stats.interval_comparisons

let test_check_list_requires_overlap () =
  let a = with_accesses (interval ~proc:0 ~index:2 ~seen:[]) ~reads:[] ~writes:[ (1, ()) ] in
  let b = with_accesses (interval ~proc:1 ~index:2 ~seen:[]) ~reads:[ (2, ()) ] ~writes:[] in
  let c = with_accesses (interval ~proc:2 ~index:2 ~seen:[]) ~reads:[ (1, ()) ] ~writes:[] in
  let pairs = Racedetect.Detector.concurrent_pairs [ a; b; c ] in
  let entries = Racedetect.Detector.check_list pairs in
  (* only (a, c) share page 1 with a write *)
  check Alcotest.int "one entry" 1 (List.length entries);
  let entry = List.hd entries in
  check (Alcotest.list Alcotest.int) "page 1" [ 1 ] entry.Racedetect.Checklist.pages

let test_races_word_granularity () =
  let a = with_accesses (interval ~proc:0 ~index:2 ~seen:[]) ~reads:[] ~writes:[ (1, ()) ] in
  let b = with_accesses (interval ~proc:1 ~index:2 ~seen:[]) ~reads:[ (1, ()) ] ~writes:[ (1, ()) ] in
  let ia = Proto.Interval.id a and ib = Proto.Interval.id b in
  let entry = { Racedetect.Checklist.a = ia; b = ib; pages = [ 1 ] } in
  (* a writes words 3,4; b writes word 4 and reads word 9: expect one
     write-write race at word 4, nothing at 3 (false sharing) or 9 *)
  let source =
    source_of [ ((ia, 1, `W), [ 3; 4 ]); ((ib, 1, `W), [ 4 ]); ((ib, 1, `R), [ 9 ]) ]
  in
  let races = Racedetect.Detector.races_of_entry ~geometry ~epoch:0 ~source entry in
  check Alcotest.int "one race" 1 (List.length races);
  let race = List.hd races in
  check Alcotest.int "word 4" 4 race.Proto.Race.word;
  check Alcotest.bool "write-write" true (Proto.Race.is_write_write race)

let test_races_read_write_both_directions () =
  let a = with_accesses (interval ~proc:0 ~index:2 ~seen:[]) ~reads:[ (2, ()) ] ~writes:[ (2, ()) ] in
  let b = with_accesses (interval ~proc:1 ~index:2 ~seen:[]) ~reads:[ (2, ()) ] ~writes:[ (2, ()) ] in
  let ia = Proto.Interval.id a and ib = Proto.Interval.id b in
  let entry = { Racedetect.Checklist.a = ia; b = ib; pages = [ 2 ] } in
  let source =
    source_of
      [
        ((ia, 2, `W), [ 1 ]); ((ia, 2, `R), [ 2 ]); ((ib, 2, `W), [ 2 ]); ((ib, 2, `R), [ 1 ]);
      ]
  in
  let races =
    Racedetect.Detector.races_of_entry ~geometry ~epoch:0 ~source entry |> Proto.Race.dedup
  in
  (* a writes 1 / b reads 1, and a reads 2 / b writes 2 *)
  check Alcotest.int "two races" 2 (List.length races);
  check (Alcotest.list Alcotest.int) "words" [ 1; 2 ]
    (List.sort compare (List.map (fun (r : Proto.Race.t) -> r.word) races))

let test_false_sharing_no_race () =
  let a = with_accesses (interval ~proc:0 ~index:2 ~seen:[]) ~reads:[] ~writes:[ (1, ()) ] in
  let b = with_accesses (interval ~proc:1 ~index:2 ~seen:[]) ~reads:[] ~writes:[ (1, ()) ] in
  let ia = Proto.Interval.id a and ib = Proto.Interval.id b in
  let entry = { Racedetect.Checklist.a = ia; b = ib; pages = [ 1 ] } in
  let source = source_of [ ((ia, 1, `W), [ 0 ]); ((ib, 1, `W), [ 100 ]) ] in
  let races = Racedetect.Detector.races_of_entry ~geometry ~epoch:0 ~source entry in
  check Alcotest.int "false sharing: no race" 0 (List.length races)

let test_bitmap_requests_dedup () =
  let entries =
    [
      { Racedetect.Checklist.a = { proc = 0; index = 1 }; b = { proc = 1; index = 1 }; pages = [ 1; 2 ] };
      { Racedetect.Checklist.a = { proc = 0; index = 1 }; b = { proc = 2; index = 1 }; pages = [ 1 ] };
    ]
  in
  let requests = Racedetect.Checklist.bitmap_requests entries in
  check Alcotest.int "deduplicated" 5 (List.length requests);
  let plan = Racedetect.Checklist.requests_by_proc entries ~nprocs:4 in
  check (Alcotest.list Alcotest.int) "bitmaps per proc" [ 2; 2; 1; 0 ]
    (Array.to_list (Array.map List.length plan))

(* ------------------------------------------------------------------ *)
(* The detection kernels against reference definitions that sort with
   polymorphic [compare]: the typed comparators, the per-epoch request
   plan and the check-list signature prefilter must change nothing. *)

let reference_bitmap_requests entries =
  let add acc id pages = List.fold_left (fun acc page -> (id, page) :: acc) acc pages in
  List.fold_left
    (fun acc (e : Racedetect.Checklist.entry) -> add (add acc e.a e.pages) e.b e.pages)
    [] entries
  |> List.sort_uniq compare

let reference_requests_for_proc entries ~proc =
  List.filter
    (fun ((id : Proto.Interval.id), _) -> id.proc = proc)
    (reference_bitmap_requests entries)

let gen_entries =
  (* few indices per processor, so ids repeat across entries *)
  let open QCheck.Gen in
  let id =
    map2 (fun proc index -> { Proto.Interval.proc; index }) (int_range 0 31) (int_range 1 3)
  in
  list_size (int_range 0 40)
    (map3
       (fun a b pages -> { Racedetect.Checklist.a; b; pages })
       id id
       (list_size (int_range 1 4) (int_range 0 200)))

let prop_requests_by_proc =
  QCheck.Test.make ~count:300 ~name:"request plan = per-proc filter of the sorted requests"
    (QCheck.make
       ~print:(fun es -> String.concat " " (List.map (Format.asprintf "%a" Racedetect.Checklist.pp) es))
       gen_entries)
    (fun entries ->
      let plan = Racedetect.Checklist.requests_by_proc entries ~nprocs:32 in
      Racedetect.Checklist.bitmap_requests entries = reference_bitmap_requests entries
      && Array.length plan = 32
      && List.for_all
           (fun proc -> plan.(proc) = reference_requests_for_proc entries ~proc)
           (List.init 32 Fun.id))

(* Interval sets whose pages are drawn from {b, b + 63, b + 126}: pages
   that differ by 63 share a signature bit, so many concurrent pairs pass
   the prefilter without really overlapping. *)
let gen_interval_specs =
  let open QCheck.Gen in
  int_range 2 6 >>= fun nprocs ->
  int_range 1 4 >>= fun per_proc ->
  let page = map2 (fun base wrap -> base + (63 * wrap)) (int_range 0 4) (int_range 0 2) in
  let pages = list_size (int_range 0 3) page in
  let spec proc index =
    map3
      (fun seen reads writes -> (proc, index, seen, reads, writes))
      (array_repeat nprocs (int_range 0 per_proc))
      pages pages
  in
  flatten_l
    (List.concat_map
       (fun proc -> List.init per_proc (fun i -> spec proc (i + 1)))
       (List.init nprocs Fun.id))
  >|= fun specs -> (nprocs, specs)

let print_interval_specs (nprocs, specs) =
  let ints l = String.concat ";" (List.map string_of_int l) in
  Printf.sprintf "nprocs %d: %s" nprocs
    (String.concat " "
       (List.map
          (fun (proc, index, seen, reads, writes) ->
            Printf.sprintf "s_%d^%d[vc %s r %s w %s]" proc index
              (ints (Array.to_list seen)) (ints reads) (ints writes))
          specs))

let intervals_of_specs (nprocs, specs) =
  List.map
    (fun (proc, index, seen, reads, writes) ->
      let vc = Proto.Vclock.create nprocs in
      Array.iteri (Proto.Vclock.set vc) seen;
      Proto.Vclock.set vc proc index;
      let iv = Proto.Interval.create ~proc ~index ~vc ~epoch:0 in
      List.iter (Proto.Interval.add_read_page iv) reads;
      List.iter (Proto.Interval.add_write_page iv) writes;
      iv)
    specs

let detector_counts (s : Sim.Stats.t) =
  [ s.interval_comparisons; s.concurrent_pairs; s.overlapping_pairs; s.intervals_in_overlap ]

let prop_fused_check_list =
  QCheck.Test.make ~count:500 ~name:"fused check-list scan = check_list of concurrent_pairs"
    (QCheck.make ~print:print_interval_specs gen_interval_specs)
    (fun specs ->
      let intervals = intervals_of_specs specs in
      let fused_stats = Sim.Stats.create () and split_stats = Sim.Stats.create () in
      let fused_seen = ref [] and split_seen = ref [] in
      let n_concurrent, fused =
        Racedetect.Detector.concurrent_check_list ~stats:fused_stats
          ~probe:(fun e -> fused_seen := e :: !fused_seen)
          intervals
      in
      let pairs = Racedetect.Detector.concurrent_pairs ~stats:split_stats intervals in
      let split =
        Racedetect.Detector.check_list ~stats:split_stats
          ~probe:(fun e -> split_seen := e :: !split_seen)
          pairs
      in
      let involved =
        List.concat_map (fun (e : Racedetect.Checklist.entry) -> [ e.a; e.b ]) split
        |> List.sort_uniq compare |> List.length
      in
      fused = split
      && !fused_seen = !split_seen
      && n_concurrent = List.length pairs
      && detector_counts fused_stats = detector_counts split_stats
      && split_stats.intervals_in_overlap = involved)

let test_signature_collision_not_listed () =
  (* pages 1 and 64 share signature bit 1 but are different pages *)
  let a = with_accesses (interval ~proc:0 ~index:2 ~seen:[]) ~reads:[] ~writes:[ (1, ()) ] in
  let b = with_accesses (interval ~proc:1 ~index:2 ~seen:[]) ~reads:[ (64, ()) ] ~writes:[] in
  let stats = Sim.Stats.create () in
  let n_concurrent, entries = Racedetect.Detector.concurrent_check_list ~stats [ a; b ] in
  check Alcotest.int "concurrent" 1 n_concurrent;
  check Alcotest.int "no entry" 0 (List.length entries);
  check Alcotest.int "no overlapping pair" 0 stats.Sim.Stats.overlapping_pairs

let reference_race_compare a b =
  let a = Proto.Race.normalize a and b = Proto.Race.normalize b in
  compare
    (a.addr, fst a.first, snd a.first, fst a.second, snd a.second)
    (b.addr, fst b.first, snd b.first, fst b.second, snd b.second)

let gen_races =
  (* few addresses and ids, so keys repeat and pairs come in both orders *)
  let open QCheck.Gen in
  let side =
    map3
      (fun proc index kind -> ({ Proto.Interval.proc; index }, kind))
      (int_range 0 3) (int_range 1 3)
      (oneofl [ Proto.Race.Read; Proto.Race.Write ])
  in
  list_size (int_range 0 30)
    (map3
       (fun word (first, second) epoch ->
         { Proto.Race.addr = 8 * word; page = word / 512; word = word mod 512; first; second; epoch })
       (int_range 0 7) (pair side side) (int_range 0 2))

let prop_race_dedup =
  QCheck.Test.make ~count:300 ~name:"Race.dedup and compare = polymorphic tuple order"
    (QCheck.make
       ~print:(fun rs -> String.concat "; " (List.map (Format.asprintf "%a" Proto.Race.pp) rs))
       gen_races)
    (fun races ->
      Proto.Race.dedup races
      = List.sort_uniq reference_race_compare (List.map Proto.Race.normalize races)
      && List.for_all
           (fun a ->
             List.for_all
               (fun b ->
                 Int.compare (Proto.Race.compare a b) 0
                 = Int.compare (reference_race_compare a b) 0)
               races)
           races)

(* ------------------------------------------------------------------ *)
(* Oracle                                                              *)

let test_oracle_lock_ordered () =
  let open Racedetect.Oracle in
  let trace =
    [
      (0, Acquire 1); (0, Write 4096); (0, Release 1);
      (1, Acquire 1); (1, Read 4096); (1, Release 1);
    ]
  in
  check Alcotest.int "lock-ordered accesses race-free" 0
    (List.length (racy_addrs ~nprocs:2 trace))

let test_oracle_unordered_race () =
  let open Racedetect.Oracle in
  let trace = [ (0, Write 4096); (1, Read 4096) ] in
  check (Alcotest.list Alcotest.int) "race found" [ 4096 ] (racy_addrs ~nprocs:2 trace)

let test_oracle_different_locks_race () =
  let open Racedetect.Oracle in
  let trace =
    [
      (0, Acquire 1); (0, Write 8); (0, Release 1);
      (1, Acquire 2); (1, Write 8); (1, Release 2);
    ]
  in
  check Alcotest.int "different locks do not order" 1
    (List.length (racy_addrs ~nprocs:2 trace))

let test_oracle_barrier_orders () =
  let open Racedetect.Oracle in
  let trace = [ (0, Write 16); (0, Barrier); (1, Barrier); (1, Write 16) ] in
  check Alcotest.int "barrier orders" 0 (List.length (racy_addrs ~nprocs:2 trace))

let test_oracle_transitive_chain () =
  let open Racedetect.Oracle in
  let trace =
    [
      (0, Write 24); (0, Release 1);
      (1, Acquire 1); (1, Release 2);
      (2, Acquire 2); (2, Write 24);
    ]
  in
  check Alcotest.int "transitive order through two locks" 0
    (List.length (racy_addrs ~nprocs:3 trace))

let test_oracle_read_read_no_race () =
  let open Racedetect.Oracle in
  let trace = [ (0, Read 8); (1, Read 8) ] in
  check Alcotest.int "read-read" 0 (List.length (racy_addrs ~nprocs:2 trace))

let test_oracle_kinds () =
  let open Racedetect.Oracle in
  let trace = [ (0, Write 8); (1, Write 8); (1, Read 8) ] in
  let races = races_of_trace ~nprocs:2 trace in
  (* one ww pair and one wr pair, both on the same word *)
  check Alcotest.int "two kinds of pair" 2 (List.length races)

let suite =
  [
    ( "detector",
      [
        Alcotest.test_case "barrier epoch all-pairs" `Quick test_concurrent_pairs_barrier_epoch;
        Alcotest.test_case "lock chain ordered" `Quick test_concurrent_pairs_chain_ordered;
        Alcotest.test_case "same-proc skipped" `Quick test_concurrent_pairs_skips_same_proc;
        Alcotest.test_case "check list needs overlap" `Quick test_check_list_requires_overlap;
        Alcotest.test_case "word granularity" `Quick test_races_word_granularity;
        Alcotest.test_case "rw both directions" `Quick test_races_read_write_both_directions;
        Alcotest.test_case "false sharing ignored" `Quick test_false_sharing_no_race;
        Alcotest.test_case "bitmap request dedup" `Quick test_bitmap_requests_dedup;
        Alcotest.test_case "signature collision not listed" `Quick
          test_signature_collision_not_listed;
        QCheck_alcotest.to_alcotest prop_requests_by_proc;
        QCheck_alcotest.to_alcotest prop_fused_check_list;
        QCheck_alcotest.to_alcotest prop_race_dedup;
      ] );
    ( "oracle",
      [
        Alcotest.test_case "lock ordered" `Quick test_oracle_lock_ordered;
        Alcotest.test_case "unordered race" `Quick test_oracle_unordered_race;
        Alcotest.test_case "different locks" `Quick test_oracle_different_locks_race;
        Alcotest.test_case "barrier orders" `Quick test_oracle_barrier_orders;
        Alcotest.test_case "transitive chain" `Quick test_oracle_transitive_chain;
        Alcotest.test_case "read-read" `Quick test_oracle_read_read_no_race;
        Alcotest.test_case "kinds" `Quick test_oracle_kinds;
      ] );
  ]
