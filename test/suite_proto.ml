(* Tests for the protocol data types: vector clocks, intervals and race
   reports — including the constant-time concurrency check the whole
   online scheme leans on. *)

let check = Alcotest.check

(* ------------------------------------------------------------------ *)
(* Vclock                                                              *)

let vc_of_list xs = Array.of_list xs

let test_vclock_leq () =
  check Alcotest.bool "equal leq" true (Proto.Vclock.leq (vc_of_list [ 1; 2 ]) (vc_of_list [ 1; 2 ]));
  check Alcotest.bool "pointwise" true (Proto.Vclock.leq (vc_of_list [ 1; 2 ]) (vc_of_list [ 2; 2 ]));
  check Alcotest.bool "not leq" false (Proto.Vclock.leq (vc_of_list [ 3; 0 ]) (vc_of_list [ 2; 2 ]));
  check Alcotest.bool "concurrent" true
    (Proto.Vclock.concurrent (vc_of_list [ 3; 0 ]) (vc_of_list [ 0; 3 ]))

let test_vclock_merge () =
  let a = vc_of_list [ 1; 5; 0 ] and b = vc_of_list [ 2; 3; 4 ] in
  check (Alcotest.array Alcotest.int) "merge is pointwise max" [| 2; 5; 4 |]
    (Proto.Vclock.merge a b)

let test_vclock_incr () =
  let vc = Proto.Vclock.create 3 in
  Proto.Vclock.incr vc 1;
  Proto.Vclock.incr vc 1;
  check Alcotest.int "incremented" 2 (Proto.Vclock.get vc 1);
  check Alcotest.int "others zero" 0 (Proto.Vclock.get vc 0)

let vclock_gen nprocs = QCheck.(list_of_size (Gen.return nprocs) (int_bound 20))

let prop_vclock_partial_order =
  QCheck.Test.make ~name:"vclock leq is a partial order; merge is the lub" ~count:200
    QCheck.(triple (vclock_gen 4) (vclock_gen 4) (vclock_gen 4))
    (fun (xs, ys, zs) ->
      let a = vc_of_list xs and b = vc_of_list ys and c = vc_of_list zs in
      let open Proto.Vclock in
      leq a a
      && ((not (leq a b && leq b c)) || leq a c)
      && ((not (leq a b && leq b a)) || a = b)
      && leq a (merge a b)
      && leq b (merge a b)
      && ((not (leq a c && leq b c)) || leq (merge a b) c)
      && concurrent a b = ((not (leq a b)) && not (leq b a)))

(* ------------------------------------------------------------------ *)
(* Interval                                                            *)

(* Build intervals the way an execution would: vc.(proc) = index, and the
   vc records which intervals of other processors had been seen. *)
let interval ~proc ~index ~seen ~nprocs =
  let vc = Proto.Vclock.create nprocs in
  List.iter (fun (p, i) -> Proto.Vclock.set vc p i) seen;
  Proto.Vclock.set vc proc index;
  Proto.Interval.create ~proc ~index ~vc ~epoch:0

let test_interval_precedes_program_order () =
  let a = interval ~proc:0 ~index:1 ~seen:[] ~nprocs:2 in
  let b = interval ~proc:0 ~index:2 ~seen:[] ~nprocs:2 in
  check Alcotest.bool "program order" true (Proto.Interval.precedes a b);
  check Alcotest.bool "no reverse" false (Proto.Interval.precedes b a)

let test_interval_precedes_sync_order () =
  (* p0's interval 1 released to p1, whose interval 2 began with the
     acquire: p1's vc shows p0's index 1 *)
  let a = interval ~proc:0 ~index:1 ~seen:[] ~nprocs:2 in
  let b = interval ~proc:1 ~index:2 ~seen:[ (0, 1) ] ~nprocs:2 in
  check Alcotest.bool "release/acquire order" true (Proto.Interval.precedes a b);
  check Alcotest.bool "concurrent is false" false (Proto.Interval.concurrent a b)

let test_interval_concurrent () =
  let a = interval ~proc:0 ~index:2 ~seen:[] ~nprocs:2 in
  let b = interval ~proc:1 ~index:2 ~seen:[] ~nprocs:2 in
  check Alcotest.bool "unsynchronized intervals concurrent" true
    (Proto.Interval.concurrent a b)

let test_interval_overlap () =
  let a = interval ~proc:0 ~index:1 ~seen:[] ~nprocs:2 in
  let b = interval ~proc:1 ~index:1 ~seen:[] ~nprocs:2 in
  Proto.Interval.add_write_page a 3;
  Proto.Interval.add_read_page a 7;
  Proto.Interval.add_write_page b 7;
  Proto.Interval.add_read_page b 3;
  (* read-write overlaps both ways; no write-write *)
  check (Alcotest.list Alcotest.int) "overlapping pages" [ 3; 7 ]
    (Proto.Interval.overlapping_pages a b);
  let c = interval ~proc:1 ~index:1 ~seen:[] ~nprocs:2 in
  Proto.Interval.add_read_page c 7;
  check (Alcotest.list Alcotest.int) "read-read never overlaps" []
    (Proto.Interval.overlapping_pages a c)

let test_interval_size_bytes () =
  let a = interval ~proc:0 ~index:1 ~seen:[] ~nprocs:4 in
  Proto.Interval.add_write_page a 1;
  Proto.Interval.add_read_page a 2;
  Proto.Interval.add_read_page a 3;
  let with_notices = Proto.Interval.size_bytes ~with_read_notices:true a in
  let without = Proto.Interval.size_bytes ~with_read_notices:false a in
  check Alcotest.int "read notices cost 4 bytes each" 8 (with_notices - without);
  check Alcotest.int "read_notice_bytes" 8 (Proto.Interval.read_notice_bytes a)

let test_interval_dedup_pages () =
  let a = interval ~proc:0 ~index:1 ~seen:[] ~nprocs:2 in
  Proto.Interval.add_write_page a 5;
  Proto.Interval.add_write_page a 5;
  check (Alcotest.list Alcotest.int) "no duplicate notices" [ 5 ]
    a.Proto.Interval.write_pages

(* precedes must agree with full vector-clock comparison whenever the
   intervals come from a consistent history; build random chains. *)
let prop_precedes_matches_leq =
  QCheck.Test.make ~name:"constant-time precedes = vc comparison on histories" ~count:100
    QCheck.(list_of_size (Gen.int_range 2 30) (pair (int_bound 2) (int_bound 2)))
    (fun script ->
      (* replay a tiny 3-proc lock history: each event (proc, lock) is an
         acquire+release of that lock, creating one interval *)
      let nprocs = 3 in
      let clocks = Array.init nprocs (fun _ -> Proto.Vclock.create nprocs) in
      let lock_clock = Hashtbl.create 4 in
      let intervals = ref [] in
      List.iter
        (fun (proc, lock) ->
          (match Hashtbl.find_opt lock_clock lock with
          | Some held -> Proto.Vclock.merge_into ~dst:clocks.(proc) held
          | None -> ());
          Proto.Vclock.incr clocks.(proc) proc;
          let interval =
            Proto.Interval.create ~proc
              ~index:(Proto.Vclock.get clocks.(proc) proc)
              ~vc:(Proto.Vclock.copy clocks.(proc))
              ~epoch:0
          in
          intervals := interval :: !intervals;
          Hashtbl.replace lock_clock lock (Proto.Vclock.copy clocks.(proc)))
        script;
      List.for_all
        (fun a ->
          List.for_all
            (fun b ->
              Proto.Interval.precedes a b
              = Proto.Vclock.leq a.Proto.Interval.vc b.Proto.Interval.vc
              || a == b)
            !intervals)
        !intervals)

(* ------------------------------------------------------------------ *)
(* Race                                                                *)

let race ~addr ~a ~b ~ka ~kb =
  {
    Proto.Race.addr;
    page = 0;
    word = addr / 8;
    first = (a, ka);
    second = (b, kb);
    epoch = 0;
  }

let id proc index = { Proto.Interval.proc; index }

let test_race_normalize_dedup () =
  let r1 = race ~addr:8 ~a:(id 0 1) ~b:(id 1 1) ~ka:Proto.Race.Write ~kb:Proto.Race.Read in
  let r2 = race ~addr:8 ~a:(id 1 1) ~b:(id 0 1) ~ka:Proto.Race.Read ~kb:Proto.Race.Write in
  check Alcotest.bool "symmetric pair equal" true (Proto.Race.equal r1 r2);
  check Alcotest.int "dedup" 1 (List.length (Proto.Race.dedup [ r1; r2; r1 ]))

let test_race_write_write () =
  let ww = race ~addr:0 ~a:(id 0 1) ~b:(id 1 1) ~ka:Proto.Race.Write ~kb:Proto.Race.Write in
  let rw = race ~addr:0 ~a:(id 0 1) ~b:(id 1 1) ~ka:Proto.Race.Read ~kb:Proto.Race.Write in
  check Alcotest.bool "ww" true (Proto.Race.is_write_write ww);
  check Alcotest.bool "rw" false (Proto.Race.is_write_write rw)

let suite =
  [
    ( "proto:vclock",
      [
        Alcotest.test_case "leq/concurrent" `Quick test_vclock_leq;
        Alcotest.test_case "merge" `Quick test_vclock_merge;
        Alcotest.test_case "incr" `Quick test_vclock_incr;
        QCheck_alcotest.to_alcotest prop_vclock_partial_order;
      ] );
    ( "proto:interval",
      [
        Alcotest.test_case "program order" `Quick test_interval_precedes_program_order;
        Alcotest.test_case "sync order" `Quick test_interval_precedes_sync_order;
        Alcotest.test_case "concurrency" `Quick test_interval_concurrent;
        Alcotest.test_case "page overlap" `Quick test_interval_overlap;
        Alcotest.test_case "wire size" `Quick test_interval_size_bytes;
        Alcotest.test_case "notice dedup" `Quick test_interval_dedup_pages;
        QCheck_alcotest.to_alcotest prop_precedes_matches_leq;
      ] );
    ( "proto:race",
      [
        Alcotest.test_case "normalize/dedup" `Quick test_race_normalize_dedup;
        Alcotest.test_case "write-write" `Quick test_race_write_write;
      ] );
  ]
