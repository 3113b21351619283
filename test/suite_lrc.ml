(* Integration tests for the DSM itself: coherence under all three
   protocols (and on the sequentially consistent mesi bus), locks,
   barriers, allocation, lock-grant recording — including a regression
   stress for the ownership-steal lost-update bug. *)

let check = Alcotest.check

(* the three LRC protocols, and the sequentially consistent machine: the
   mesi bus (which ignores the protocol) *)
let machines =
  [
    ("single-writer", "lrc", Coherence.Config.Single_writer);
    ("multi-writer", "lrc", Coherence.Config.Multi_writer);
    ("home-based", "lrc", Coherence.Config.Home_based);
    ("seq-consistent", "mesi", Coherence.Config.Single_writer);
  ]

(* ------------------------------------------------------------------ *)
(* Basic coherence: a barrier publishes writes                         *)

let test_barrier_publishes backend protocol () =
  let cfg = { Coherence.Config.default with backend; protocol } in
  let cluster = Backends.create ~cfg ~nprocs:4 ~pages:4 () in
  let base = cluster.Coherence.Backend.alloc (4 * 8) in
  let body node =
    let open Lrc.Dsm in
    write_int_at node base (pid node) (100 + pid node);
    barrier node;
    (* everyone checks everyone's slot *)
    for p = 0 to nprocs node - 1 do
      let v = read_int_at node base p in
      if v <> 100 + p then failwith (Printf.sprintf "slot %d = %d" p v)
    done;
    barrier node
  in
  cluster.Coherence.Backend.run body

(* ------------------------------------------------------------------ *)
(* Lock-protected read-modify-write: mutual exclusion + visibility     *)

let test_lock_counter backend protocol () =
  let cfg = { Coherence.Config.default with backend; protocol } in
  let cluster = Backends.create ~cfg ~nprocs:4 ~pages:4 () in
  let counter = cluster.Coherence.Backend.alloc 8 in
  let rounds = 10 in
  let body node =
    let open Lrc.Dsm in
    barrier node;
    for _ = 1 to rounds do
      with_lock node 5 (fun () ->
          let v = read_int node counter in
          compute node 2_000.0;
          write_int node counter (v + 1))
    done;
    barrier node;
    if pid node = 0 then begin
      let total = read_int node counter in
      if total <> 4 * rounds then failwith (Printf.sprintf "counter = %d" total)
    end;
    barrier node
  in
  cluster.Coherence.Backend.run body

(* Regression for the ownership-steal bug: many counters share pages,
   each guarded by its own lock, with randomized compute delays to vary
   the interleaving. Every increment must survive. *)
let test_lost_update_stress ~seed ~detect () =
  let worker_count = 8 and ncounters = 16 and rounds = 12 in
  let cfg = { Coherence.Config.default with detect; seed } in
  let cluster = Backends.create ~cfg ~nprocs:worker_count ~pages:4 () in
  let base = cluster.Coherence.Backend.alloc (ncounters * 8 * 32) in
  let addr k = base + (k * 8 * 32) in
  let rng_master = Sim.Rng.create ~seed in
  let rngs = Array.init worker_count (fun _ -> Sim.Rng.split rng_master) in
  let body node =
    let open Lrc.Dsm in
    let rng = rngs.(pid node) in
    barrier node;
    for r = 1 to rounds do
      let k = (pid node + (r * 3)) mod ncounters in
      compute node (float_of_int (Sim.Rng.int rng 200_000));
      with_lock node (10 + k) (fun () ->
          let v = read_int node (addr k) in
          compute node (float_of_int (Sim.Rng.int rng 50_000));
          write_int node (addr k) (v + 1))
    done;
    barrier node;
    if pid node = 0 then begin
      let total = ref 0 in
      for k = 0 to ncounters - 1 do
        total := !total + read_int node (addr k)
      done;
      if !total <> worker_count * rounds then
        failwith
          (Printf.sprintf "lost updates: %d of %d survived" !total (worker_count * rounds))
    end;
    barrier node
  in
  cluster.Coherence.Backend.run body

(* ------------------------------------------------------------------ *)
(* LRC semantics: an unsynchronized read may be stale (and the paper
   depends on it: Figure 5); a synchronized read must be fresh.         *)

let test_stale_read_before_sync () =
  let cluster = Backends.create ~nprocs:2 ~pages:4 () in
  let x = cluster.Coherence.Backend.alloc 8 in
  let observed = ref (-1) in
  let body node =
    let open Lrc.Dsm in
    if pid node = 0 then write_int node x 1;
    barrier node;
    (* p1 warms its copy; p0 overwrites without synchronizing *)
    if pid node = 1 then ignore (read_int node x);
    if pid node = 0 then begin
      compute node 2_000_000.0;
      write_int node x 2
    end;
    if pid node = 1 then begin
      compute node 4_000_000.0;
      observed := read_int node x
    end;
    barrier node;
    (* after the barrier p1 must see the new value *)
    if pid node = 1 then begin
      let v = read_int node x in
      if v <> 2 then failwith "post-barrier read stale"
    end;
    barrier node
  in
  cluster.Coherence.Backend.run body;
  check Alcotest.int "pre-sync read is stale under LRC" 1 !observed

(* ------------------------------------------------------------------ *)
(* Multi-writer: concurrent writers to one page merge through diffs    *)

let test_multi_writer_merges () =
  let cfg = { Coherence.Config.default with protocol = Coherence.Config.Multi_writer } in
  let cluster = Backends.create ~cfg ~nprocs:4 ~pages:2 () in
  let base = cluster.Coherence.Backend.alloc (64 * 8) in
  let body node =
    let open Lrc.Dsm in
    barrier node;
    (* everyone writes a disjoint stripe of the SAME page concurrently *)
    for k = 0 to 15 do
      write_int_at node base ((pid node * 16) + k) (pid node + 1)
    done;
    barrier node;
    if pid node = 0 then
      for p = 0 to 3 do
        for k = 0 to 15 do
          let v = read_int_at node base ((p * 16) + k) in
          if v <> p + 1 then failwith (Printf.sprintf "stripe %d word %d = %d" p k v)
        done
      done;
    barrier node
  in
  cluster.Coherence.Backend.run body;
  let stats = cluster.Coherence.Backend.stats in
  check Alcotest.bool "diffs were created" true (stats.Sim.Stats.diffs_created > 0)

(* ------------------------------------------------------------------ *)
(* API misuse errors                                                   *)

let test_lock_not_reentrant () =
  let cluster = Backends.create ~nprocs:1 ~pages:2 () in
  let body node =
    Lrc.Dsm.lock node 1;
    Lrc.Dsm.lock node 1
  in
  match cluster.Coherence.Backend.run body with
  | () -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument m ->
      check Alcotest.bool "message" true (Testutil.contains m "already held")

let test_unlock_without_lock () =
  let cluster = Backends.create ~nprocs:1 ~pages:2 () in
  match cluster.Coherence.Backend.run (fun node -> Lrc.Dsm.unlock node 1) with
  | () -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument m ->
      check Alcotest.bool "message" true (Testutil.contains m "not held")

let test_unaligned_access_rejected () =
  let cluster = Backends.create ~nprocs:1 ~pages:2 () in
  let x = cluster.Coherence.Backend.alloc 16 in
  match cluster.Coherence.Backend.run (fun node -> ignore (Lrc.Dsm.read_int node (x + 3))) with
  | () -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument m ->
      check Alcotest.bool "message" true (Testutil.contains m "unaligned")

let test_private_address_rejected () =
  let cluster = Backends.create ~nprocs:1 ~pages:2 () in
  match cluster.Coherence.Backend.run (fun node -> ignore (Lrc.Dsm.read_int node 64)) with
  | () -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument m ->
      check Alcotest.bool "message" true (Testutil.contains m "outside the shared segment")

(* ------------------------------------------------------------------ *)
(* Allocation                                                          *)

let test_alloc_alignment () =
  let cluster = Backends.create ~nprocs:1 ~pages:8 () in
  let a = cluster.Coherence.Backend.alloc 24 in
  let b = cluster.Coherence.Backend.alloc ~align:4096 8 in
  check Alcotest.int "page aligned" 0 (b mod 4096);
  check Alcotest.bool "disjoint" true (b >= a + 24)

let test_alloc_exhaustion () =
  let cluster = Backends.create ~nprocs:1 ~pages:1 () in
  Alcotest.check_raises "exhausted" (Invalid_argument "Cluster.alloc: shared segment exhausted")
    (fun () -> ignore (cluster.Coherence.Backend.alloc 8192))

let test_node_malloc_follows_cluster_alloc () =
  let cluster = Backends.create ~nprocs:2 ~pages:8 () in
  let a = cluster.Coherence.Backend.alloc 64 in
  let got = ref [] in
  let body node =
    let addr = Lrc.Dsm.malloc node 8 in
    got := addr :: !got;
    Lrc.Dsm.barrier node
  in
  cluster.Coherence.Backend.run body;
  match !got with
  | [ x; y ] ->
      check Alcotest.int "same SPMD address" x y;
      check Alcotest.bool "after cluster alloc" true (x >= a + 64)
  | _ -> Alcotest.fail "expected two allocations"

(* ------------------------------------------------------------------ *)
(* Determinism: same configuration, same everything                    *)

let test_deterministic_runs () =
  let run () =
    let cfg = Testutil.detect_cfg in
    let cluster = Backends.create ~cfg ~nprocs:4 ~pages:4 () in
    let x = cluster.Coherence.Backend.alloc 64 in
    let body node =
      let open Lrc.Dsm in
      barrier node;
      with_lock node 2 (fun () ->
          let v = read_int node x in
          write_int node x (v + 1));
      write_int_at node x (1 + pid node) (pid node);
      barrier node
    in
    cluster.Coherence.Backend.run body;
    ( cluster.Coherence.Backend.sim_time (),
      cluster.Coherence.Backend.trace (),
      Testutil.racy_addrs_of cluster )
  in
  let t1, trace1, races1 = run () in
  let t2, trace2, races2 = run () in
  check Alcotest.int "same simulated time" t1 t2;
  check Alcotest.bool "same trace" true (trace1 = trace2);
  check Testutil.addr_list "same races" races1 races2

let suite =
  [
    ( "lrc:coherence",
      List.concat_map
        (fun (name, backend, protocol) ->
          [
            Alcotest.test_case (name ^ " barrier publishes") `Quick
              (test_barrier_publishes backend protocol);
            Alcotest.test_case (name ^ " lock counter") `Quick
              (test_lock_counter backend protocol);
          ])
        machines
      @ [
          Alcotest.test_case "stale read before sync (LRC)" `Quick test_stale_read_before_sync;
          Alcotest.test_case "multi-writer diff merge" `Quick test_multi_writer_merges;
        ] );
    ( "lrc:lost-update-stress",
      List.concat_map
        (fun seed ->
          [
            Alcotest.test_case (Printf.sprintf "seed %d detect" seed) `Quick
              (test_lost_update_stress ~seed ~detect:true);
            Alcotest.test_case (Printf.sprintf "seed %d nodetect" seed) `Quick
              (test_lost_update_stress ~seed ~detect:false);
          ])
        [ 1; 4; 9; 27 ] );
    ( "lrc:api",
      [
        Alcotest.test_case "lock not reentrant" `Quick test_lock_not_reentrant;
        Alcotest.test_case "unlock without lock" `Quick test_unlock_without_lock;
        Alcotest.test_case "unaligned rejected" `Quick test_unaligned_access_rejected;
        Alcotest.test_case "private rejected" `Quick test_private_address_rejected;
        Alcotest.test_case "alloc alignment" `Quick test_alloc_alignment;
        Alcotest.test_case "alloc exhaustion" `Quick test_alloc_exhaustion;
        Alcotest.test_case "node malloc follows cluster" `Quick
          test_node_malloc_follows_cluster_alloc;
      ] );
    ( "lrc:replay",
      [
        Alcotest.test_case "deterministic runs" `Quick test_deterministic_runs;
      ] );
  ]
