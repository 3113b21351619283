(* Lossy-network mode, end to end: the DSM protocols and the race
   detector running over Sim.Transport on a faulty wire must behave
   exactly as they do over the reliable wire — same detector = oracle
   agreement, same racy addresses, and (for barrier-deterministic apps)
   the same reports and final memory image bit for bit. *)

let check = Alcotest.check

let lossy_plan drop =
  { Sim.Fault.none with Sim.Fault.drop; duplicate = drop /. 4.0; reorder = drop /. 2.0 }

let fault_cfg ?(drop = 0.2) seed =
  {
    Testutil.detect_cfg with
    Coherence.Config.seed;
    fault = lossy_plan drop;
    transport = Some Sim.Transport.default_config;
  }

(* ------------------------------------------------------------------ *)
(* Coherence and detection correctness on a lossy wire                  *)

let test_lossy_coherence protocol () =
  (* a locked counter and one racy word, with 20% of wire frames dropped
     and more duplicated/reordered: locked increments must not be lost,
     and the detector must still agree with the offline oracle *)
  List.iter
    (fun seed ->
      let cfg = { (fault_cfg seed) with Coherence.Config.protocol } in
      let cluster = Backends.create ~cfg ~nprocs:4 ~pages:4 () in
      let counter = cluster.Coherence.Backend.alloc 8 in
      let racy = cluster.Coherence.Backend.alloc 8 in
      let body node =
        let open Lrc.Dsm in
        barrier node;
        for _ = 1 to 5 do
          with_lock node 3 (fun () ->
              let v = read_int node counter in
              compute node 20_000.0;
              write_int node counter (v + 1))
        done;
        if pid node = 0 then write_int node racy 1;
        if pid node = 3 then ignore (read_int node racy);
        barrier node;
        if pid node = 0 then begin
          let total = read_int node counter in
          if total <> 20 then failwith (Printf.sprintf "lossy wire lost updates: %d" total)
        end;
        barrier node
      in
      cluster.Coherence.Backend.run body;
      let detected = Testutil.racy_addrs_of cluster in
      let oracle = Racedetect.Oracle.racy_addrs ~nprocs:4 (cluster.Coherence.Backend.trace ()) in
      check Testutil.addr_list "detector = oracle under loss" oracle detected;
      check Testutil.addr_list "exactly the racy word" [ racy ] detected;
      let stats = cluster.Coherence.Backend.stats in
      check Alcotest.bool "wire was lossy" true (stats.Sim.Stats.frames_dropped > 0);
      check Alcotest.bool "retransmissions repaired it" true
        (stats.Sim.Stats.retransmits > 0))
    [ 1; 7; 23 ]

let test_grant_overtaking_its_ack () =
  (* One lock, hammered under 40% loss. A lock grant travels the token
     chain, so a retransmitted manager ack can arrive after its grant —
     even after the node has released and asked again. Taking that stale
     ack for the new request's sequence number parked the next forward
     wrongly: a lost handoff (deadlock) or a second parked forward
     (assertion failure in on_lock_fwd). Seeds 16, 21, 33 and 38 hit it. *)
  for seed = 1 to 40 do
    let cfg = fault_cfg ~drop:0.4 seed in
    let cluster = Backends.create ~cfg ~nprocs:4 ~pages:2 () in
    let counter = cluster.Coherence.Backend.alloc 8 in
    let body node =
      let open Lrc.Dsm in
      for _ = 1 to 50 do
        with_lock node 1 (fun () -> write_int node counter (read_int node counter + 1))
      done;
      barrier node;
      if pid node = 0 then
        check Alcotest.int (Printf.sprintf "seed %d: no increment lost" seed) 200
          (read_int node counter)
    in
    match cluster.Coherence.Backend.run body with
    | () -> ()
    | exception Sim.Engine.Deadlock d ->
        Alcotest.failf "seed %d: %s" seed (Sim.Engine.diagnosis_to_string d)
  done

(* ------------------------------------------------------------------ *)
(* Report stability: 0% drop vs 20% drop                                *)

let run_app ~name ~drop =
  let app = Apps.Registry.make ~scale:Apps.Registry.Small name in
  let cfg =
    {
      Coherence.Config.default with
      Coherence.Config.fault = lossy_plan drop;
      transport = Some Sim.Transport.default_config;
    }
  in
  Core.Driver.run ~cfg ~app ~nprocs:4 ()

let test_sor_reports_stable () =
  (* SOR is barrier-only, hence fully deterministic: a 20%-drop run must
     reproduce the 0%-drop run's races AND memory image bit for bit *)
  let clean = run_app ~name:"sor" ~drop:0.0 in
  let lossy = run_app ~name:"sor" ~drop:0.2 in
  check Alcotest.int "same race count" (List.length clean.Core.Driver.races)
    (List.length lossy.Core.Driver.races);
  check Testutil.addr_list "same racy addresses" (Core.Driver.racy_addrs clean)
    (Core.Driver.racy_addrs lossy);
  check Alcotest.bool "identical race reports" true
    (clean.Core.Driver.races = lossy.Core.Driver.races);
  check Alcotest.int "identical memory image" clean.Core.Driver.mem_checksum
    lossy.Core.Driver.mem_checksum;
  check Alcotest.bool "clean transport never retransmits" true
    (clean.Core.Driver.stats.Sim.Stats.retransmits = 0);
  check Alcotest.bool "lossy run retransmits" true
    (lossy.Core.Driver.stats.Sim.Stats.retransmits > 0)

let test_tsp_racy_set_stable () =
  (* TSP is lock-based: retransmission delays may permute lock grants, so
     only the racy-address set is required to be stable *)
  let clean = run_app ~name:"tsp" ~drop:0.0 in
  let lossy = run_app ~name:"tsp" ~drop:0.2 in
  check Testutil.addr_list "same racy addresses" (Core.Driver.racy_addrs clean)
    (Core.Driver.racy_addrs lossy)

(* ------------------------------------------------------------------ *)
(* Deadlock diagnosis at the cluster level                              *)

(* Node 1 is permanently partitioned from the manager, so the barrier
   never completes: the transport exhausts its retry cap on the dead
   link, the event queue drains, and the run ends in the engine's
   structured diagnosis. *)
let severed_barrier max_retries =
  let severed = { Sim.Fault.p_a = 0; p_b = 1; p_from_ns = 0; p_until_ns = max_int } in
  let cfg =
    {
      Testutil.detect_cfg with
      Coherence.Config.fault = { Sim.Fault.none with Sim.Fault.partitions = [ severed ] };
      transport = Some { Sim.Transport.max_retries };
    }
  in
  let cluster = Backends.create ~cfg ~nprocs:2 ~pages:2 () in
  match cluster.Coherence.Backend.run (fun node -> Lrc.Dsm.barrier node) with
  | () -> Alcotest.fail "expected Deadlock"
  | exception Sim.Engine.Deadlock diagnosis -> (cluster, diagnosis)

let test_capped_retries_structured_diagnosis () =
  (* the diagnosis names the blocked processes and the dead link *)
  let cluster, diagnosis = severed_barrier 5 in
  let text = Sim.Engine.diagnosis_to_string diagnosis in
  check Alcotest.int "both processes still live" 2 diagnosis.Sim.Engine.diag_live;
  check Alcotest.bool "reports the dead link" true (Testutil.contains text "FAILED");
  check Alcotest.bool "reports the half-arrived barrier" true
    (Testutil.contains text "1 of 2 arrival(s)");
  check Alcotest.bool "link failure counted" true
    (cluster.Coherence.Backend.stats.Sim.Stats.link_failures > 0)

let test_largest_retry_cap_drains () =
  (* at the largest cap Config.check accepts the timer chain still ends:
     with the timeout topped out at 16 ms the dead link is given up
     within about 16 simulated seconds *)
  let cluster, diagnosis = severed_barrier Sim.Transport.max_retry_cap in
  let text = Sim.Engine.diagnosis_to_string diagnosis in
  check Alcotest.bool "queue drained" true (Testutil.contains text "event queue drained");
  check Alcotest.bool "reports the dead link" true (Testutil.contains text "FAILED");
  check Alcotest.bool "drained within 17 simulated seconds" true
    (diagnosis.Sim.Engine.diag_time < 17_000_000_000);
  check Alcotest.bool "every timeout counted" true
    (cluster.Coherence.Backend.stats.Sim.Stats.rto_timeouts > Sim.Transport.max_retry_cap)

let test_lock_cycle_diagnosed backend () =
  (* p0 takes lock 1 then 2, p1 takes 2 then 1; the idle between the two
     acquires lets both first grants land, so each waits on the other's
     lock until the event queue drains *)
  let cfg = { Coherence.Config.default with Coherence.Config.backend } in
  let machine = Backends.create ~cfg ~nprocs:2 ~pages:2 () in
  let body node =
    let first, second = if Lrc.Dsm.pid node = 0 then (1, 2) else (2, 1) in
    Lrc.Dsm.lock node first;
    Lrc.Dsm.idle node 1_000_000.0;
    Lrc.Dsm.lock node second;
    Lrc.Dsm.unlock node second;
    Lrc.Dsm.unlock node first
  in
  match machine.Coherence.Backend.run body with
  | () -> Alcotest.fail "expected Deadlock"
  | exception Sim.Engine.Deadlock diagnosis ->
      check Alcotest.int "both processes live" 2 diagnosis.Sim.Engine.diag_live;
      let blocked = List.sort compare diagnosis.Sim.Engine.diag_blocked in
      check (Alcotest.list Alcotest.int) "both blocked" [ 0; 1 ] (List.map fst blocked);
      List.iter2
        (fun (_, label) lock ->
          let want = Printf.sprintf "grant of lock %d" lock in
          if not (Testutil.contains label want) then
            Alcotest.failf "label %S lacks %S" label want)
        blocked [ 2; 1 ];
      if backend <> "lrc" then
        List.iter
          (fun note ->
            check Alcotest.bool note true (List.mem note diagnosis.Sim.Engine.diag_notes))
          [ "lock 1: held by p0, 1 waiting"; "lock 2: held by p1, 1 waiting" ]

(* ------------------------------------------------------------------ *)
(* One seed, reliable and lossy                                         *)

let test_reliable_and_lossy_sor_agree () =
  (* two reliable runs at net seed 99 are identical, and a 20%-drop run
     at the same seed converges to the same final memory and races (SOR
     is barrier-deterministic) *)
  let run ~drop ~transport =
    let app = Apps.Registry.make ~scale:Apps.Registry.Small "sor" in
    let cfg =
      {
        Coherence.Config.default with
        Coherence.Config.fault = lossy_plan drop;
        transport = (if transport then Some Sim.Transport.default_config else None);
        seed = 99;
      }
    in
    Core.Driver.run ~cfg ~app ~nprocs:4 ()
  in
  let a = run ~drop:0.0 ~transport:false in
  let b = run ~drop:0.0 ~transport:false in
  check Alcotest.int "reliable runs reproducible" a.Core.Driver.sim_time_ns
    b.Core.Driver.sim_time_ns;
  let c = run ~drop:0.2 ~transport:true in
  check Alcotest.int "lossy converges to the same memory" a.Core.Driver.mem_checksum
    c.Core.Driver.mem_checksum;
  check Alcotest.bool "lossy races match" true
    (Core.Driver.racy_addrs a = Core.Driver.racy_addrs c)

let suite =
  [
    ( "faults:coherence",
      [
        Alcotest.test_case "lossy: single-writer" `Quick
          (test_lossy_coherence Coherence.Config.Single_writer);
        Alcotest.test_case "lossy: multi-writer" `Quick
          (test_lossy_coherence Coherence.Config.Multi_writer);
        Alcotest.test_case "lossy: home-based" `Quick
          (test_lossy_coherence Coherence.Config.Home_based);
        Alcotest.test_case "lock grant overtaking its ack" `Quick
          test_grant_overtaking_its_ack;
      ] );
    ( "faults:stability",
      [
        Alcotest.test_case "sor bit-identical at 20% drop" `Quick test_sor_reports_stable;
        Alcotest.test_case "tsp racy set stable at 20% drop" `Quick test_tsp_racy_set_stable;
        Alcotest.test_case "sor reliable = lossy" `Quick test_reliable_and_lossy_sor_agree;
      ] );
    ( "faults:deadlock",
      Alcotest.test_case "capped retries diagnosed" `Quick
        test_capped_retries_structured_diagnosis
      :: Alcotest.test_case "largest retry cap drains" `Quick test_largest_retry_cap_drains
      :: List.map
           (fun backend ->
             Alcotest.test_case (backend ^ ": lock cycle diagnosed") `Quick
               (test_lock_cycle_diagnosed backend))
           [ "lrc"; "mesi"; "dragon" ] );
  ]
