(* The cache-coherent bus backends (MESI, Dragon) against the same bar
   the LRC protocols clear: the online detector must agree with the
   offline happens-before oracle on every protocol-stress kernel, and
   the set of racy addresses an app exhibits must not depend on which
   coherence backend executed it — races are a property of the program,
   not of the machine underneath. *)

let check = Alcotest.check

let cc_backends = [ "mesi"; "dragon" ]

(* Kernels: detector == oracle under both bus protocols, with the
   per-kernel racy-address counts pinned by the table shared with
   suite_litmus (Testutil.kernel_expected_races). *)

(* ------------------------------------------------------------------ *)
(* Protocol character: the same kernel moves data differently under
   write-invalidate and write-update, and each backend's signature
   counters must show it. *)

let kernel_stats backend kernel =
  let cfg =
    kernel.Litmus.k_cfg
      { Coherence.Config.default with Coherence.Config.backend; detect = true }
  in
  let app =
    Litmus.app ~name:kernel.Litmus.k_name ~words:kernel.Litmus.k_words
      ~binary:kernel.Litmus.k_binary kernel.Litmus.k_body
  in
  (Core.Driver.run ~cfg ~app ~nprocs:kernel.Litmus.k_nprocs ()).Core.Driver.stats

let test_mesi_invalidates () =
  let stats = kernel_stats "mesi" Litmus.false_sharing_writers in
  check Alcotest.bool "bus carried transactions" true (stats.Sim.Stats.bus_transactions > 0);
  check Alcotest.bool "sharing caused invalidations" true (stats.Sim.Stats.invalidations > 0);
  check Alcotest.int "write-invalidate never broadcasts updates" 0
    stats.Sim.Stats.bus_updates;
  check Alcotest.int "no DSM messages on a bus machine" 0 stats.Sim.Stats.messages

let test_dragon_updates () =
  let stats = kernel_stats "dragon" Litmus.false_sharing_writers in
  check Alcotest.bool "bus carried transactions" true (stats.Sim.Stats.bus_transactions > 0);
  check Alcotest.bool "sharing caused word broadcasts" true (stats.Sim.Stats.bus_updates > 0);
  check Alcotest.int "write-update never invalidates" 0 stats.Sim.Stats.invalidations;
  check Alcotest.int "no DSM messages on a bus machine" 0 stats.Sim.Stats.messages

(* ------------------------------------------------------------------ *)
(* The hit path allocates nothing: a shared access that hits pays
   counters and a bitmap bit, never the minor heap. On LRC a hit is an
   access to a valid page, under every caching protocol, whether the
   site's check runs or is elided. Float accesses and private-work
   charges count too: the access path inlines into its caller, so no
   float is boxed. These pins fail by design under [--profile dev],
   where dune compiles every module [-opaque] and nothing inlines
   across modules. *)

let minor_words_of f =
  let before = Gc.minor_words () in
  f ();
  Gc.minor_words () -. before

(* Fails naming every loop of 10,000 operations that allocated more than
   the measurement's own slack. *)
let check_allocated_nothing loops =
  match List.filter (fun (_, words) -> words > 64.0) loops with
  | [] -> ()
  | bad ->
      Alcotest.failf "allocated: %s"
        (String.concat "; "
           (List.map (fun (what, words) -> Printf.sprintf "%s %.0f minor words" what words) bad))

let test_hits_allocate_nothing ?(protocol = Coherence.Config.Single_writer) ?(elide = false)
    backend () =
  let cfg =
    {
      Coherence.Config.default with
      Coherence.Config.backend;
      protocol;
      detect = true;
      elide_sites = (if elide then Some [ "hit:r"; "hit:w" ] else None);
    }
  in
  let machine = Backends.create ~cfg ~nprocs:1 ~pages:2 () in
  let addr = machine.Coherence.Backend.alloc 8 ~name:"hits" in
  let int_words = ref 0.0 and float_words = ref 0.0 in
  machine.Coherence.Backend.run (fun node ->
      (* the miss (or write fault) that brings the line (or page) in,
         then a read and a write that settle its state *)
      Lrc.Dsm.write_int node ~site:"warm" addr 1;
      ignore (Lrc.Dsm.read_int node ~site:"warm" addr);
      Lrc.Dsm.write_int node ~site:"warm" addr 2;
      int_words :=
        minor_words_of (fun () ->
            for i = 1 to 10_000 do
              ignore (Sys.opaque_identity (Lrc.Dsm.read_int node ~site:"hit:r" addr));
              Lrc.Dsm.write_int node ~site:"hit:w" addr i
            done);
      Lrc.Dsm.write_float node ~site:"warm" addr 0.0;
      float_words :=
        minor_words_of (fun () ->
            for _ = 1 to 10_000 do
              let v = Lrc.Dsm.read_float node ~site:"hit:r" addr in
              Lrc.Dsm.write_float node ~site:"hit:w" addr (v +. 1.0)
            done));
  let stats = machine.Coherence.Backend.stats in
  if backend = "lrc" then begin
    check Alcotest.int "one write fault, at the warm-up" 1 stats.Sim.Stats.write_faults;
    check Alcotest.int "no read fault" 0 stats.Sim.Stats.read_faults;
    check Alcotest.int "elided checks" (if elide then 40_000 else 0)
      stats.Sim.Stats.elided_checks
  end
  else check Alcotest.int "one miss, every other access a hit" 1 stats.Sim.Stats.cache_misses;
  check_allocated_nothing
    [
      (Printf.sprintf "10,000 int read+write hit pairs on %s" backend, !int_words);
      (Printf.sprintf "10,000 float read+write hit pairs on %s" backend, !float_words);
    ]

(* Private work: a detecting [touch_private] charges two overhead
   categories, and a [compute] of a computed float charges its
   instructions; neither boxes the charge. *)
let test_private_work_allocates_nothing () =
  let cfg = { Coherence.Config.default with Coherence.Config.detect = true } in
  let machine = Backends.create ~cfg ~nprocs:1 ~pages:2 () in
  let touch_words = ref 0.0 and compute_words = ref 0.0 in
  machine.Coherence.Backend.run (fun node ->
      touch_words :=
        minor_words_of (fun () ->
            for _ = 1 to 10_000 do
              Lrc.Dsm.touch_private node 3
            done);
      compute_words :=
        minor_words_of (fun () ->
            for i = 1 to 10_000 do
              Lrc.Dsm.compute node (float_of_int i *. 0.5)
            done));
  let stats = machine.Coherence.Backend.stats in
  check Alcotest.int "private accesses" 30_000 stats.Sim.Stats.private_accesses;
  check Alcotest.bool "procedure calls charged" true
    (Sim.Stats.charged stats Sim.Stats.Proc_call > 0.0);
  check_allocated_nothing
    [ ("10,000 touch_private calls", !touch_words); ("10,000 compute calls", !compute_words) ]

let lrc_hit_cases =
  Alcotest.test_case "detecting touch_private and compute allocate nothing" `Quick
    test_private_work_allocates_nothing
  :: List.concat_map
    (fun (name, protocol) ->
      List.map
        (fun elide ->
          Alcotest.test_case
            (Printf.sprintf "lrc %s%s valid-page accesses allocate nothing" name
               (if elide then " elided" else ""))
            `Quick
            (test_hits_allocate_nothing ~protocol ~elide "lrc"))
        [ false; true ])
    [
      ("sw", Coherence.Config.Single_writer);
      ("mw", Coherence.Config.Multi_writer);
      ("hb", Coherence.Config.Home_based);
    ]

(* A bad address fails with the machine's own diagnostic, before any
   page arithmetic or accounting: one check in the access path every
   backend shares, prefixed with the machine's name. *)
let test_bad_address_rejected backend () =
  let cfg = { Coherence.Config.default with Coherence.Config.backend } in
  let prefix = if backend = "lrc" then "Node" else "Machine" in
  let expect what access message =
    let machine = Backends.create ~cfg ~nprocs:1 ~pages:2 () in
    let base = machine.Coherence.Backend.alloc 16 ~name:"bad" in
    match machine.Coherence.Backend.run (fun node -> access node base) with
    | () -> Alcotest.failf "%s: expected Invalid_argument" what
    | exception Invalid_argument m ->
        check Alcotest.bool (what ^ ": " ^ m) true (Testutil.contains m message)
  in
  let private_addr = 64 in
  expect "private read"
    (fun node _ -> ignore (Lrc.Dsm.read_int node private_addr))
    (prefix ^ ": address 0x40 outside the shared segment");
  expect "private write"
    (fun node _ -> Lrc.Dsm.write_int node private_addr 1)
    (prefix ^ ": address 0x40 outside the shared segment");
  expect "unaligned read"
    (fun node base -> ignore (Lrc.Dsm.read_float node (base + 3)))
    (prefix ^ ": unaligned shared access");
  expect "unaligned write"
    (fun node base -> Lrc.Dsm.write_int node (base + 3) 1)
    (prefix ^ ": unaligned shared access")

(* Replacement: an invalid way first, else the least recently touched;
   [find] touches, [probe] does not. *)
let test_cache_replacement () =
  let is_valid s = s <> 0 in
  let cache = Cc.Cache.create ~sets:2 ~ways:3 ~invalid:0 in
  let victim line = Cc.Cache.victim cache ~line ~is_valid in
  (* even lines map to set 0, slots 0..2 *)
  List.iter
    (fun line ->
      let i = victim line in
      check Alcotest.int "an invalid way is chosen first, in way order" (line / 2) i;
      Cc.Cache.claim cache i ~line ~state:1)
    [ 0; 2; 4 ];
  check Alcotest.int "full set: the least-recently-touched way" 0 (victim 6);
  check Alcotest.int "find hits" 0 (Cc.Cache.find cache ~line:0 ~is_valid);
  check Alcotest.int "find touched way 0; way 1 is now least recent" 1 (victim 6);
  check Alcotest.int "probe hits" 1 (Cc.Cache.probe cache ~line:2 ~is_valid);
  check Alcotest.int "probe did not touch way 1" 1 (victim 6);
  check Alcotest.int "a miss is -1" (-1) (Cc.Cache.find cache ~line:6 ~is_valid);
  check Alcotest.int "another set's lines are not seen" (-1)
    (Cc.Cache.probe cache ~line:1 ~is_valid);
  (Cc.Cache.slot cache 2).Cc.Cache.state <- 0;
  check Alcotest.int "an invalid way beats the least recent one" 2 (victim 6);
  check Alcotest.int "an invalid slot does not hit" (-1)
    (Cc.Cache.probe cache ~line:4 ~is_valid);
  Cc.Cache.claim cache 2 ~line:6 ~state:1;
  check Alcotest.int "claim retags the slot" 2 (Cc.Cache.probe cache ~line:6 ~is_valid);
  ignore (Cc.Cache.find cache ~line:2 ~is_valid);
  check Alcotest.int "claim touched way 2, so way 0 is least recent" 0 (victim 8)

(* ------------------------------------------------------------------ *)
(* Registry and configuration edges. *)

let test_registry () =
  check (Alcotest.list Alcotest.string) "registry order" [ "lrc"; "mesi"; "dragon" ]
    Backends.all;
  List.iter
    (fun name ->
      check Alcotest.bool (name ^ " known") true (Backends.known name);
      check Alcotest.bool (name ^ " described") true (Backends.describe name <> None))
    Backends.all;
  check Alcotest.bool "unknown name rejected" false (Backends.known "mosi");
  Alcotest.check_raises "create rejects unknown backend"
    (Invalid_argument "unknown backend \"mosi\" (available: lrc, mesi, dragon)")
    (fun () ->
      ignore
        (Backends.create
           ~cfg:{ Coherence.Config.default with Coherence.Config.backend = "mosi" }
           ~nprocs:2 ~pages:2 ()))

let test_cc_rejects_faults () =
  let cfg =
    {
      Coherence.Config.default with
      Coherence.Config.backend = "mesi";
      fault = { Sim.Fault.none with Sim.Fault.drop = 0.5 };
    }
  in
  Alcotest.check_raises "bus backends have no lossy wire"
    (Invalid_argument
       "backend mesi: wire faults and the reliable transport need the lrc backend (a \
        snooping bus has no lossy wire)") (fun () ->
      ignore (Backends.create ~cfg ~nprocs:2 ~pages:2 ()))

(* ------------------------------------------------------------------ *)
(* Property: for barrier-structured SPMD programs, the racy-address set
   is backend-independent. A random program writes random words in
   random barrier-separated rounds; whatever the machine underneath,
   the same address set must fall out of detection. *)

let random_program ~rounds ~words seed =
  (* deterministic per-(seed, round, proc) access list: a few reads and
     writes into a small shared array, some racy, some disjoint *)
  let acc = Hashtbl.hash in
  fun node base ->
    let pid = Lrc.Dsm.pid node in
    for round = 0 to rounds - 1 do
      for k = 0 to 3 do
        let h = acc (seed, round, pid, k) in
        let word = h mod words in
        let addr = base + (8 * word) in
        if h land 16 = 0 then
          Lrc.Dsm.write_int node ~site:"prop:w" addr h
        else ignore (Lrc.Dsm.read_int node ~site:"prop:r" addr)
      done;
      Lrc.Dsm.barrier node
    done

let racy_addrs_under ~backend ~nprocs ~words ~rounds seed =
  let cfg =
    {
      Coherence.Config.default with
      Coherence.Config.backend;
      detect = true;
      record_trace = true;
    }
  in
  let machine = Backends.create ~cfg ~nprocs ~pages:2 () in
  let base = machine.Coherence.Backend.alloc (words * 8) ~name:"prop" in
  let body = random_program ~rounds ~words seed in
  machine.Coherence.Backend.run (fun node -> body node base);
  let detected =
    machine.Coherence.Backend.races ()
    |> List.map (fun (r : Proto.Race.t) -> r.Proto.Race.addr)
    |> List.sort_uniq compare
  in
  let oracle =
    Racedetect.Oracle.racy_addrs ~nprocs (machine.Coherence.Backend.trace ())
  in
  (detected, oracle)

let prop_backend_independent =
  QCheck.Test.make ~count:30
    ~name:"racy-address set is backend-independent (and = oracle) for SPMD programs"
    QCheck.(quad (int_range 2 4) (int_range 4 16) (int_range 1 4) small_int)
    (fun (nprocs, words, rounds, seed) ->
      let runs =
        List.map
          (fun backend -> racy_addrs_under ~backend ~nprocs ~words ~rounds seed)
          Backends.all
      in
      List.for_all
        (fun (detected, oracle) ->
          detected = oracle && detected = fst (List.hd runs))
        runs)

let suite =
  [
    ( "cc:kernels",
      List.concat_map
        (fun backend ->
          Testutil.kernel_cases ~label:backend ~run:(fun kernel ->
              Litmus.run_kernel ~backend kernel))
        cc_backends );
    ( "cc:machine",
      [
        Alcotest.test_case "MESI invalidates, never updates" `Quick test_mesi_invalidates;
        Alcotest.test_case "Dragon updates, never invalidates" `Quick test_dragon_updates;
        Alcotest.test_case "backend registry" `Quick test_registry;
        Alcotest.test_case "faults rejected" `Quick test_cc_rejects_faults;
        Alcotest.test_case "mesi cache hits allocate nothing" `Quick
          (test_hits_allocate_nothing "mesi");
        Alcotest.test_case "dragon cache hits allocate nothing" `Quick
          (test_hits_allocate_nothing "dragon");
        Alcotest.test_case "cache replacement rules" `Quick test_cache_replacement;
        Alcotest.test_case "mesi rejects bad addresses" `Quick
          (test_bad_address_rejected "mesi");
        Alcotest.test_case "dragon rejects bad addresses" `Quick
          (test_bad_address_rejected "dragon");
        Alcotest.test_case "lrc rejects bad addresses" `Quick
          (test_bad_address_rejected "lrc");
        QCheck_alcotest.to_alcotest prop_backend_independent;
      ] );
    ("lrc:allocation", lrc_hit_cases);
  ]
