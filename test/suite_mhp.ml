(* The static MHP race analysis: pinned per-app and per-kernel reports,
   the dynamic soundness gate (every race the detector or the oracle
   observes must map to a statically flagged pair), the
   instrumentation-elision equivalence harness, and a qcheck
   differential fuzzer against a brute-force interleaving enumerator. *)

let check = Alcotest.check

let app name = Apps.Registry.make ~scale:Apps.Registry.Small name
let report_of name = Instrument.Mhp.analyze ((app name).Apps.App.binary ())

let app_names = [ "fft"; "sor"; "tsp"; "water"; "lu" ]

(* ------------------------------------------------------------------ *)
(* Pinned static reports per application                               *)

let test_app_report_pins () =
  (* (name, pairs, mismatch pairs, race-free sites, shared sites) *)
  List.iter
    (fun (name, pairs, mismatches, free, shared) ->
      let r = report_of name in
      check Alcotest.int (name ^ ": pair count") pairs (List.length r.Instrument.Mhp.pairs);
      check Alcotest.int (name ^ ": mismatch pairs") mismatches
        (List.length
           (List.filter
              (fun p -> p.Instrument.Mhp.p_severity = Instrument.Mhp.Mismatch)
              r.Instrument.Mhp.pairs));
      check Alcotest.int (name ^ ": race-free sites") free
        (List.length r.Instrument.Mhp.race_free_sites);
      check Alcotest.int (name ^ ": shared sites") shared
        (List.length r.Instrument.Mhp.shared_sites))
    [
      ("fft", 9, 0, 6, 12);
      ("sor", 3, 0, 5, 7);
      ("tsp", 4, 1, 9, 14);
      ("water", 15, 3, 3, 9);
      ("lu", 6, 0, 0, 6);
    ]

let test_known_racy_pairs_flagged () =
  let tsp = report_of "tsp" in
  check Alcotest.bool "tsp: bound_prune x bound_update flagged" true
    (Instrument.Mhp.covers tsp ~site_a:"tsp:bound_prune" ~site_b:"tsp:bound_update");
  let water = report_of "water" in
  check Alcotest.bool "water: pot_racy x pot_locked flagged" true
    (Instrument.Mhp.covers water ~site_a:"water:pot_racy" ~site_b:"water:pot_locked")

let test_partition_is_exact () =
  (* may-race and race-free partition the shared sites *)
  List.iter
    (fun name ->
      let r = report_of name in
      let union =
        List.sort_uniq compare
          (r.Instrument.Mhp.may_race_sites @ r.Instrument.Mhp.race_free_sites)
      in
      check (Alcotest.list Alcotest.string) (name ^ ": partition")
        (List.sort_uniq compare r.Instrument.Mhp.shared_sites)
        union;
      List.iter
        (fun s ->
          check Alcotest.bool (name ^ ": " ^ s ^ " joins no pair") false
            (Instrument.Mhp.covers_site r ~site:s))
        r.Instrument.Mhp.race_free_sites)
    app_names

let test_report_deterministic () =
  List.iter
    (fun name ->
      let a = report_of name and b = report_of name in
      check Alcotest.bool (name ^ ": analyze is deterministic") true (a = b))
    app_names

(* ------------------------------------------------------------------ *)
(* Pinned static reports per protocol-stress kernel                    *)

let kernel_report (k : Litmus.kernel) = Instrument.Mhp.analyze (k.Litmus.k_binary ())

let test_kernel_report_pins () =
  (* fully race-free kernels: lock chains and stacked invalidations *)
  List.iter
    (fun (k : Litmus.kernel) ->
      let r = kernel_report k in
      check Alcotest.int (k.k_name ^ ": no static pairs") 0 (List.length r.Instrument.Mhp.pairs))
    [ Litmus.lock_handoff_chain; Litmus.lock_chained_publish ];
  (* write-notice-invalid: the single-writer stores are flagged as
     self-pairs (the pid-0-only discipline is beyond the SPMD model);
     the barrier-separated warm and verify phases are proven clean *)
  let wni = kernel_report Litmus.write_notice_invalid_page in
  check (Alcotest.list Alcotest.string) "wni: warm and verify elidable"
    [ "wni:verify"; "wni:warm" ]
    wni.Instrument.Mhp.race_free_sites;
  (* diff-cache-reuse: only the post-race verify phase is provably clean *)
  let dcr = kernel_report Litmus.diff_cache_reuse in
  check (Alcotest.list Alcotest.string) "dcr: verify elidable" [ "dcr:verify" ]
    dcr.Instrument.Mhp.race_free_sites;
  (* false sharing: the self-store is flagged (owner partitioning is
     beyond the static model), the read of the neighbour's word is not *)
  let fsw = kernel_report Litmus.false_sharing_writers in
  check Alcotest.bool "fsw: mine flagged" true
    (Instrument.Mhp.covers_site fsw ~site:"fsw:mine");
  check Alcotest.bool "fsw: neighbour elidable" false
    (Instrument.Mhp.covers_site fsw ~site:"fsw:neighbour");
  (* the racy kernels keep their racing sites *)
  let tso = kernel_report Litmus.true_sharing_overlap in
  check Alcotest.bool "tso: store self-pair" true
    (Instrument.Mhp.covers tso ~site_a:"tso:store" ~site_b:"tso:store");
  let mrr = kernel_report Litmus.multi_reader_race in
  check Alcotest.bool "mrr: store x load" true
    (Instrument.Mhp.covers mrr ~site_a:"mrr:store" ~site_b:"mrr:load");
  let pl = kernel_report Litmus.partially_locked in
  check Alcotest.bool "pl: unlocked store x locked write is a mismatch" true
    (List.exists
       (fun p ->
         p.Instrument.Mhp.p_severity = Instrument.Mhp.Mismatch
         && p.Instrument.Mhp.p_a.Instrument.Mhp.s_site <> p.Instrument.Mhp.p_b.Instrument.Mhp.s_site)
       pl.Instrument.Mhp.pairs)

(* ------------------------------------------------------------------ *)
(* Soundness gate: dynamic races must be statically flagged            *)

(* Sites observed touching [addr], from a watch run's hits. *)
let sites_at hits addr =
  List.filter_map
    (fun (h : Instrument.Watch.hit) -> if h.addr = addr then Some h.site else None)
    hits
  |> List.sort_uniq compare

(* Some statically flagged pair must have both sides among the sites
   that dynamically touched the racy word. *)
let statically_explained report hits addr =
  let sites = sites_at hits addr in
  List.exists
    (fun a ->
      List.exists (fun b -> Instrument.Mhp.covers report ~site_a:a ~site_b:b) sites)
    sites

let test_app_soundness name () =
  let a = app name in
  let report = Instrument.Mhp.analyze (a.Apps.App.binary ()) in
  let run1, log =
    Core.Trace_run.record ~cfg:Testutil.detect_cfg ~app_name:name ~scale:Apps.Registry.Small
      ~nprocs:4 ()
  in
  let detected = Core.Driver.racy_addrs run1 in
  let oracle = Racedetect.Oracle.racy_addrs ~nprocs:4 run1.Core.Driver.trace in
  let racy = List.sort_uniq compare (detected @ oracle) in
  if racy <> [] then begin
    (* replay run 1 with the racy words watched, mapping each back to
       source sites (the section 6.1 second run) *)
    let replay = Core.Trace_run.replay ~watch_addrs:racy log in
    check Alcotest.bool (name ^ ": the watch run replays run 1 exactly") true
      (Core.Trace_run.clean replay);
    let run2 = replay.Core.Trace_run.rr_outcome in
    check Testutil.addr_list (name ^ ": the watch run reproduces the race set") detected
      (Core.Driver.racy_addrs run2);
    List.iter
      (fun addr ->
        check Alcotest.bool
          (Format.sprintf "%s: race at 0x%x maps to a static pair" name addr)
          true
          (statically_explained report run2.Core.Driver.watch_hits addr))
      racy
  end

let test_kernel_soundness (k : Litmus.kernel) () =
  let report = kernel_report k in
  let o1 = Litmus.run_kernel k in
  let racy = List.sort_uniq compare (o1.Litmus.detected @ o1.Litmus.oracle) in
  if racy <> [] then begin
    let o2 = Litmus.run_kernel ~watch_addrs:racy k in
    check Testutil.addr_list (k.k_name ^ ": watch run reproduces the race set")
      o1.Litmus.detected o2.Litmus.detected;
    List.iter
      (fun addr ->
        check Alcotest.bool
          (Format.sprintf "%s: race at 0x%x maps to a static pair" k.k_name addr)
          true
          (statically_explained report o2.Litmus.watch_hits addr))
      racy
  end

let test_precision_metric () =
  (* the report is only useful if it actually clears a substantial
     fraction of shared sites; pin a floor per app so a precision
     regression (e.g. a lattice join gone conservative) fails loudly *)
  List.iter
    (fun (name, min_free) ->
      let r = report_of name in
      check Alcotest.bool
        (Format.sprintf "%s: at least %d race-free shared sites" name min_free)
        true
        (List.length r.Instrument.Mhp.race_free_sites >= min_free))
    [ ("fft", 4); ("sor", 4); ("tsp", 7); ("water", 2) ]

(* ------------------------------------------------------------------ *)
(* Elision equivalence: skipping statically race-free checks changes
   cost, never results                                                 *)

let test_app_elision_equiv name expect_elision () =
  let a = app name in
  let plain = Core.Driver.run ~cfg:Testutil.detect_cfg ~app:a ~nprocs:4 () in
  let cfg = { Testutil.detect_cfg with Coherence.Config.elide_sites = Some [] } in
  let elided = Core.Driver.run ~cfg ~app:a ~nprocs:4 () in
  check Testutil.addr_list (name ^ ": race set unchanged by elision")
    (Core.Driver.racy_addrs plain) (Core.Driver.racy_addrs elided);
  check Testutil.addr_list (name ^ ": oracle unchanged by elision")
    (Racedetect.Oracle.racy_addrs ~nprocs:4 plain.Core.Driver.trace)
    (Racedetect.Oracle.racy_addrs ~nprocs:4 elided.Core.Driver.trace);
  check Alcotest.int (name ^ ": memory image unchanged by elision")
    plain.Core.Driver.mem_checksum elided.Core.Driver.mem_checksum;
  check Alcotest.int (name ^ ": no elision without the flag") 0
    plain.Core.Driver.stats.Sim.Stats.elided_checks;
  check Alcotest.bool (name ^ ": elision skipped checks") expect_elision
    (elided.Core.Driver.stats.Sim.Stats.elided_checks > 0)

let test_kernel_elision_equiv (k : Litmus.kernel) () =
  let plain = Litmus.run_kernel k in
  let elided = Litmus.run_kernel ~elide:true k in
  check Testutil.addr_list (k.k_name ^ ": race set unchanged by elision")
    plain.Litmus.detected elided.Litmus.detected;
  check Testutil.addr_list (k.k_name ^ ": oracle unchanged by elision")
    plain.Litmus.oracle elided.Litmus.oracle;
  check Alcotest.int (k.k_name ^ ": checksum unchanged by elision")
    plain.Litmus.checksum elided.Litmus.checksum

(* ------------------------------------------------------------------ *)
(* Differential fuzzer: random straight-line SPMD programs, the static
   pair set versus a brute-force enumeration of every interleaving      *)

type fop = FLoad of int | FStore of int | FAcquire of int | FRelease of int | FBarrier

let fuzz_base = 64 (* keep enumerated addresses away from 0 *)

let site_of_index i = Format.sprintf "f:%d" i

let binary_of_fops fops =
  let open Instrument.Ir in
  let ops =
    List.mapi
      (fun i f ->
        match f with
        | FLoad o -> load ~offset:(o * 8) ~site:(site_of_index i) (Reg 0)
        | FStore o -> store ~offset:(o * 8) ~site:(site_of_index i) (Reg 0)
        | FAcquire l -> acquire l
        | FRelease l -> release l
        | FBarrier -> barrier)
      fops
  in
  Instrument.Binary.make ~name:"fuzz"
    ~procs:
      [
        proc ~name:"fuzz" ~entry:"entry"
          [ block "entry" (malloc_shared ~dst:0 "fuzz.region" :: ops) ];
      ]
    ()

(* Enumerate every interleaving of two processors running [fops] (locks
   exclusive, barriers joint) and collect the union of the oracle's racy
   words over all of them. *)
let enumerate_races fops =
  let arr = Array.of_list fops in
  let n = Array.length arr in
  let races = Hashtbl.create 16 in
  let at_barrier idx = idx < n && arr.(idx) = FBarrier in
  let rec go idx0 idx1 locks trace =
    if idx0 = n && idx1 = n then
      List.iter
        (fun rw -> Hashtbl.replace races rw ())
        (Racedetect.Oracle.races_of_trace ~nprocs:2 (List.rev trace))
    else if at_barrier idx0 && at_barrier idx1 then
      go (idx0 + 1) (idx1 + 1) locks
        ((1, Racedetect.Oracle.Barrier) :: (0, Racedetect.Oracle.Barrier) :: trace)
    else begin
      let step p idx k =
        if idx < n && not (at_barrier idx) then
          match arr.(idx) with
          | FAcquire l ->
              if not (List.mem_assoc l locks) then
                k ((l, p) :: locks) (p, Racedetect.Oracle.Acquire l)
          | FRelease l -> k (List.remove_assoc l locks) (p, Racedetect.Oracle.Release l)
          | FLoad o -> k locks (p, Racedetect.Oracle.Read (fuzz_base + (o * 8)))
          | FStore o -> k locks (p, Racedetect.Oracle.Write (fuzz_base + (o * 8)))
          | FBarrier -> ()
      in
      step 0 idx0 (fun locks' ev -> go (idx0 + 1) idx1 locks' (ev :: trace));
      step 1 idx1 (fun locks' ev -> go idx0 (idx1 + 1) locks' (ev :: trace))
    end
  in
  go 0 0 [] [];
  Hashtbl.fold (fun rw () acc -> rw :: acc) races []

(* Sites in [fops] accessing word [o] with [kind]. *)
let fuzz_sites_with fops o kind =
  List.concat
    (List.mapi
       (fun i f ->
         match (f, kind) with
         | FLoad o', Proto.Race.Read when o' = o -> [ site_of_index i ]
         | FStore o', Proto.Race.Write when o' = o -> [ site_of_index i ]
         | _ -> [])
       fops)

let fops_gen : fop list QCheck.Gen.t =
 fun st ->
  let open QCheck.Gen in
  let access () =
    let o = int_range 0 3 st in
    if bool st then FStore o else FLoad o
  in
  let rec build budget acc =
    if budget <= 0 then List.rev acc
    else
      match int_range 0 5 st with
      | 0 | 1 | 2 -> build (budget - 1) (access () :: acc)
      | 3 -> build (budget - 1) (FBarrier :: acc)
      | _ when budget >= 3 ->
          let l = int_range 0 1 st in
          build (budget - 3) (FRelease l :: access () :: FAcquire l :: acc)
      | _ -> build (budget - 1) (access () :: acc)
  in
  match build 6 [] with
  | [] -> [ FStore 0 ]
  | prog -> prog

let pp_fop ppf = function
  | FLoad o -> Format.fprintf ppf "load w%d" o
  | FStore o -> Format.fprintf ppf "store w%d" o
  | FAcquire l -> Format.fprintf ppf "acquire %d" l
  | FRelease l -> Format.fprintf ppf "release %d" l
  | FBarrier -> Format.fprintf ppf "barrier"

let fops_print fops =
  Format.asprintf "[%a]" (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf "; ") pp_fop) fops

let fuzz_soundness =
  QCheck.Test.make ~count:40 ~name:"static pairs cover every enumerated race"
    (QCheck.make ~print:fops_print fops_gen) (fun fops ->
      let report = Instrument.Mhp.analyze (binary_of_fops fops) in
      let races = enumerate_races fops in
      List.for_all
        (fun (rw : Racedetect.Oracle.racy_word) ->
          let o = (rw.addr - fuzz_base) / 8 in
          let k1, k2 = rw.kinds in
          List.exists
            (fun a ->
              List.exists
                (fun b -> Instrument.Mhp.covers report ~site_a:a ~site_b:b)
                (fuzz_sites_with fops o k2))
            (fuzz_sites_with fops o k1))
        races)

(* ------------------------------------------------------------------ *)

let suite =
  [
    ( "mhp:static",
      [
        Alcotest.test_case "app report pins" `Quick test_app_report_pins;
        Alcotest.test_case "known racy pairs flagged" `Quick test_known_racy_pairs_flagged;
        Alcotest.test_case "may-race/race-free partition" `Quick test_partition_is_exact;
        Alcotest.test_case "deterministic" `Quick test_report_deterministic;
        Alcotest.test_case "kernel report pins" `Quick test_kernel_report_pins;
        Alcotest.test_case "precision floors" `Quick test_precision_metric;
      ] );
    ( "mhp:soundness",
      List.map
        (fun name ->
          Alcotest.test_case ("app " ^ name) `Quick (test_app_soundness name))
        app_names
      @ List.map
          (fun (k : Litmus.kernel) ->
            Alcotest.test_case ("kernel " ^ k.k_name) `Quick (test_kernel_soundness k))
          Litmus.kernels
      @ [ QCheck_alcotest.to_alcotest fuzz_soundness ] );
    ( "mhp:elision",
      (* elision bites only where the synthetic binary's site vocabulary
         covers the body's (sor/tsp/water); fft's body uses its own
         labels and lu has no statically race-free sites — for both the
         derived set is a sound no-op *)
      List.map
        (fun (name, expect) ->
          Alcotest.test_case ("app " ^ name) `Quick (test_app_elision_equiv name expect))
        [ ("fft", false); ("sor", true); ("tsp", true); ("water", true); ("lu", false) ]
      @ List.map
          (fun (k : Litmus.kernel) ->
            Alcotest.test_case ("kernel " ^ k.k_name) `Quick (test_kernel_elision_equiv k))
          Litmus.kernels );
  ]
