(* Regeneration of every table and figure in the paper's evaluation.
   Each experiment returns structured rows; {!Report} renders them, and
   bench/main.exe is the frontend that drives both.

   Every experiment takes [?jobs] and fans its independent simulation
   runs out with {!Parallel.map}. Each task builds its own app, cluster
   and RNGs, so runs share only read-only state (see docs/PARALLEL.md);
   results come back in input order, making the rows identical whatever
   [jobs] is. The default is 1: sequential, on the calling domain. *)

(* the paper's system size *)
let default_procs = 8

(* ------------------------------------------------------------------ *)
(* Table 1: application characteristics                                 *)

type table1_row = {
  t1_name : string;
  t1_input : string;
  t1_sync : string;
  t1_memory_kb : int;
  t1_intervals_per_barrier : float;  (* per processor per barrier epoch *)
  t1_slowdown : float;  (* 8-processor instrumented / base *)
}

let table1_row ~scale ~backend name =
  let nprocs = default_procs in
  let app = Apps.Registry.make ~scale name in
  let cfg = { Coherence.Config.default with Coherence.Config.backend } in
  let sd = Driver.measure_slowdown ~cfg ~app ~nprocs () in
  let stats = sd.Driver.instrumented.Driver.stats in
  {
    t1_name = app.Apps.App.name;
    t1_input = app.Apps.App.input_description;
    t1_sync = app.Apps.App.synchronization;
    t1_memory_kb = app.Apps.App.memory_bytes / 1024;
    t1_intervals_per_barrier =
      float_of_int stats.Sim.Stats.intervals_created
      /. float_of_int (max 1 stats.Sim.Stats.barriers)
      /. float_of_int nprocs;
    t1_slowdown = sd.Driver.factor;
  }

let table1 ?(scale = Apps.Registry.Paper) ?(backend = "lrc") ?(jobs = 1) () =
  Parallel.map ~jobs (table1_row ~scale ~backend) Apps.Registry.all_names

(* ------------------------------------------------------------------ *)
(* Table 2: static instrumentation statistics                          *)

type table2_row = {
  t2_name : string;
  t2_class : Instrument.Static_analysis.classification;
}

let table2_row ~scale name =
  let app = Apps.Registry.make ~scale name in
  {
    t2_name = app.Apps.App.name;
    t2_class = Instrument.Static_analysis.classify (app.Apps.App.binary ());
  }

let table2 ?(scale = Apps.Registry.Paper) ?(jobs = 1) () =
  Parallel.map ~jobs (table2_row ~scale) Apps.Registry.all_names

(* ------------------------------------------------------------------ *)
(* Table 3: dynamic metrics                                            *)

type table3_row = {
  t3_name : string;
  t3_intervals_used_pct : float;  (* intervals in >= 1 overlapping pair *)
  t3_bitmaps_used_pct : float;  (* bitmaps retrieved / bitmaps recorded *)
  t3_msg_overhead_pct : float;  (* read-notice bytes / base-protocol bytes *)
  t3_shared_per_sec : float;  (* instrumented shared accesses per sim second *)
  t3_private_per_sec : float;
}

let table3_row ~scale ~backend name =
  let app = Apps.Registry.make ~scale name in
  let cfg = { Coherence.Config.default with Coherence.Config.backend } in
  let outcome = Driver.run ~cfg ~app ~nprocs:default_procs () in
  let stats = outcome.Driver.stats in
  let seconds = float_of_int outcome.Driver.sim_time_ns /. 1e9 in
  let pct num den = if den <= 0 then 0.0 else 100.0 *. float_of_int num /. float_of_int den in
  let base_bytes =
    stats.Sim.Stats.bytes - stats.Sim.Stats.read_notice_bytes
    - stats.Sim.Stats.bitmap_round_bytes
  in
  {
    t3_name = outcome.Driver.app_name;
    t3_intervals_used_pct =
      pct stats.Sim.Stats.intervals_in_overlap stats.Sim.Stats.intervals_created;
    t3_bitmaps_used_pct = pct stats.Sim.Stats.bitmaps_requested stats.Sim.Stats.bitmaps_total;
    t3_msg_overhead_pct = pct stats.Sim.Stats.read_notice_bytes base_bytes;
    t3_shared_per_sec = float_of_int (Sim.Stats.shared_accesses stats) /. seconds;
    t3_private_per_sec = float_of_int stats.Sim.Stats.private_accesses /. seconds;
  }

let table3 ?(scale = Apps.Registry.Paper) ?(backend = "lrc") ?(jobs = 1) () =
  Parallel.map ~jobs (table3_row ~scale ~backend) Apps.Registry.all_names

(* ------------------------------------------------------------------ *)
(* Figure 3: overhead breakdown per application                        *)

type figure3_row = {
  f3_name : string;
  f3_slowdown : float;
  f3_overheads : (Sim.Stats.overhead_category * float) list;  (* % of base *)
}

let figure3_row ~scale ~backend name =
  let app = Apps.Registry.make ~scale name in
  let cfg = { Coherence.Config.default with Coherence.Config.backend } in
  let sd = Driver.measure_slowdown ~cfg ~app ~nprocs:default_procs () in
  {
    f3_name = app.Apps.App.name;
    f3_slowdown = sd.Driver.factor;
    f3_overheads = Driver.overhead_percentages sd;
  }

let figure3 ?(scale = Apps.Registry.Paper) ?(backend = "lrc") ?(jobs = 1) () =
  Parallel.map ~jobs (figure3_row ~scale ~backend) Apps.Registry.all_names

(* ------------------------------------------------------------------ *)
(* Figure 4: slowdown versus number of processors                      *)

type figure4_row = { f4_name : string; f4_points : (int * float) list }

(* Parallelism is per (app, nprocs) point, not per app: the slowest app
   does not serialize its whole curve. The points are regrouped per app
   in input order. *)
let figure4 ?(scale = Apps.Registry.Paper) ?(procs = [ 2; 4; 8 ])
    ?(names = Apps.Registry.all_names) ?(backend = "lrc") ?(jobs = 1) () =
  let points =
    List.concat_map (fun name -> List.map (fun nprocs -> (name, nprocs)) procs) names
  in
  let results =
    Parallel.map ~jobs
      (fun (name, nprocs) ->
        let app = Apps.Registry.make ~scale name in
        let cfg = { Coherence.Config.default with Coherence.Config.backend } in
        let sd = Driver.measure_slowdown ~cfg ~app ~nprocs () in
        (name, app.Apps.App.name, (nprocs, sd.Driver.factor)))
      points
  in
  List.map
    (fun name ->
      let mine = List.filter (fun (n, _, _) -> n = name) results in
      {
        f4_name = (match mine with (_, app_name, _) :: _ -> app_name | [] -> name);
        f4_points = List.map (fun (_, _, point) -> point) mine;
      })
    names

(* ------------------------------------------------------------------ *)
(* Figure 5: races that occur only on a weak memory system             *)

type figure5_result = {
  f5_protocol : string;
  f5_qptr_seen_by_p2 : int;  (* the value P2 dequeues through *)
  f5_racy_words : (int * string) list;  (* racy address, symbolic name *)
}

(* The section 6.4 scenario: P1 fills a queue slot and updates qPtr and
   qEmpty but the release is missing; P2 polls qEmpty, reads qPtr and
   writes into the slots it believes it owns; P3 concurrently writes slots
   37..40. Under LRC, P2 reads a *stale* qPtr (37) because nothing
   invalidates its cached copy, so its writes collide with P3's. On a
   sequentially consistent system (a snooping bus) P2 sees qPtr = 100
   (qEmpty's value could only have propagated together with qPtr's) and
   the slot races cannot occur. *)
let figure5 ?(backend = "lrc") () =
  let cfg = { Coherence.Config.default with backend; detect = true } in
  let cluster = Backends.create ~cfg ~nprocs:3 ~pages:8 () in
  let page = Sim.Cost.default.Sim.Cost.page_size in
  let word = Mem.Page.word_size in
  let qptr = cluster.Coherence.Backend.alloc ~align:page word in
  let qempty = cluster.Coherence.Backend.alloc ~align:page word in
  let slots = cluster.Coherence.Backend.alloc ~align:page (128 * word) in
  let slot_addr v = Lrc.Dsm.addr_of_index slots (v - 37) in
  let p2_qptr = ref 0 in
  let body node =
    let open Lrc.Dsm in
    (match pid node with
    | 0 ->
        (* P1: initialize, then fill without releasing *)
        write_int node qptr 37 ~site:"fig5:init";
        write_int node qempty 1 ~site:"fig5:init";
        barrier node;
        compute node 250_000.0;
        write_int node qptr 100 ~site:"fig5:w1(qPtr)";
        write_int node qempty 0 ~site:"fig5:w1(qEmpty)"
    | 1 ->
        (* P2: warm the qPtr page, then poll qEmpty and enqueue *)
        barrier node;
        let _warm = read_int node qptr ~site:"fig5:warm" in
        compute node 800_000.0;
        let empty = read_int node qempty ~site:"fig5:r2(qEmpty)" in
        if empty = 0 then begin
          let v = read_int node qptr ~site:"fig5:r2(qPtr)" in
          p2_qptr := v;
          write_int node (slot_addr v) 1 ~site:"fig5:w2(slot)";
          write_int node (slot_addr (v + 1)) 2 ~site:"fig5:w2(slot)"
        end
    | _ ->
        (* P3: writes slots 37..40 based on its own stale view *)
        barrier node;
        compute node 500_000.0;
        List.iter
          (fun v -> write_int node (slot_addr v) (100 + v) ~site:"fig5:w3(slot)")
          [ 37; 38; 39; 40 ]);
    barrier node
  in
  cluster.Coherence.Backend.run body;
  let symbolic addr =
    if addr = qptr then "qPtr"
    else if addr = qempty then "qEmpty"
    else Printf.sprintf "slot[%d]" (((addr - slots) / word) + 37)
  in
  let racy =
    cluster.Coherence.Backend.races ()
    |> List.map (fun (r : Proto.Race.t) -> r.addr)
    |> List.sort_uniq compare
    |> List.map (fun addr -> (addr, symbolic addr))
  in
  {
    f5_protocol =
      (if backend = "lrc" then Coherence.Config.protocol_name cfg.protocol
       else "sequential-consistency");
    f5_qptr_seen_by_p2 = !p2_qptr;
    f5_racy_words = racy;
  }

let figure5_both ?(jobs = 1) () =
  Parallel.map ~jobs (fun backend -> figure5 ~backend ()) [ "lrc"; "mesi" ]

(* ------------------------------------------------------------------ *)
(* Ablation: the section 6.5 store-instrumentation optimization        *)

type ablation_row = {
  ab_name : string;
  ab_full_slowdown : float;  (* loads + stores instrumented *)
  ab_diff_slowdown : float;  (* stores recovered from diffs *)
  ab_full_races : int;
  ab_diff_races : int;
}

let stores_from_diffs_ablation ~scale name =
  let nprocs = default_procs in
  let app = Apps.Registry.make ~scale name in
  let cfg =
    { Coherence.Config.default with Coherence.Config.protocol = Coherence.Config.Multi_writer }
  in
  let full = Driver.measure_slowdown ~cfg ~app ~nprocs () in
  let cfg_diff = { cfg with Coherence.Config.stores_from_diffs = true } in
  let diff = Driver.measure_slowdown ~cfg:cfg_diff ~app ~nprocs () in
  {
    ab_name = app.Apps.App.name;
    ab_full_slowdown = full.Driver.factor;
    ab_diff_slowdown = diff.Driver.factor;
    ab_full_races = List.length full.Driver.instrumented.Driver.races;
    ab_diff_races = List.length diff.Driver.instrumented.Driver.races;
  }

let stores_from_diffs_ablation_all ?(scale = Apps.Registry.Paper) ?(jobs = 1) names =
  Parallel.map ~jobs (stores_from_diffs_ablation ~scale) names

(* ------------------------------------------------------------------ *)
(* Protocol comparison: the same applications over the single-writer,
   multi-writer and home-based protocols (baseline runs, no detection)  *)

type protocol_row = {
  pr_app : string;
  pr_protocol : string;
  pr_time_ms : float;
  pr_messages : int;
  pr_kbytes : int;
  pr_page_fetches : int;
  pr_diffs : int;
}

let protocol_row ~scale name protocol =
  let app = Apps.Registry.make ~scale name in
  let cfg = { Coherence.Config.default with Coherence.Config.protocol; detect = false } in
  let outcome = Driver.run ~cfg ~app ~nprocs:default_procs () in
  let stats = outcome.Driver.stats in
  {
    pr_app = app.Apps.App.name;
    pr_protocol = Coherence.Config.protocol_name protocol;
    pr_time_ms = float_of_int outcome.Driver.sim_time_ns /. 1e6;
    pr_messages = stats.Sim.Stats.messages;
    pr_kbytes = stats.Sim.Stats.bytes / 1024;
    pr_page_fetches = stats.Sim.Stats.pages_fetched;
    pr_diffs = stats.Sim.Stats.diffs_created;
  }

let protocol_comparison_all ?(scale = Apps.Registry.Paper) ?(jobs = 1) () =
  let protocols =
    [ Coherence.Config.Single_writer; Coherence.Config.Multi_writer; Coherence.Config.Home_based ]
  in
  let tasks =
    List.concat_map
      (fun name -> List.map (fun p -> (name, p)) protocols)
      Apps.Registry.all_names
  in
  Parallel.map ~jobs (fun (name, protocol) -> protocol_row ~scale name protocol) tasks

(* ------------------------------------------------------------------ *)
(* Robustness: race-report stability over a lossy wire                  *)

type fault_row = {
  fs_app : string;
  fs_drop_pct : float;  (* wire drop probability, percent *)
  fs_races : int;
  fs_same_races : bool;  (* racy-address set equals the reliable baseline's *)
  fs_same_mem : bool;  (* final memory checksum equals the baseline's *)
  fs_retransmits : int;
  fs_timeouts : int;
  fs_dup_suppressed : int;
  fs_time_ms : float;
}

(* Run each application over the reliable wire, then over the transport
   with increasing wire loss, and compare: the DSM above the transport
   must see the same exactly-once FIFO network, so the set of racy
   addresses is expected to be stable. Full bit-identity (every report
   and the final memory image) additionally holds for barrier-only
   applications; retransmission delays can reorder lock grants, so for
   lock-based applications last-writer-dependent words may differ — the
   rows report the comparison rather than asserting it. *)
let fault_sweep ~scale ~nprocs ~drops name =
  let app = Apps.Registry.make ~scale name in
  let baseline = Driver.run ~app ~nprocs () in
  let base_addrs = Driver.racy_addrs baseline in
  List.map
    (fun drop ->
      let fault =
        {
          Sim.Fault.none with
          Sim.Fault.drop;
          duplicate = drop /. 4.0;
          reorder = drop /. 2.0;
        }
      in
      let cfg =
        {
          Coherence.Config.default with
          Coherence.Config.fault;
          transport = Some Sim.Transport.default_config;
        }
      in
      let outcome = Driver.run ~cfg ~app ~nprocs () in
      let stats = outcome.Driver.stats in
      {
        fs_app = app.Apps.App.name;
        fs_drop_pct = 100.0 *. drop;
        fs_races = List.length outcome.Driver.races;
        fs_same_races = Driver.racy_addrs outcome = base_addrs;
        fs_same_mem = outcome.Driver.mem_checksum = baseline.Driver.mem_checksum;
        fs_retransmits = stats.Sim.Stats.retransmits;
        fs_timeouts = stats.Sim.Stats.rto_timeouts;
        fs_dup_suppressed = stats.Sim.Stats.dup_suppressed;
        fs_time_ms = float_of_int outcome.Driver.sim_time_ns /. 1e6;
      })
    drops

(* One task per app: each task's reliable baseline is reused by its own
   drop points, so the unit of independence is the whole per-app sweep. *)
let fault_sweep_all ?(scale = Apps.Registry.Paper) ?(nprocs = default_procs)
    ?(drops = [ 0.0; 0.05; 0.2 ]) ?(jobs = 1) () =
  List.concat
    (Parallel.map ~jobs (fault_sweep ~scale ~nprocs ~drops) Apps.Registry.all_names)

(* ------------------------------------------------------------------ *)
(* Section 6.1 ablation: single-run site retention vs plain detection   *)

type retention_row = {
  rt_app : string;
  rt_plain_slowdown : float;
  rt_retain_slowdown : float;
  rt_site_entries : int;
  rt_site_kbytes : int;  (* approximate storage the paper calls prohibitive *)
}

let site_retention_ablation ~scale name =
  let nprocs = default_procs in
  let app = Apps.Registry.make ~scale name in
  let plain = Driver.measure_slowdown ~app ~nprocs () in
  let cfg = { Coherence.Config.default with Coherence.Config.retain_sites = true } in
  let retain = Driver.measure_slowdown ~cfg ~app ~nprocs () in
  let entries = retain.Driver.instrumented.Driver.stats.Sim.Stats.site_entries in
  {
    rt_app = app.Apps.App.name;
    rt_plain_slowdown = plain.Driver.factor;
    rt_retain_slowdown = retain.Driver.factor;
    rt_site_entries = entries;
    rt_site_kbytes = entries * 32 / 1024;
  }

let site_retention_ablation_all ?(scale = Apps.Registry.Paper) ?(jobs = 1) names =
  Parallel.map ~jobs (site_retention_ablation ~scale) names

(* ------------------------------------------------------------------ *)
(* The benchmark harness's machine-readable sweep point: one simulated
   run per (app, nprocs, detect, elide) tuple, timed and bracketed by the
   minor-word counter so allocation pressure is part of the record. The
   count is the calling domain's own, so a point measured beside
   concurrent tasks is billed for its own allocation alone. It comes
   from [Gc.minor_words], which also counts the live part of the minor
   heap, so it repeats at any [--jobs]; promoted and major words and
   collection counts move with where collections fall, and are not
   recorded. [clock] defaults to wall time; the bench harness passes its
   monotonic clock. *)

type sweep_point = {
  sp_app : string;  (* lowercase *)
  sp_scale : string;  (* Registry.scale_name spelling *)
  sp_nprocs : int;
  sp_detect : bool;
  sp_elide : bool;
  sp_protocol : string;
  sp_backend : string;
  sp_wall_s : float;
  sp_sim_time_ns : int;
  sp_races : int;
  sp_mem_checksum : int;
  sp_stats : Sim.Stats.t;
  sp_minor_words : float;
}

let sweep_point ~clock ~scale (name, nprocs, detect, elide, backend) =
  let app = Apps.Registry.make ~scale name in
  let cfg =
    {
      Coherence.Config.default with
      Coherence.Config.backend;
      detect;
      elide_sites = (if elide then Some [] else None);
    }
  in
  (* level the heap between points so one entry's garbage does not bill
     the next entry's collector *)
  Gc.full_major ();
  let minor0 = Gc.minor_words () in
  let t0 = clock () in
  let outcome = Driver.run ~cfg ~app ~nprocs () in
  let t1 = clock () in
  let minor1 = Gc.minor_words () in
  {
    sp_app = String.lowercase_ascii name;
    sp_scale = Apps.Registry.scale_name scale;
    sp_nprocs = nprocs;
    sp_detect = detect;
    sp_elide = elide;
    sp_protocol = Coherence.Config.protocol_name cfg.Coherence.Config.protocol;
    sp_backend = backend;
    sp_wall_s = t1 -. t0;
    sp_sim_time_ns = outcome.Driver.sim_time_ns;
    sp_races = List.length outcome.Driver.races;
    sp_mem_checksum = outcome.Driver.mem_checksum;
    sp_stats = outcome.Driver.stats;
    sp_minor_words = minor1 -. minor0;
  }

let sweep_points ?(clock = Unix.gettimeofday) ?(jobs = 1) ~scale points =
  Parallel.map ~jobs (sweep_point ~clock ~scale) points
