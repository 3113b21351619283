(* Plain-text rendering of the experiment results, shaped like the paper's
   tables so paper-vs-measured comparison is eyeball-easy. *)

let hr ppf width = Format.fprintf ppf "%s@." (String.make width '-')

let table1 ppf rows =
  Format.fprintf ppf "Table 1. Application Characteristics (measured)@.";
  hr ppf 86;
  Format.fprintf ppf "%-8s %-18s %-14s %12s %14s %10s@." "App" "Input Set" "Synchronization"
    "Memory (KB)" "Ints/Barrier" "Slowdown";
  hr ppf 86;
  List.iter
    (fun (r : Experiments.table1_row) ->
      Format.fprintf ppf "%-8s %-18s %-14s %12d %14.1f %10.2f@." r.t1_name r.t1_input r.t1_sync
        r.t1_memory_kb r.t1_intervals_per_barrier r.t1_slowdown)
    rows;
  hr ppf 86;
  Format.fprintf ppf
    "paper:   FFT 2 ints/barrier, 2.08x | SOR 2, 1.83x | TSP 177, 2.51x | Water 46, 2.31x@."

let table2 ppf rows =
  Format.fprintf ppf "Table 2. Instrumentation Statistics (static classification)@.";
  hr ppf 86;
  Format.fprintf ppf "%-8s %9s %9s %8s %9s %7s %7s %12s@." "App" "Stack" "Static" "Private"
    "Library" "CVM" "Inst." "Eliminated";
  hr ppf 86;
  List.iter
    (fun (r : Experiments.table2_row) ->
      let c = r.t2_class in
      Format.fprintf ppf "%-8s %9d %9d %8d %9d %7d %7d %11.2f%%@." r.t2_name
        c.Instrument.Static_analysis.stack c.Instrument.Static_analysis.static_data
        c.Instrument.Static_analysis.proven_private c.Instrument.Static_analysis.library
        c.Instrument.Static_analysis.cvm c.Instrument.Static_analysis.instrumented
        (100.0 *. Instrument.Static_analysis.eliminated_fraction c))
    rows;
  hr ppf 86;
  Format.fprintf ppf "paper:   FFT 1285/1496/124716/3910/261 | SOR 342/1304/48717/3910/126@.";
  Format.fprintf ppf "         TSP 244/1213/48717/3910/350  | Water 649/1919/124716/3910/528@."

let table3 ppf rows =
  Format.fprintf ppf "Table 3. Dynamic Metrics (measured)@.";
  hr ppf 88;
  Format.fprintf ppf "%-8s %10s %10s %10s %18s %18s@." "App" "Ints Used" "Bitmaps" "Msg Ohead"
    "Shared acc/s" "Private acc/s";
  hr ppf 88;
  List.iter
    (fun (r : Experiments.table3_row) ->
      Format.fprintf ppf "%-8s %9.0f%% %9.0f%% %9.1f%% %18.0f %18.0f@." r.t3_name
        r.t3_intervals_used_pct r.t3_bitmaps_used_pct r.t3_msg_overhead_pct r.t3_shared_per_sec
        r.t3_private_per_sec)
    rows;
  hr ppf 88;
  Format.fprintf ppf
    "paper:   FFT 15%%/1%%/0.4%% | SOR 0%%/0%%/1.6%% | TSP 93%%/13%%/1.3%% | Water \
     13%%/11%%/48.3%%@."

let figure3 ppf rows =
  Format.fprintf ppf "Figure 3. Overhead Breakdown (%% of base runtime)@.";
  hr ppf 86;
  Format.fprintf ppf "%-8s %10s %10s %13s %10s %9s %10s@." "App" "CVM Mods" "Proc Call"
    "Access Check" "Intervals" "Bitmaps" "Slowdown";
  hr ppf 86;
  List.iter
    (fun (r : Experiments.figure3_row) ->
      let get category = List.assoc category r.f3_overheads in
      Format.fprintf ppf "%-8s %9.1f%% %9.1f%% %12.1f%% %9.1f%% %8.1f%% %10.2f@." r.f3_name
        (get Sim.Stats.Cvm_mods) (get Sim.Stats.Proc_call) (get Sim.Stats.Access_check)
        (get Sim.Stats.Intervals) (get Sim.Stats.Bitmaps) r.f3_slowdown)
    rows;
  hr ppf 86;
  Format.fprintf ppf
    "paper:   instrumentation (proc call + access check) ~68%% of overhead on average;@.";
  Format.fprintf ppf
    "         interval comparison at most third-most expensive; Water largest Intervals.@."

let figure4 ppf rows =
  Format.fprintf ppf "Figure 4. Slowdown Factor versus Number of Processors@.";
  hr ppf 50;
  List.iter
    (fun (r : Experiments.figure4_row) ->
      Format.fprintf ppf "%-8s" r.f4_name;
      List.iter (fun (p, s) -> Format.fprintf ppf "  p=%d: %5.2f" p s) r.f4_points;
      Format.fprintf ppf "@.")
    rows;
  hr ppf 50;
  Format.fprintf ppf "paper:   slowdown DECREASES as processors are added (section 6.2).@."

let figure5 ppf results =
  Format.fprintf ppf "Figure 5. Races that occur only on a weak memory system@.";
  hr ppf 70;
  List.iter
    (fun (r : Experiments.figure5_result) ->
      Format.fprintf ppf "%-24s P2 read qPtr = %-4d racy words: %s@." r.f5_protocol
        r.f5_qptr_seen_by_p2
        (String.concat ", " (List.map snd r.f5_racy_words)))
    results;
  hr ppf 70;
  Format.fprintf ppf
    "paper:   under LRC the stale qPtr causes w2/w3 slot races; under SC only@.";
  Format.fprintf ppf "         the qPtr and qEmpty races can occur.@."

let ablation ppf rows =
  Format.fprintf ppf "Ablation (section 6.5): write bitmaps from multi-writer diffs@.";
  hr ppf 72;
  Format.fprintf ppf "%-8s %16s %16s %12s %12s@." "App" "Full slowdown" "Diff slowdown"
    "Races(full)" "Races(diff)";
  hr ppf 72;
  List.iter
    (fun (r : Experiments.ablation_row) ->
      Format.fprintf ppf "%-8s %16.2f %16.2f %12d %12d@." r.ab_name r.ab_full_slowdown
        r.ab_diff_slowdown r.ab_full_races r.ab_diff_races)
    rows;
  hr ppf 72

(* Per-application rendering of the static pass for `cvm_race analyze`:
   the classification line, the batching summary the cost model consumes,
   and the MHP lockset warnings. *)
let analysis ppf ~name (r : Instrument.Static_analysis.result) ~warnings =
  let open Instrument.Static_analysis in
  Format.fprintf ppf "== %s static analysis ==@." name;
  Format.fprintf ppf "  %a@." pp r.classification;
  Format.fprintf ppf "  batching: %d of %d checks batched, per-check charge scale %.3f@."
    r.batched_checks r.classification.instrumented r.check_cost_scale;
  match warnings with
  | [] -> Format.fprintf ppf "  lint: no statically suspicious shared accesses@."
  | ws ->
      Format.fprintf ppf "  lint: %d warning(s)@." (List.length ws);
      List.iter (fun w -> Format.fprintf ppf "    %a@." Instrument.Mhp.pp_warning w) ws

(* Deterministic report order — page, then word offset, then the interval
   pair — regardless of the order the detector produced the races in, so
   two runs (or a run and its replay) print byte-identical reports. *)
let race_order (a : Proto.Race.t) (b : Proto.Race.t) =
  let pair_order (ia, _) (ib, _) = Proto.Interval.compare_ids ia ib in
  let cmp =
    [
      (fun () -> compare a.Proto.Race.page b.Proto.Race.page);
      (fun () -> compare a.Proto.Race.word b.Proto.Race.word);
      (fun () -> pair_order a.Proto.Race.first b.Proto.Race.first);
      (fun () -> pair_order a.Proto.Race.second b.Proto.Race.second);
      (fun () -> Proto.Race.compare a b);
    ]
  in
  List.fold_left (fun acc f -> if acc <> 0 then acc else f ()) 0 cmp

let races ?symtab ppf races =
  let pp_race =
    match symtab with
    | Some symtab -> Proto.Race.pp_named ~name_of:(Mem.Symtab.name_of symtab)
    | None -> Proto.Race.pp
  in
  match races with
  | [] -> Format.fprintf ppf "no data races detected@."
  | _ ->
      let races = List.stable_sort race_order races in
      Format.fprintf ppf "%d data race(s):@." (List.length races);
      List.iter (fun race -> Format.fprintf ppf "  %a@." pp_race race) races

let protocols ppf rows =
  Format.fprintf ppf "Protocol comparison (baseline runs, no detection)@.";
  hr ppf 86;
  Format.fprintf ppf "%-8s %-16s %10s %10s %10s %12s %8s@." "App" "Protocol" "Time(ms)"
    "Messages" "KB" "Page fetch" "Diffs";
  hr ppf 86;
  List.iter
    (fun (r : Experiments.protocol_row) ->
      Format.fprintf ppf "%-8s %-16s %10.1f %10d %10d %12d %8d@." r.pr_app r.pr_protocol
        r.pr_time_ms r.pr_messages r.pr_kbytes r.pr_page_fetches r.pr_diffs)
    rows;
  hr ppf 86

let faults ppf rows =
  Format.fprintf ppf "Fault sweep: race-report stability over a lossy wire@.";
  hr ppf 92;
  Format.fprintf ppf "%-8s %7s %7s %11s %9s %9s %9s %9s %10s@." "App" "Drop%" "Races"
    "SameRaces" "SameMem" "Retrans" "Timeouts" "DupSupp" "Time(ms)";
  hr ppf 92;
  List.iter
    (fun (r : Experiments.fault_row) ->
      Format.fprintf ppf "%-8s %7.1f %7d %11s %9s %9d %9d %9d %10.1f@." r.fs_app r.fs_drop_pct
        r.fs_races
        (if r.fs_same_races then "yes" else "NO")
        (if r.fs_same_mem then "yes" else "NO")
        r.fs_retransmits r.fs_timeouts r.fs_dup_suppressed r.fs_time_ms)
    rows;
  hr ppf 92;
  Format.fprintf ppf
    "expect:  racy-address sets stable at every drop rate; barrier-only apps (SOR@.";
  Format.fprintf ppf
    "         and FFT) also bit-identical in memory; retransmits > 0 when drop > 0.@."

let retention ppf rows =
  Format.fprintf ppf
    "Ablation (section 6.1): single-run site retention vs plain detection@.";
  hr ppf 80;
  Format.fprintf ppf "%-8s %16s %18s %14s %12s@." "App" "Plain slowdown" "Retain slowdown"
    "Site entries" "~KB kept";
  hr ppf 80;
  List.iter
    (fun (r : Experiments.retention_row) ->
      Format.fprintf ppf "%-8s %16.2f %18.2f %14d %12d@." r.rt_app r.rt_plain_slowdown
        r.rt_retain_slowdown r.rt_site_entries r.rt_site_kbytes)
    rows;
  hr ppf 80;
  Format.fprintf ppf
    "paper:   \"the storage requirements ... would generally be prohibitive, and@.";
  Format.fprintf ppf "         would also add runtime overhead\" — quantified above.@."
