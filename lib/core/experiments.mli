(** Regeneration of every table and figure in the paper's evaluation,
    plus this library's extension experiments: one entry point per
    experiment, each returning structured rows for {!Report} to render.
    bench/main.exe is the frontend.

    Application runs use 8 processors, the paper's system size, unless
    the entry point takes a count. Every entry point but {!figure5}
    takes [?jobs] (default 1 = sequential) and fans its independent
    simulation runs out with {!Parallel.map}; rows come back in the same
    order whatever [jobs] is, so parallel output is identical to
    sequential output. *)

(** {1 Table 1 — application characteristics} *)

type table1_row = {
  t1_name : string;
  t1_input : string;
  t1_sync : string;
  t1_memory_kb : int;
  t1_intervals_per_barrier : float;  (** per processor per barrier epoch *)
  t1_slowdown : float;
}

val table1 :
  ?scale:Apps.Registry.scale -> ?backend:string -> ?jobs:int -> unit -> table1_row list

(** {1 Table 2 — static instrumentation statistics} *)

type table2_row = {
  t2_name : string;
  t2_class : Instrument.Static_analysis.classification;
}

val table2 : ?scale:Apps.Registry.scale -> ?jobs:int -> unit -> table2_row list

(** {1 Table 3 — dynamic metrics} *)

type table3_row = {
  t3_name : string;
  t3_intervals_used_pct : float;
  t3_bitmaps_used_pct : float;
  t3_msg_overhead_pct : float;
  t3_shared_per_sec : float;
  t3_private_per_sec : float;
}

val table3 :
  ?scale:Apps.Registry.scale -> ?backend:string -> ?jobs:int -> unit -> table3_row list

(** {1 Figure 3 — overhead breakdown} *)

type figure3_row = {
  f3_name : string;
  f3_slowdown : float;
  f3_overheads : (Sim.Stats.overhead_category * float) list;
}

val figure3 :
  ?scale:Apps.Registry.scale -> ?backend:string -> ?jobs:int -> unit -> figure3_row list

(** {1 Figure 4 — slowdown versus processors} *)

type figure4_row = { f4_name : string; f4_points : (int * float) list }

val figure4 :
  ?scale:Apps.Registry.scale ->
  ?procs:int list ->
  ?names:string list ->
  ?backend:string ->
  ?jobs:int ->
  unit ->
  figure4_row list
(** Slowdown at each of [procs] (default 2, 4, 8) for each of [names]
    (default the paper's four apps); one task per (app, nprocs) point. *)

(** {1 Figure 5 — weak-memory-only races} *)

type figure5_result = {
  f5_protocol : string;
  f5_qptr_seen_by_p2 : int;
  f5_racy_words : (int * string) list;
}

val figure5 : ?backend:string -> unit -> figure5_result
(** The section 6.4 missing-release queue, run live on [backend]: ["lrc"]
    (the default; single-writer) or a bus, which is sequentially
    consistent. [f5_protocol] names the memory model:
    ["single-writer"] or ["sequential-consistency"]. *)

val figure5_both : ?jobs:int -> unit -> figure5_result list
(** Under LRC (single-writer) and sequential consistency (the [mesi]
    bus). *)

(** {1 Extension ablations} *)

type ablation_row = {
  ab_name : string;
  ab_full_slowdown : float;
  ab_diff_slowdown : float;
  ab_full_races : int;
  ab_diff_races : int;
}

val stores_from_diffs_ablation_all :
  ?scale:Apps.Registry.scale -> ?jobs:int -> string list -> ablation_row list
(** Section 6.5, per named app: write bitmaps from multi-writer diffs vs
    full store instrumentation. *)

type protocol_row = {
  pr_app : string;
  pr_protocol : string;
  pr_time_ms : float;
  pr_messages : int;
  pr_kbytes : int;
  pr_page_fetches : int;
  pr_diffs : int;
}

val protocol_comparison_all :
  ?scale:Apps.Registry.scale -> ?jobs:int -> unit -> protocol_row list
(** Baseline (no-detection) runs of the paper's four apps over
    single-writer, multi-writer and home-based coherence, one task per
    (app, protocol) pair. *)

type fault_row = {
  fs_app : string;
  fs_drop_pct : float;  (** wire drop probability, percent *)
  fs_races : int;
  fs_same_races : bool;  (** racy-address set equals the reliable baseline's *)
  fs_same_mem : bool;  (** final memory checksum equals the baseline's *)
  fs_retransmits : int;
  fs_timeouts : int;
  fs_dup_suppressed : int;
  fs_time_ms : float;
}

val fault_sweep_all :
  ?scale:Apps.Registry.scale ->
  ?nprocs:int ->
  ?drops:float list ->
  ?jobs:int ->
  unit ->
  fault_row list
(** Each of the paper's four apps over the reliable wire, then over
    {!Sim.Transport} with each wire-loss rate in [drops] (default 0%, 5%,
    20%; duplication and reorder scale with the drop rate). Rows compare
    racy-address sets and final memory checksums against the reliable
    baseline. One task per app. *)

type retention_row = {
  rt_app : string;
  rt_plain_slowdown : float;
  rt_retain_slowdown : float;
  rt_site_entries : int;
  rt_site_kbytes : int;
}

val site_retention_ablation_all :
  ?scale:Apps.Registry.scale -> ?jobs:int -> string list -> retention_row list
(** Section 6.1, per named app: the cost of single-run program-counter
    retention. *)

(** {1 Benchmark sweep points} *)

type sweep_point = {
  sp_app : string;  (** lowercase *)
  sp_scale : string;  (** {!Apps.Registry.scale_name} spelling *)
  sp_nprocs : int;
  sp_detect : bool;
  sp_elide : bool;
  sp_protocol : string;
  sp_backend : string;  (** coherence backend the point ran under *)
  sp_wall_s : float;
  sp_sim_time_ns : int;
  sp_races : int;
  sp_mem_checksum : int;
  sp_stats : Sim.Stats.t;
  sp_minor_words : float;
}

val sweep_points :
  ?clock:(unit -> float) ->
  ?jobs:int ->
  scale:Apps.Registry.scale ->
  (string * int * bool * bool * string) list ->
  sweep_point list
(** One benchmark sweep measurement per [(app, nprocs, detect, elide,
    backend)] tuple, one task per point, in input order: a full
    simulated run after a [Gc.full_major], timed with [clock] (default
    wall time; the bench harness passes its monotonic clock). The minor
    words are a delta of [Gc.minor_words], the running domain's own, so
    they stay the point's own when it runs beside other tasks and repeat
    exactly at any [--jobs]. *)
