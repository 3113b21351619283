(* Run-wide statistics. One [t] is shared by every node of a simulated
   cluster; the driver reads it after the run to build the paper's tables.

   Overhead charges are bucketed by the categories of the paper's Figure 3.
   A charge both advances simulated time (at the charging process) and is
   attributed here, so the breakdown always sums to the measured overhead. *)

type overhead_category =
  | Cvm_mods  (* extra structures + read-notice bandwidth *)
  | Proc_call  (* instrumentation procedure-call overhead *)
  | Access_check  (* shared/private discrimination + bitmap set *)
  | Intervals  (* concurrent-interval comparison at the barrier master *)
  | Bitmaps  (* extra barrier round + bitmap comparisons *)

let all_categories = [ Cvm_mods; Proc_call; Access_check; Intervals; Bitmaps ]

type t = {
  mutable messages : int;
  mutable fragments : int;  (* wire fragments after MTU splitting *)
  mutable bytes : int;
  mutable read_notice_bytes : int;  (* bandwidth added by read notices *)
  (* reliable-transport counters (lossy-network mode) *)
  mutable retransmits : int;  (* data frames re-sent after an RTO *)
  mutable rto_timeouts : int;  (* retransmission timer firings *)
  mutable dup_suppressed : int;  (* duplicate frames dropped at the receiver *)
  mutable frames_dropped : int;  (* wire frames lost to fault injection *)
  mutable frames_duplicated : int;  (* extra copies created by fault injection *)
  mutable acks_sent : int;  (* cumulative-ack frames *)
  mutable link_failures : int;  (* links that exhausted the retry cap *)
  mutable read_faults : int;
  mutable write_faults : int;
  mutable diffs_created : int;
  mutable diff_words : int;
  mutable diffs_gced : int;  (* diffs dropped by interval garbage collection *)
  mutable pages_fetched : int;
  mutable intervals_created : int;
  mutable interval_comparisons : int;
  mutable concurrent_pairs : int;
  mutable overlapping_pairs : int;
  mutable bitmaps_requested : int;
  mutable bitmaps_total : int;  (* one per (interval, accessed page) *)
  mutable bitmap_round_bytes : int;  (* bytes of the extra barrier round *)
  mutable intervals_in_overlap : int;  (* intervals on the check list *)
  mutable bitmap_comparisons : int;
  mutable shared_reads : int;
  mutable shared_writes : int;
  mutable private_accesses : int;
  mutable lock_acquires : int;
  mutable barriers : int;
  mutable races_reported : int;
  mutable site_entries : int;  (* retained (word, site) records (section 6.1) *)
  mutable elided_checks : int;  (* runtime checks skipped at statically race-free sites *)
  (* snooping-bus cache backends (lib/cc); all zero under the DSM cluster *)
  mutable bus_transactions : int;  (* every arbitration-winning transaction *)
  mutable bus_reads : int;  (* read-miss line fills (BusRd) *)
  mutable bus_read_x : int;  (* write-miss fills with invalidation (BusRdX) *)
  mutable bus_upgrades : int;  (* S->M ownership upgrades, no data (BusUpgr) *)
  mutable bus_updates : int;  (* Dragon word broadcasts (BusUpd) *)
  mutable bus_writebacks : int;  (* dirty-line flushes to memory *)
  mutable bus_syncs : int;  (* lock/barrier read-modify-writes on the bus *)
  mutable bus_words : int;  (* data words moved over the bus *)
  mutable cache_hits : int;
  mutable cache_misses : int;
  mutable cache_evictions : int;  (* valid lines displaced by a fill *)
  mutable invalidations : int;  (* remote copies killed by BusRdX/BusUpgr *)
  mutable updates_applied : int;  (* remote copies refreshed by BusUpd *)
  charges : float array;  (* simulated ns per overhead category *)
}

let create () =
  {
    messages = 0;
    fragments = 0;
    bytes = 0;
    read_notice_bytes = 0;
    retransmits = 0;
    rto_timeouts = 0;
    dup_suppressed = 0;
    frames_dropped = 0;
    frames_duplicated = 0;
    acks_sent = 0;
    link_failures = 0;
    read_faults = 0;
    write_faults = 0;
    diffs_created = 0;
    diff_words = 0;
    diffs_gced = 0;
    pages_fetched = 0;
    intervals_created = 0;
    interval_comparisons = 0;
    concurrent_pairs = 0;
    overlapping_pairs = 0;
    bitmaps_requested = 0;
    bitmaps_total = 0;
    bitmap_round_bytes = 0;
    intervals_in_overlap = 0;
    bitmap_comparisons = 0;
    shared_reads = 0;
    shared_writes = 0;
    private_accesses = 0;
    lock_acquires = 0;
    barriers = 0;
    races_reported = 0;
    site_entries = 0;
    elided_checks = 0;
    bus_transactions = 0;
    bus_reads = 0;
    bus_read_x = 0;
    bus_upgrades = 0;
    bus_updates = 0;
    bus_writebacks = 0;
    bus_syncs = 0;
    bus_words = 0;
    cache_hits = 0;
    cache_misses = 0;
    cache_evictions = 0;
    invalidations = 0;
    updates_applied = 0;
    charges = Array.make (List.length all_categories) 0.0;
  }

let[@inline] category_index = function
  | Cvm_mods -> 0
  | Proc_call -> 1
  | Access_check -> 2
  | Intervals -> 3
  | Bitmaps -> 4

(* Inlined into the per-access charges, so [ns] is never boxed. *)
let[@inline] charge t category ns =
  let i = category_index category in
  t.charges.(i) <- t.charges.(i) +. ns

let charged t category = t.charges.(category_index category)

let total_charged t = Array.fold_left ( +. ) 0.0 t.charges

(* Accumulate [t] into [into], field by field: totals over several runs. *)
let add ~into t =
  into.messages <- into.messages + t.messages;
  into.fragments <- into.fragments + t.fragments;
  into.bytes <- into.bytes + t.bytes;
  into.read_notice_bytes <- into.read_notice_bytes + t.read_notice_bytes;
  into.retransmits <- into.retransmits + t.retransmits;
  into.rto_timeouts <- into.rto_timeouts + t.rto_timeouts;
  into.dup_suppressed <- into.dup_suppressed + t.dup_suppressed;
  into.frames_dropped <- into.frames_dropped + t.frames_dropped;
  into.frames_duplicated <- into.frames_duplicated + t.frames_duplicated;
  into.acks_sent <- into.acks_sent + t.acks_sent;
  into.link_failures <- into.link_failures + t.link_failures;
  into.read_faults <- into.read_faults + t.read_faults;
  into.write_faults <- into.write_faults + t.write_faults;
  into.diffs_created <- into.diffs_created + t.diffs_created;
  into.diff_words <- into.diff_words + t.diff_words;
  into.diffs_gced <- into.diffs_gced + t.diffs_gced;
  into.pages_fetched <- into.pages_fetched + t.pages_fetched;
  into.intervals_created <- into.intervals_created + t.intervals_created;
  into.interval_comparisons <- into.interval_comparisons + t.interval_comparisons;
  into.concurrent_pairs <- into.concurrent_pairs + t.concurrent_pairs;
  into.overlapping_pairs <- into.overlapping_pairs + t.overlapping_pairs;
  into.bitmaps_requested <- into.bitmaps_requested + t.bitmaps_requested;
  into.bitmaps_total <- into.bitmaps_total + t.bitmaps_total;
  into.bitmap_round_bytes <- into.bitmap_round_bytes + t.bitmap_round_bytes;
  into.intervals_in_overlap <- into.intervals_in_overlap + t.intervals_in_overlap;
  into.bitmap_comparisons <- into.bitmap_comparisons + t.bitmap_comparisons;
  into.shared_reads <- into.shared_reads + t.shared_reads;
  into.shared_writes <- into.shared_writes + t.shared_writes;
  into.private_accesses <- into.private_accesses + t.private_accesses;
  into.lock_acquires <- into.lock_acquires + t.lock_acquires;
  into.barriers <- into.barriers + t.barriers;
  into.races_reported <- into.races_reported + t.races_reported;
  into.site_entries <- into.site_entries + t.site_entries;
  into.elided_checks <- into.elided_checks + t.elided_checks;
  into.bus_transactions <- into.bus_transactions + t.bus_transactions;
  into.bus_reads <- into.bus_reads + t.bus_reads;
  into.bus_read_x <- into.bus_read_x + t.bus_read_x;
  into.bus_upgrades <- into.bus_upgrades + t.bus_upgrades;
  into.bus_updates <- into.bus_updates + t.bus_updates;
  into.bus_writebacks <- into.bus_writebacks + t.bus_writebacks;
  into.bus_syncs <- into.bus_syncs + t.bus_syncs;
  into.bus_words <- into.bus_words + t.bus_words;
  into.cache_hits <- into.cache_hits + t.cache_hits;
  into.cache_misses <- into.cache_misses + t.cache_misses;
  into.cache_evictions <- into.cache_evictions + t.cache_evictions;
  into.invalidations <- into.invalidations + t.invalidations;
  into.updates_applied <- into.updates_applied + t.updates_applied;
  Array.iteri (fun i c -> into.charges.(i) <- into.charges.(i) +. c) t.charges

let shared_accesses t = t.shared_reads + t.shared_writes

let instrumented_accesses t = shared_accesses t + t.private_accesses

let transport_active t =
  t.retransmits > 0 || t.rto_timeouts > 0 || t.dup_suppressed > 0 || t.frames_dropped > 0
  || t.frames_duplicated > 0 || t.acks_sent > 0 || t.link_failures > 0

let pp ppf t =
  Format.fprintf ppf
    "@[<v>messages: %d in %d fragments (%d bytes, %d read-notice bytes)@ faults: %dr/%dw, pages fetched: %d@ \
     intervals: %d, comparisons: %d, concurrent pairs: %d, overlapping: %d@ bitmaps requested: \
     %d, compared: %d@ accesses: %d shared-r, %d shared-w, %d private@ sync: %d acquires, %d \
     barriers@ races: %d@]"
    t.messages t.fragments t.bytes t.read_notice_bytes t.read_faults t.write_faults t.pages_fetched
    t.intervals_created t.interval_comparisons t.concurrent_pairs t.overlapping_pairs
    t.bitmaps_requested t.bitmap_comparisons t.shared_reads t.shared_writes t.private_accesses
    t.lock_acquires t.barriers t.races_reported;
  if t.elided_checks > 0 then
    Format.fprintf ppf "@ elided checks: %d" t.elided_checks;
  if t.bus_transactions > 0 then
    Format.fprintf ppf
      "@ bus: %d transactions (%d rd, %d rdx, %d upgr, %d upd, %d wb, %d sync), %d words@ \
       cache: %d hits, %d misses, %d evictions, %d invalidations, %d updates applied"
      t.bus_transactions t.bus_reads t.bus_read_x t.bus_upgrades t.bus_updates
      t.bus_writebacks t.bus_syncs t.bus_words t.cache_hits t.cache_misses
      t.cache_evictions t.invalidations t.updates_applied;
  if transport_active t then
    Format.fprintf ppf
      "@ transport: %d retransmits (%d timeouts), %d dropped, %d duplicated, %d dup-suppressed, \
       %d acks, %d failed links"
      t.retransmits t.rto_timeouts t.frames_dropped t.frames_duplicated t.dup_suppressed
      t.acks_sent t.link_failures
