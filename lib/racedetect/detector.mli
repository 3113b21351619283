(** The paper's online race-detection algorithm (section 4, steps 2-5) as
    pure functions over interval records. The LRC barrier master drives
    them at each global synchronization point. *)

type bitmap_pair = { reads : Mem.Bitmap.t; writes : Mem.Bitmap.t }

type bitmap_source = Proto.Interval.id -> page:int -> bitmap_pair
(** How the master obtains the word-level access bitmaps for an interval
    and page on the check list (in the full system, via the extra barrier
    round). *)

val concurrent_pairs :
  ?stats:Sim.Stats.t -> Proto.Interval.t list -> (Proto.Interval.t * Proto.Interval.t) list
(** Step 2: all cross-processor concurrent pairs among the epoch's
    intervals. Each comparison is the constant-time version-vector check;
    the count feeds the O(i^2 p^2) bound of the paper. *)

val concurrent_check_list :
  ?stats:Sim.Stats.t ->
  ?probe:(Checklist.entry -> unit) ->
  Proto.Interval.t list ->
  int * Checklist.entry list
(** Steps 2 and 3 fused: same comparisons, winnowing, order and statistics
    as {!concurrent_pairs} piped into {!check_list}, but the intermediate
    concurrent-pair list is never built. Returns the concurrent-pair
    count alongside the check list. *)

val check_list :
  ?stats:Sim.Stats.t ->
  ?probe:(Checklist.entry -> unit) ->
  (Proto.Interval.t * Proto.Interval.t) list ->
  Checklist.entry list
(** Step 3: winnow concurrent pairs to those whose page lists overlap
    (write-write, or read in one and written in the other). [probe]
    observes every retained entry (the trace recorder's hook). *)

val races_of_entry :
  ?stats:Sim.Stats.t ->
  geometry:Mem.Geometry.t ->
  epoch:int ->
  source:bitmap_source ->
  Checklist.entry ->
  Proto.Race.t list
(** Step 5: compare word-level bitmaps for one check-list entry; every
    overlapping word is a data race (true sharing); disjoint words are
    false sharing and produce nothing. *)
