(* The paper's race-detection algorithm, steps 2-5 (section 4), as pure
   functions over interval records. The barrier master drives them:

   2. find all pairs of concurrent intervals in the epoch (constant-time
      version-vector comparisons);
   3. winnow to pairs whose read/write page lists overlap -> check list;
   4. (driven by the LRC barrier: an extra message round retrieves the
      word-level bitmaps for everything on the check list);
   5. compare bitmaps; read-write or write-write overlap is a data race. *)

type bitmap_pair = { reads : Mem.Bitmap.t; writes : Mem.Bitmap.t }

type bitmap_source = Proto.Interval.id -> page:int -> bitmap_pair

let concurrent_pairs ?stats intervals =
  (* Only cross-processor pairs need a comparison: intervals of one
     processor are totally ordered by program order. The count of
     comparisons performed is what bounds the O(i^2 p^2) term.

     The scan is O(n^2) and runs on the barrier master every epoch, so
     the id fields and version vectors are hoisted into flat arrays
     first: the inner test is then four integer loads — the paper's
     constant-time comparison — with no field chasing. *)
  let count = ref 0 in
  let pairs = ref [] in
  let arr = Array.of_list intervals in
  let n = Array.length arr in
  let procs = Array.make n 0 and indices = Array.make n 0 in
  let vcs = Array.make n [||] in
  Array.iteri
    (fun i (iv : Proto.Interval.t) ->
      procs.(i) <- iv.Proto.Interval.id.Proto.Interval.proc;
      indices.(i) <- iv.Proto.Interval.id.Proto.Interval.index;
      vcs.(i) <- iv.Proto.Interval.vc)
    arr;
  for i = 0 to n - 1 do
    let proc_i = Array.unsafe_get procs i
    and index_i = Array.unsafe_get indices i
    and vc_i = Array.unsafe_get vcs i in
    for j = i + 1 to n - 1 do
      if Array.unsafe_get procs j <> proc_i then begin
        incr count;
        (* concurrent a b = neither precedes: vc_b.(proc_a) < index_a
           and vc_a.(proc_b) < index_b *)
        if
          Array.unsafe_get (Array.unsafe_get vcs j) proc_i < index_i
          && Array.unsafe_get vc_i (Array.unsafe_get procs j) < Array.unsafe_get indices j
        then pairs := (Array.unsafe_get arr i, Array.unsafe_get arr j) :: !pairs
      end
    done
  done;
  (match stats with
  | Some s -> s.Sim.Stats.interval_comparisons <- s.Sim.Stats.interval_comparisons + !count
  | None -> ());
  List.rev !pairs

(* One bit per page, [page mod 63]: two intervals that share a page share
   its bit, so disjoint signatures prove disjoint page lists with one
   integer test, and only pairs whose signatures meet have their lists
   walked. *)
let page_signature pages = List.fold_left (fun sg page -> sg lor (1 lsl (page mod 63))) 0 pages

(* Intervals named by at least one entry, the intervals_in_overlap count. *)
let involved_count entries =
  List.concat_map (fun (e : Checklist.entry) -> [ e.a; e.b ]) entries
  |> List.sort_uniq Proto.Interval.compare_ids
  |> List.length

let concurrent_check_list ?stats ?probe intervals =
  (* Steps 2 and 3 fused: the concurrent-pair list is never materialized —
     each cross-processor pair is tested and winnowed in place, in the
     same scan order, with the same statistics, as {!concurrent_pairs}
     followed by {!check_list}. On a big epoch the intermediate list is
     hundreds of thousands of pairs of which a handful survive; this scan
     allocates only for the survivors. Returns the concurrent-pair count
     (the master's interval-phase cost charge) with the check list. *)
  let count = ref 0 in
  let n_concurrent = ref 0 in
  let entries = ref [] in
  let arr = Array.of_list intervals in
  let n = Array.length arr in
  let procs = Array.make n 0 and indices = Array.make n 0 in
  let vcs = Array.make n [||] in
  let write_sigs = Array.make n 0 and read_sigs = Array.make n 0 in
  Array.iteri
    (fun i (iv : Proto.Interval.t) ->
      procs.(i) <- iv.Proto.Interval.id.Proto.Interval.proc;
      indices.(i) <- iv.Proto.Interval.id.Proto.Interval.index;
      vcs.(i) <- iv.Proto.Interval.vc;
      write_sigs.(i) <- page_signature iv.Proto.Interval.write_pages;
      read_sigs.(i) <- page_signature iv.Proto.Interval.read_pages)
    arr;
  for i = 0 to n - 1 do
    let proc_i = Array.unsafe_get procs i
    and index_i = Array.unsafe_get indices i
    and vc_i = Array.unsafe_get vcs i
    and wa = Array.unsafe_get write_sigs i
    and ra = Array.unsafe_get read_sigs i in
    for j = i + 1 to n - 1 do
      if Array.unsafe_get procs j <> proc_i then begin
        incr count;
        if
          Array.unsafe_get (Array.unsafe_get vcs j) proc_i < index_i
          && Array.unsafe_get vc_i (Array.unsafe_get procs j) < Array.unsafe_get indices j
        then begin
          incr n_concurrent;
          let wb = Array.unsafe_get write_sigs j and rb = Array.unsafe_get read_sigs j in
          if (wa land (wb lor rb)) lor (ra land wb) <> 0 then begin
            let a = Array.unsafe_get arr i and b = Array.unsafe_get arr j in
            match Proto.Interval.overlapping_pages a b with
            | [] -> ()
            | pages ->
                entries :=
                  { Checklist.a = Proto.Interval.id a; b = Proto.Interval.id b; pages }
                  :: !entries
          end
        end
      end
    done
  done;
  let entries = List.rev !entries in
  (match probe with
  | Some f -> List.iter f entries
  | None -> ());
  (match stats with
  | Some s ->
      s.Sim.Stats.interval_comparisons <- s.Sim.Stats.interval_comparisons + !count;
      s.Sim.Stats.concurrent_pairs <- s.Sim.Stats.concurrent_pairs + !n_concurrent;
      s.Sim.Stats.overlapping_pairs <- s.Sim.Stats.overlapping_pairs + List.length entries;
      s.Sim.Stats.intervals_in_overlap <- s.Sim.Stats.intervals_in_overlap + involved_count entries
  | None -> ());
  (!n_concurrent, entries)

let check_list ?stats ?probe pairs =
  let entries =
    List.filter_map
      (fun (a, b) ->
        match Proto.Interval.overlapping_pages a b with
        | [] -> None
        | pages ->
            Some { Checklist.a = Proto.Interval.id a; b = Proto.Interval.id b; pages })
      pairs
  in
  (match probe with
  | Some f -> List.iter f entries
  | None -> ());
  (match stats with
  | Some s ->
      s.Sim.Stats.concurrent_pairs <- s.Sim.Stats.concurrent_pairs + List.length pairs;
      s.Sim.Stats.overlapping_pairs <- s.Sim.Stats.overlapping_pairs + List.length entries;
      s.Sim.Stats.intervals_in_overlap <- s.Sim.Stats.intervals_in_overlap + involved_count entries
  | None -> ());
  entries

let races_of_entry ?stats ~geometry ~epoch ~source (entry : Checklist.entry) =
  let open Proto in
  let races = ref [] in
  let emit page word first second =
    let addr = Mem.Geometry.addr_of geometry ~page ~word in
    races := { Race.addr; page; word; first; second; epoch } :: !races
  in
  List.iter
    (fun page ->
      let ba = source entry.a ~page and bb = source entry.b ~page in
      (match stats with
      | Some s -> s.Sim.Stats.bitmap_comparisons <- s.Sim.Stats.bitmap_comparisons + 1
      | None -> ());
      List.iter
        (fun word -> emit page word (entry.a, Race.Write) (entry.b, Race.Write))
        (Mem.Bitmap.inter_indices ba.writes bb.writes);
      List.iter
        (fun word -> emit page word (entry.a, Race.Read) (entry.b, Race.Write))
        (Mem.Bitmap.inter_indices ba.reads bb.writes);
      List.iter
        (fun word -> emit page word (entry.a, Race.Write) (entry.b, Race.Read))
        (Mem.Bitmap.inter_indices ba.writes bb.reads))
    entry.pages;
  List.rev !races
