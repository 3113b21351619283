(* Wire messages of the DSM. Sizes approximate CVM's encodings closely
   enough for the bandwidth model and Table 3's message-overhead column:
   a fixed header plus the obvious field costs.

   Interval records and diffs are immutable once shipped (intervals are
   closed before they travel), so the simulation shares them by reference
   instead of serializing. *)

type bitmap_item = {
  interval : Proto.Interval.id;
  page : int;
  reads : Mem.Bitmap.t;
  writes : Mem.Bitmap.t;
}

type t =
  (* distributed locks (manager = proc 0; token chases last grantee) *)
  | Lock_req of { lock : int; requester : int; vc : Proto.Vclock.t }
  | Lock_ack of { lock : int; seq : int }
      (* manager -> requester: your request was sequenced as [seq] *)
  | Lock_fwd of { lock : int; requester : int; vc : Proto.Vclock.t; seq : int }
  | Lock_grant of {
      lock : int;
      granter_vc : Proto.Vclock.t;
      intervals : Proto.Interval.t list;  (* what the acquirer hasn't seen *)
    }
  (* barriers (master = proc 0) *)
  | Barrier_arrive of { from_ : int; vc : Proto.Vclock.t; intervals : Proto.Interval.t list }
  | Barrier_release of {
      master_vc : Proto.Vclock.t;
      intervals : Proto.Interval.t list;
      check_list_size : int;  (* bytes of the piggybacked check list *)
    }
  (* the extra barrier round that retrieves word-level access bitmaps *)
  | Bitmap_req of { requests : (Proto.Interval.id * int) list }
  | Bitmap_reply of { from_ : int; bitmaps : bitmap_item list }
  (* single-writer paging: requests go through the manager, data flows
     directly owner -> requester, and the requester acks the manager so the
     per-page request queue can drain *)
  | Copy_req of { page : int; requester : int }
  | Copy_fwd of { page : int; requester : int }
  | Copy_data of { page : int; data : Bytes.t }
  | Own_req of { page : int; requester : int }
  | Own_fwd of { page : int; requester : int }
  | Own_data of { page : int; data : Bytes.t }
  | Page_done of { page : int; requester : int }
  (* home-based LRC: diffs flush eagerly to each page's home; faults
     fetch whole pages from the home, gated on a version vector *)
  | Diff_flush of {
      page : int;
      diffs : (Proto.Interval.id * Mem.Diff.t) list;
      vc : Proto.Vclock.t;  (* flusher's knowledge; bounds the home version *)
    }
  | Home_req of { page : int; requester : int; needed : Proto.Vclock.t }
  | Home_data of { page : int; data : Bytes.t }
  (* multi-writer diff fetching *)
  | Diff_req of { page : int; ids : Proto.Interval.id list; requester : int }
  | Diff_reply of { page : int; diffs : (Proto.Interval.id * Mem.Diff.t) list }

let header_bytes = 24

let intervals_bytes ~with_read_notices intervals =
  List.fold_left
    (fun acc interval -> acc + Proto.Interval.size_bytes ~with_read_notices interval)
    0 intervals

let read_notice_bytes intervals =
  List.fold_left (fun acc i -> acc + Proto.Interval.read_notice_bytes i) 0 intervals

let size ~with_read_notices = function
  | Lock_req { vc; _ } | Lock_fwd { vc; _ } -> header_bytes + 8 + Proto.Vclock.size_bytes vc
  | Lock_ack _ -> header_bytes + 8
  | Lock_grant { granter_vc; intervals; _ } ->
      header_bytes + 4
      + Proto.Vclock.size_bytes granter_vc
      + intervals_bytes ~with_read_notices intervals
  | Barrier_arrive { vc; intervals; _ } ->
      header_bytes + 4 + Proto.Vclock.size_bytes vc
      + intervals_bytes ~with_read_notices intervals
  | Barrier_release { master_vc; intervals; check_list_size } ->
      header_bytes
      + Proto.Vclock.size_bytes master_vc
      + intervals_bytes ~with_read_notices intervals
      + check_list_size
  | Bitmap_req { requests } -> header_bytes + (12 * List.length requests)
  | Bitmap_reply { bitmaps; _ } ->
      header_bytes
      + List.fold_left
          (fun acc item ->
            acc + 12 + Mem.Bitmap.size_bytes item.reads + Mem.Bitmap.size_bytes item.writes)
          0 bitmaps
  | Copy_req _ | Own_req _ | Copy_fwd _ | Own_fwd _ | Page_done _ -> header_bytes + 8
  | Copy_data { data; _ } | Own_data { data; _ } -> header_bytes + 8 + Bytes.length data
  | Diff_flush { diffs; vc; _ } ->
      header_bytes + 8 + Proto.Vclock.size_bytes vc
      + List.fold_left (fun acc (_, diff) -> acc + 8 + Mem.Diff.size_bytes diff) 0 diffs
  | Home_req { needed; _ } -> header_bytes + 8 + Proto.Vclock.size_bytes needed
  | Home_data { data; _ } -> header_bytes + 8 + Bytes.length data
  | Diff_req { ids; _ } -> header_bytes + 8 + (8 * List.length ids)
  | Diff_reply { diffs; _ } ->
      header_bytes + 8
      + List.fold_left (fun acc (_, diff) -> acc + 8 + Mem.Diff.size_bytes diff) 0 diffs

let describe = function
  | Lock_req _ -> "lock-req"
  | Lock_ack _ -> "lock-ack"
  | Lock_fwd _ -> "lock-fwd"
  | Lock_grant _ -> "lock-grant"
  | Barrier_arrive _ -> "barrier-arrive"
  | Barrier_release _ -> "barrier-release"
  | Bitmap_req _ -> "bitmap-req"
  | Bitmap_reply _ -> "bitmap-reply"
  | Copy_req _ -> "copy-req"
  | Copy_fwd _ -> "copy-fwd"
  | Copy_data _ -> "copy-data"
  | Own_req _ -> "own-req"
  | Own_fwd _ -> "own-fwd"
  | Own_data _ -> "own-data"
  | Page_done _ -> "page-done"
  | Diff_flush _ -> "diff-flush"
  | Home_req _ -> "home-req"
  | Home_data _ -> "home-data"
  | Diff_req _ -> "diff-req"
  | Diff_reply _ -> "diff-reply"
