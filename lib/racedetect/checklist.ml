(* Check-list entries: a pair of concurrent intervals whose page-access
   lists overlap, plus the overlapping pages. The barrier release message
   carries this list to every process; each process answers with the
   word-level bitmaps the master needs for step 5. *)

type entry = { a : Proto.Interval.id; b : Proto.Interval.id; pages : int list }

(* The order polymorphic [compare] gives an (id, page) pair, without the
   generic structural walk: proc, then index, then page. *)
let compare_request ((ia : Proto.Interval.id), (pa : int)) ((ib : Proto.Interval.id), pb) =
  match Proto.Interval.compare_ids ia ib with 0 -> Int.compare pa pb | c -> c

let bitmap_requests entries =
  (* Distinct (interval, page) bitmaps the master must retrieve. *)
  let add acc id pages = List.fold_left (fun acc page -> (id, page) :: acc) acc pages in
  List.fold_left (fun acc e -> add (add acc e.a e.pages) e.b e.pages) [] entries
  |> List.sort_uniq compare_request

let requests_by_proc entries ~nprocs =
  (* The requests are sorted by proc first, so each bucket is one
     contiguous run of the sorted list and keeps its order. *)
  let buckets = Array.make nprocs [] in
  List.iter
    (fun (((id : Proto.Interval.id), _) as request) ->
      buckets.(id.proc) <- request :: buckets.(id.proc))
    (List.rev (bitmap_requests entries));
  buckets

let size_bytes entries =
  (* Two ids + a page list per entry. *)
  List.fold_left (fun acc e -> acc + 16 + (4 * List.length e.pages)) 0 entries

let pp ppf e =
  Format.fprintf ppf "(%a,%a)@[pages [%s]@]" Proto.Interval.pp_id e.a Proto.Interval.pp_id e.b
    (String.concat ";" (List.map string_of_int e.pages))
