(* Host-time spans recorded from outside the library: each one is a call
   into a layer's public function, with the domain-local minor words it
   allocated. Spans stay in memory until the run ends; [reduce] turns
   them into per-name totals and self times (duration minus the part
   covered by child spans). *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

type span = {
  id : int;
  parent : int;  (* -1 for a top-level span *)
  name : string;
  start_ns : int;
  mutable end_ns : int;
  words_start : float;
  mutable words : float;  (* minor words allocated inside the span *)
}

type t = { mutable spans : span list; mutable open_ : span list; mutable next : int }

let create () = { spans = []; open_ = []; next = 0 }

let with_ t name f =
  let parent = match t.open_ with s :: _ -> s.id | [] -> -1 in
  let s =
    {
      id = t.next;
      parent;
      name;
      start_ns = now_ns ();
      end_ns = 0;
      words_start = Gc.minor_words ();
      words = 0.0;
    }
  in
  t.next <- t.next + 1;
  t.open_ <- s :: t.open_;
  let close () =
    s.end_ns <- now_ns ();
    s.words <- Gc.minor_words () -. s.words_start;
    t.open_ <- List.tl t.open_;
    t.spans <- s :: t.spans
  in
  match f () with
  | v ->
      close ();
      v
  | exception e ->
      close ();
      raise e

let duration_s s = float_of_int (s.end_ns - s.start_ns) /. 1e9

type total = {
  count : int;
  total_s : float;
  self_s : float;
  self_words : float;
}

(* Per-name totals over every closed span, in first-seen order. *)
let reduce t =
  let covered = Hashtbl.create 64 and covered_words = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then begin
        let add tbl v =
          Hashtbl.replace tbl s.parent (v +. Option.value ~default:0.0 (Hashtbl.find_opt tbl s.parent))
        in
        add covered (duration_s s);
        add covered_words s.words
      end)
    t.spans;
  let totals = Hashtbl.create 64 and order = ref [] in
  List.iter
    (fun s ->
      let self_s = duration_s s -. Option.value ~default:0.0 (Hashtbl.find_opt covered s.id) in
      let self_words = s.words -. Option.value ~default:0.0 (Hashtbl.find_opt covered_words s.id) in
      let prev =
        match Hashtbl.find_opt totals s.name with
        | Some p -> p
        | None ->
            order := s.name :: !order;
            { count = 0; total_s = 0.0; self_s = 0.0; self_words = 0.0 }
      in
      Hashtbl.replace totals s.name
        {
          count = prev.count + 1;
          total_s = prev.total_s +. duration_s s;
          self_s = prev.self_s +. self_s;
          self_words = prev.self_words +. self_words;
        })
    (List.rev t.spans);
  List.rev_map (fun name -> (name, Hashtbl.find totals name)) !order

let find totals name =
  match List.assoc_opt name totals with
  | Some v -> v
  | None -> { count = 0; total_s = 0.0; self_s = 0.0; self_words = 0.0 }

let top_level_s t =
  List.fold_left (fun acc s -> if s.parent < 0 then acc +. duration_s s else acc) 0.0 t.spans

(* One JSON array per span, [id, parent, name, start_ns, end_ns,
   minor_words], start times relative to the first span. *)
let write t oc =
  let spans = List.rev t.spans in
  let origin = List.fold_left (fun acc s -> min acc s.start_ns) max_int spans in
  List.iteri
    (fun i s ->
      Printf.fprintf oc "%s\n    [%d, %d, %S, %d, %d, %.0f]" (if i = 0 then "" else ",") s.id
        s.parent s.name (s.start_ns - origin) (s.end_ns - origin) s.words)
    spans
