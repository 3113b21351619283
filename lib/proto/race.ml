(* Race reports. The system prints the shared-segment address of the
   affected variable together with the interval indexes (paper §6.1);
   source sites are attached when the instrumentation's watch mode has
   program-counter information for the address. *)

type access_kind = Read | Write

let pp_kind ppf = function
  | Read -> Format.pp_print_string ppf "read"
  | Write -> Format.pp_print_string ppf "write"

type t = {
  addr : int;  (* shared-segment byte address of the racy word *)
  page : int;
  word : int;  (* word index within the page *)
  first : Interval.id * access_kind;
  second : Interval.id * access_kind;
  epoch : int;
}

let kind_rank = function Write -> 0 | Read -> 1

let normalize t =
  (* Canonical order inside the pair so that duplicate detection and
     set-comparison against the oracle are stable. *)
  let (ia, ka), (ib, kb) = (t.first, t.second) in
  if
    Interval.compare_ids ia ib > 0
    || (Interval.compare_ids ia ib = 0 && kind_rank ka > kind_rank kb)
  then { t with first = (ib, kb); second = (ia, ka) }
  else t

(* Polymorphic [compare]'s order on the constructors: Read before Write. *)
let compare_kind a b =
  match (a, b) with
  | Read, Write -> -1
  | Write, Read -> 1
  | Read, Read | Write, Write -> 0

(* The order of polymorphic [compare] on the tuple
   (addr, first id, first kind, second id, second kind) of two
   normalized reports, field by field. *)
let compare_normalized a b =
  let (ia1, ka1), (ia2, ka2) = (a.first, a.second) in
  let (ib1, kb1), (ib2, kb2) = (b.first, b.second) in
  let c = Int.compare a.addr b.addr in
  if c <> 0 then c
  else
    let c = Interval.compare_ids ia1 ib1 in
    if c <> 0 then c
    else
      let c = compare_kind ka1 kb1 in
      if c <> 0 then c
      else
        let c = Interval.compare_ids ia2 ib2 in
        if c <> 0 then c else compare_kind ka2 kb2

let compare a b = compare_normalized (normalize a) (normalize b)

let equal a b = compare a b = 0

let is_write_write t = snd t.first = Write && snd t.second = Write

let pp_named ~name_of ppf t =
  let (ia, ka), (ib, kb) = (t.first, t.second) in
  Format.fprintf ppf "data race at %s (page %d word %d, epoch %d): %a by %a vs %a by %a"
    (name_of t.addr) t.page t.word t.epoch pp_kind ka Interval.pp_id ia pp_kind kb
    Interval.pp_id ib

let pp ppf t = pp_named ~name_of:(Printf.sprintf "0x%08x") ppf t

let dedup races = List.sort_uniq compare_normalized (List.map normalize races)
