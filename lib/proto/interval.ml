(* Process intervals — the unit of ordering in LRC.

   A new interval starts at every acquire and every release. The interval
   record is exactly the structure CVM ships on synchronization messages:
   an id, a version vector, write notices (pages written), and — the
   paper's modification (ii) — read notices (pages read). Word-level access
   bitmaps and multi-writer diffs stay with the creating processor and are
   fetched on demand (bitmaps in the barrier's extra round, diffs on page
   faults). *)

type id = { proc : int; index : int }

let pp_id ppf id = Format.fprintf ppf "s_%d^%d" id.proc id.index

type t = {
  id : id;
  vc : Vclock.t;  (* creator's vector time at creation; vc.(proc) = index *)
  epoch : int;  (* barrier epoch the interval belongs to *)
  mutable write_pages : int list;  (* write notices *)
  mutable read_pages : int list;  (* read notices (race detection only) *)
  mutable closed : bool;
}

let create ~proc ~index ~vc ~epoch =
  if Vclock.get vc proc <> index then invalid_arg "Interval.create: vc/index mismatch";
  { id = { proc; index }; vc; epoch; write_pages = []; read_pages = []; closed = false }

let id t = t.id
let proc t = t.id.proc
let index t = t.id.index

(* Monomorphic int-list membership: [List.mem] goes through the
   polymorphic comparator, and these run on the barrier master for every
   concurrent pair of the epoch. *)
let rec mem_page (page : int) = function
  | [] -> false
  | p :: tl -> p = page || mem_page page tl

let add_write_page t page =
  if not (mem_page page t.write_pages) then t.write_pages <- page :: t.write_pages

let add_read_page t page =
  if not (mem_page page t.read_pages) then t.read_pages <- page :: t.read_pages

let precedes a b =
  (* sigma_p^i happens-before sigma_q^j iff q had seen p's interval i when
     it created interval j: the constant-time, two-integer comparison the
     paper relies on. *)
  Vclock.get b.vc a.id.proc >= a.id.index

let concurrent a b = (not (precedes a b)) && not (precedes b a)

let rec has_common xs ys =
  match xs with [] -> false | x :: tl -> mem_page x ys || has_common tl ys

let overlapping_pages a b =
  (* Pages through which the pair could race: written by both, or written
     by one and read by the other. Almost every concurrent pair of an
     epoch overlaps nowhere, so an allocation-free emptiness probe runs
     first and the lists are only materialized for genuine candidates. *)
  if
    has_common a.write_pages b.write_pages
    || has_common a.read_pages b.write_pages
    || has_common a.write_pages b.read_pages
  then begin
    let inter xs ys = List.filter (fun x -> mem_page x ys) xs in
    let ww = inter a.write_pages b.write_pages in
    let rw = inter a.read_pages b.write_pages in
    let wr = inter a.write_pages b.read_pages in
    List.sort_uniq Int.compare (ww @ rw @ wr)
  end
  else []

let size_bytes ~with_read_notices t =
  (* id + epoch + version vector + 4 bytes per notice; read and write
     notices are the same size, as in the paper. *)
  let read_part = if with_read_notices then 4 * List.length t.read_pages else 0 in
  12 + Vclock.size_bytes t.vc + (4 * List.length t.write_pages) + read_part

let read_notice_bytes t = 4 * List.length t.read_pages

let compare_ids a b =
  match Int.compare a.proc b.proc with 0 -> Int.compare a.index b.index | c -> c
