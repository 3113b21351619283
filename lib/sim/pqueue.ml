(* Binary min-heap keyed by (time, seq). The sequence number makes pops
   deterministic: events scheduled earlier win ties, which is what makes the
   whole simulation reproducible run-to-run. *)

type 'a entry = { time : int; seq : int; value : 'a }

type 'a t = {
  mutable data : 'a entry array;
  mutable size : int;
  mutable next_seq : int;
}

(* Filler for unused slots. The heap never reads slots at or beyond
   [size], so the only requirement is that the filler does not keep any
   popped value reachable: its [value] is an immediate, which is safe to
   view at any type (it is never looked at). Without this, a popped
   entry stayed pinned in the vacated tail slot for the life of the
   queue — closures, messages and all. *)
let nil : Obj.t entry = { time = min_int; seq = min_int; value = Obj.repr 0 }

let nil_entry () : 'a entry = Obj.magic nil

let create () = { data = [||]; size = 0; next_seq = 0 }

let length t = t.size

let is_empty t = t.size = 0

let entry_before a b = a.time < b.time || (a.time = b.time && a.seq < b.seq)

let grow t =
  let capacity = max 16 (2 * Array.length t.data) in
  let data = Array.make capacity (nil_entry ()) in
  Array.blit t.data 0 data 0 t.size;
  t.data <- data

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if entry_before t.data.(i) t.data.(parent) then begin
      let tmp = t.data.(i) in
      t.data.(i) <- t.data.(parent);
      t.data.(parent) <- tmp;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let left = (2 * i) + 1 and right = (2 * i) + 2 in
  let smallest = ref i in
  if left < t.size && entry_before t.data.(left) t.data.(!smallest) then
    smallest := left;
  if right < t.size && entry_before t.data.(right) t.data.(!smallest) then
    smallest := right;
  if !smallest <> i then begin
    let tmp = t.data.(i) in
    t.data.(i) <- t.data.(!smallest);
    t.data.(!smallest) <- tmp;
    sift_down t !smallest
  end

let push t ~time value =
  let entry = { time; seq = t.next_seq; value } in
  t.next_seq <- t.next_seq + 1;
  if t.size = Array.length t.data then grow t;
  t.data.(t.size) <- entry;
  t.size <- t.size + 1;
  sift_up t (t.size - 1)

let top_time t =
  if t.size = 0 then invalid_arg "Pqueue.top_time: empty queue";
  t.data.(0).time

let take t =
  if t.size = 0 then invalid_arg "Pqueue.take: empty queue";
  let top = t.data.(0) in
  t.size <- t.size - 1;
  if t.size > 0 then begin
    t.data.(0) <- t.data.(t.size);
    t.data.(t.size) <- nil_entry ();
    sift_down t 0
  end
  else t.data.(0) <- nil_entry ();
  top.value
