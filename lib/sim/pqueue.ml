(* Binary min-heap of integer handles keyed by (time, seq). The sequence
   number makes pops deterministic: events scheduled earlier win ties,
   which is what makes the whole simulation reproducible run-to-run.

   Entry i of the heap is [times.(i)], [seqs.(i)] and [handles.(i)]:
   three int arrays, so a push allocates no entry record and a sift
   stores no pointer through the write barrier. Sifting moves entries
   into a hole and writes the moving entry once, where the hole stops. *)

type t = {
  mutable times : int array;
  mutable seqs : int array;
  mutable handles : int array;
  mutable size : int;
  mutable next_seq : int;
}

let create () = { times = [||]; seqs = [||]; handles = [||]; size = 0; next_seq = 0 }

let length t = t.size

let is_empty t = t.size = 0

let grow t =
  let capacity = max 16 (2 * Array.length t.times) in
  let extend a =
    let b = Array.make capacity 0 in
    Array.blit a 0 b 0 t.size;
    b
  in
  t.times <- extend t.times;
  t.seqs <- extend t.seqs;
  t.handles <- extend t.handles

let move t ~src ~dst =
  Array.unsafe_set t.times dst (Array.unsafe_get t.times src);
  Array.unsafe_set t.seqs dst (Array.unsafe_get t.seqs src);
  Array.unsafe_set t.handles dst (Array.unsafe_get t.handles src)

let place t i ~time ~seq handle =
  Array.unsafe_set t.times i time;
  Array.unsafe_set t.seqs i seq;
  Array.unsafe_set t.handles i handle

(* Does slot [i] come before the key [(time, seq)]? *)
let before t i ~time ~seq =
  let ti = Array.unsafe_get t.times i in
  ti < time || (ti = time && Array.unsafe_get t.seqs i < seq)

let push t ~time handle =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  if t.size = Array.length t.times then grow t;
  (* sift up from a hole at the end; every slot below [size] is in
     bounds of all three arrays *)
  let hole = ref t.size and rising = ref true in
  t.size <- t.size + 1;
  while !rising && !hole > 0 do
    let parent = (!hole - 1) / 2 in
    if before t parent ~time ~seq then rising := false
    else begin
      move t ~src:parent ~dst:!hole;
      hole := parent
    end
  done;
  place t !hole ~time ~seq handle

let top_time t =
  if t.size = 0 then invalid_arg "Pqueue.top_time: empty queue";
  Array.unsafe_get t.times 0

let take t =
  if t.size = 0 then invalid_arg "Pqueue.take: empty queue";
  let top = Array.unsafe_get t.handles 0 in
  let last = t.size - 1 in
  t.size <- last;
  if last > 0 then begin
    (* sift the last entry down from the root's hole *)
    let time = Array.unsafe_get t.times last and seq = Array.unsafe_get t.seqs last in
    let handle = Array.unsafe_get t.handles last in
    let hole = ref 0 and sifting = ref true in
    while !sifting do
      let left = (2 * !hole) + 1 in
      if left >= last then sifting := false
      else begin
        let right = left + 1 in
        let child =
          if right < last && before t right ~time:(Array.unsafe_get t.times left)
               ~seq:(Array.unsafe_get t.seqs left)
          then right
          else left
        in
        if before t child ~time ~seq then begin
          move t ~src:child ~dst:!hole;
          hole := child
        end
        else sifting := false
      end
    done;
    place t !hole ~time ~seq handle
  end;
  top
