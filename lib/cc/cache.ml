(* Per-processor cache metadata: a set-associative array of line slots
   with LRU replacement.

   Only tags and protocol states live here — the data words stay in the
   machine's single shared memory image (an atomic snooping bus gives
   sequential consistency, so every cached copy always equals memory by
   construction; what the cache model decides is *cost*: hits versus bus
   transactions). The state type is the protocol's ['a]; [invalid] is
   its distinguished empty value.

   Every operation runs on the access or snoop path, so none allocates:
   the scans are top-level loops and results are slot indices. *)

type 'a slot = {
  mutable tag : int;  (* global line number; meaningless when invalid *)
  mutable state : 'a;
  mutable stamp : int;  (* LRU clock value of the last touch *)
}

type 'a t = {
  sets : int;
  ways : int;
  slots : 'a slot array;  (* sets * ways, row-major *)
  mutable tick : int;
}

let create ~sets ~ways ~invalid =
  if sets <= 0 || sets land (sets - 1) <> 0 then
    invalid_arg "Cache.create: sets must be a positive power of two";
  if ways <= 0 then invalid_arg "Cache.create: need at least one way";
  {
    sets;
    ways;
    slots = Array.init (sets * ways) (fun _ -> { tag = -1; state = invalid; stamp = 0 });
    tick = 0;
  }

let slot t i = t.slots.(i)

let base_of t ~line = (line land (t.sets - 1)) * t.ways

let touch t slot =
  t.tick <- t.tick + 1;
  slot.stamp <- t.tick

(* Index in [i, stop) of the valid slot tagged [line], or -1. *)
let rec scan slots ~line ~is_valid i stop =
  if i >= stop then -1
  else
    let slot = Array.unsafe_get slots i in
    if slot.tag = line && is_valid slot.state then i
    else scan slots ~line ~is_valid (i + 1) stop

(* Hit lookup on the access path: bumps the LRU clock. *)
let find t ~line ~is_valid =
  let base = base_of t ~line in
  let i = scan t.slots ~line ~is_valid base (base + t.ways) in
  if i >= 0 then touch t t.slots.(i);
  i

(* Snoop lookup: other processors probing for [line] on a bus
   transaction. No LRU update — a snoop is not a use. *)
let probe t ~line ~is_valid =
  let base = base_of t ~line in
  scan t.slots ~line ~is_valid base (base + t.ways)

(* The first invalid way in [i, stop), else the first way with the
   smallest stamp ([best] is the least-recent valid way seen so far). *)
let rec pick slots ~is_valid i stop best =
  if i >= stop then best
  else
    let slot = Array.unsafe_get slots i in
    if not (is_valid slot.state) then i
    else
      let best = if slot.stamp < (Array.unsafe_get slots best).stamp then i else best in
      pick slots ~is_valid (i + 1) stop best

let victim t ~line ~is_valid =
  let base = base_of t ~line in
  pick t.slots ~is_valid base (base + t.ways) base

let claim t i ~line ~state =
  let slot = t.slots.(i) in
  slot.tag <- line;
  slot.state <- state;
  touch t slot
