(* The host's speed, measured beside the operations. The host this was
   written on runs at changing speeds as other tenants load it: a fixed
   loop takes 30 to 70 ms, in phases of seconds to a minute. This
   calibration loop does standard-library work the library cannot
   change, hashing and allocation, which slows in those phases about as
   much as the simulator does (integer arithmetic alone hardly slows).
   The untraced pass runs it between operations, for about [share] of the
   operations' time, and scales each operation's time by [reference_s]
   over the median of the loops run next after it, which gives the
   seconds it would take at the speed where the loop takes
   [reference_s]. *)

let reference_s = 0.05
let share = 0.15

let loop () =
  let table = Hashtbl.create 1024 and acc = ref 0 in
  for i = 0 to 120_000 do
    Hashtbl.replace table (i land 65535) (i, [ i; i + 1 ]);
    match Hashtbl.find_opt table ((i * 7) land 65535) with
    | Some (a, _) -> acc := !acc + a
    | None -> ()
  done;
  !acc

(* one loop's host seconds *)
let time () =
  let t0 = Span.now_ns () in
  ignore (Sys.opaque_identity (loop ()));
  float_of_int (Span.now_ns () - t0) /. 1e9

(* Calibration time owed: each operation adds [share] of its own time,
   and [pay] runs loops until nothing is owed, so the loops sample the
   host's speed in proportion to the time the operations take, right
   after them. *)
type t = { mutable owed_s : float; mutable samples : float list }

let create () = { owed_s = 0.0; samples = [] }

let owe c s = c.owed_s <- c.owed_s +. (share *. s)

(* The loop times it ran, none if nothing was owed. The heap is
   compacted first, so that the loops do not pay for the garbage of the
   operation before them (a record-replay run leaves 500 MB). *)
let pay c =
  let paid = ref [] in
  if c.owed_s > 0.0 then Gc.compact ();
  while c.owed_s > 0.0 do
    let s = time () in
    paid := s :: !paid;
    c.owed_s <- c.owed_s -. s
  done;
  c.samples <- !paid @ c.samples;
  !paid

(* [pay], running at least one loop *)
let settle c =
  c.owed_s <- Float.max c.owed_s Float.min_float;
  pay c
