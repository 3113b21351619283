(* Vector clocks ("version vectors" in the paper). Each interval is stamped
   with one; comparing two stamps decides concurrency in constant time,
   which is the property the whole online detection scheme leans on. *)

type t = int array

let create nprocs = Array.make nprocs 0

let copy = Array.copy

let get t p = t.(p)

let set t p v = t.(p) <- v

let incr t p = t.(p) <- t.(p) + 1

let merge_into ~dst src =
  let n = Array.length dst in
  if n <> Array.length src then invalid_arg "Vclock.merge_into";
  for i = 0 to n - 1 do
    let v = Array.unsafe_get src i in
    if v > Array.unsafe_get dst i then Array.unsafe_set dst i v
  done

let merge a b =
  let dst = copy a in
  merge_into ~dst b;
  dst

let leq a b =
  let n = Array.length a in
  if n <> Array.length b then invalid_arg "Vclock.leq";
  let rec scan i =
    i >= n || (Array.unsafe_get a i <= Array.unsafe_get b i && scan (i + 1))
  in
  scan 0

let concurrent a b = (not (leq a b)) && not (leq b a)

let size_bytes t = 4 * Array.length t

let pp ppf t =
  Format.fprintf ppf "<%s>" (String.concat "," (Array.to_list (Array.map string_of_int t)))
