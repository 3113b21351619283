(* FNV-1a-64 in native ints. OCaml's [*] wraps modulo 2^63, and the low
   63 bits of a product depend only on the low 63 bits of its factors,
   so every step keeps the low 63 bits of the 64-bit hash exact, and
   [finish] needs only the low 62. *)

type t = int

let init = Int64.to_int 0xcbf29ce484222325L
let prime = 0x100000001b3
let[@inline] mix h byte = (h lxor byte) * prime
let absent h = mix h 0xFF

let page h raw =
  let h = ref (mix h 0x01) in
  for i = 0 to Bytes.length raw - 1 do
    h := mix !h (Char.code (Bytes.unsafe_get raw i))
  done;
  !h

let finish h = h land max_int
