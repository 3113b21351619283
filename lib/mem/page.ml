(* A page is its bytes, read and written as 8-byte words. Words hold
   either int64 or float values (the float is stored as its bit pattern),
   which is enough for all four applications: TSP uses integers,
   SOR/FFT/Water use doubles. *)

type t = Bytes.t

let word_size = 8

let create ~page_size =
  if page_size mod word_size <> 0 then invalid_arg "Page.create";
  Bytes.make page_size '\000'

let words t = Bytes.length t / word_size

(* Bounds-checked 64-bit loads/stores as compiler primitives, so the int64
   stays unboxed inside each accessor body. The bounds check is the word's
   range check. The wire format is little-endian, like
   Bytes.get_int64_le. The accessors inline into their callers, so a
   float read or written on the access path is not boxed. *)
external bytes_get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64"
external bytes_set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64"
external swap64 : int64 -> int64 = "%bswap_int64"

let[@inline] get_int64 t word =
  let v = bytes_get64 t (word * word_size) in
  if Sys.big_endian then swap64 v else v

let[@inline] set_int64 t word v =
  let v = if Sys.big_endian then swap64 v else v in
  bytes_set64 t (word * word_size) v

let[@inline] get_int t word =
  let v = bytes_get64 t (word * word_size) in
  Int64.to_int (if Sys.big_endian then swap64 v else v)

let[@inline] set_int t word v =
  let v = Int64.of_int v in
  bytes_set64 t (word * word_size) (if Sys.big_endian then swap64 v else v)

let[@inline] get_float t word =
  let v = bytes_get64 t (word * word_size) in
  Int64.float_of_bits (if Sys.big_endian then swap64 v else v)

let[@inline] set_float t word v =
  let v = Int64.bits_of_float v in
  bytes_set64 t (word * word_size) (if Sys.big_endian then swap64 v else v)
