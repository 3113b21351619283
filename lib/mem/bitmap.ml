(* Per-page access bitmaps: one bit per word of a page, recording which
   words an interval read or wrote. These are the structures the detector
   compares at barriers to distinguish false sharing from true races.

   Backed by an [int array] of 63-bit words so that union, intersection
   and emptiness tests run one machine operation per 63 bits instead of
   per bit or per byte. The wire size charged to the simulation
   ([size_bytes]) stays the packed (nbits+7)/8 of the byte encoding: the
   backing store is a host-side concern and must not change simulated
   message sizes. *)

type t = { words : int array; nbits : int }

let bits_per_word = 63

let word_count nbits = (nbits + bits_per_word - 1) / bits_per_word

let create nbits =
  if nbits < 0 then invalid_arg "Bitmap.create";
  { words = Array.make (word_count nbits) 0; nbits }

let check_index t i = if i < 0 || i >= t.nbits then invalid_arg "Bitmap: index out of range"

let set t i =
  check_index t i;
  let w = i / bits_per_word and b = i mod bits_per_word in
  Array.unsafe_set t.words w (Array.unsafe_get t.words w lor (1 lsl b))

let get t i =
  check_index t i;
  Array.unsafe_get t.words (i / bits_per_word) land (1 lsl (i mod bits_per_word)) <> 0

let clear_all t = Array.fill t.words 0 (Array.length t.words) 0

let any_set t =
  let n = Array.length t.words in
  let rec scan i = i < n && (Array.unsafe_get t.words i <> 0 || scan (i + 1)) in
  scan 0

let is_empty t = not (any_set t)

(* 64-bit SWAR popcount; sound for 63-bit payloads (the byte sums top out
   at 63, well inside the high byte the final shift extracts). *)
let popcount x =
  let x = x - ((x lsr 1) land 0x5555555555555555) in
  let x = (x land 0x3333333333333333) + ((x lsr 2) land 0x3333333333333333) in
  let x = (x + (x lsr 4)) land 0x0f0f0f0f0f0f0f0f in
  (x * 0x0101010101010101) lsr 56

let cardinal t = Array.fold_left (fun acc w -> acc + popcount w) 0 t.words

let same_length a b =
  if a.nbits <> b.nbits then invalid_arg "Bitmap: length mismatch"

let intersects a b =
  same_length a b;
  let n = Array.length a.words in
  let rec scan i =
    i < n && (Array.unsafe_get a.words i land Array.unsafe_get b.words i <> 0 || scan (i + 1))
  in
  scan 0

let inter_indices a b =
  same_length a b;
  let hits = ref [] in
  for w = Array.length a.words - 1 downto 0 do
    let x = Array.unsafe_get a.words w land Array.unsafe_get b.words w in
    if x <> 0 then begin
      let base = w * bits_per_word in
      for b = bits_per_word - 1 downto 0 do
        if x land (1 lsl b) <> 0 then hits := (base + b) :: !hits
      done
    end
  done;
  !hits

let union_into ~dst src =
  same_length dst src;
  for i = 0 to Array.length dst.words - 1 do
    Array.unsafe_set dst.words i (Array.unsafe_get dst.words i lor Array.unsafe_get src.words i)
  done

let copy t = { words = Array.copy t.words; nbits = t.nbits }

(* wire size when shipped: the packed byte encoding, independent of the
   word-array backing *)
let size_bytes t = (t.nbits + 7) / 8

let set_indices t =
  let hits = ref [] in
  for w = Array.length t.words - 1 downto 0 do
    let x = Array.unsafe_get t.words w in
    if x <> 0 then begin
      let base = w * bits_per_word in
      for b = bits_per_word - 1 downto 0 do
        if x land (1 lsl b) <> 0 then hits := (base + b) :: !hits
      done
    end
  done;
  !hits
