(* Word-level diffs, as in multi-writer LRC protocols (TreadMarks, CVM's
   multi-writer mode): the per-page summary of modifications made during an
   interval, computed by comparing the page against its twin. *)

(* [values] is a flat byte blob, one word's bytes per changed word in
   [words] order: creating and applying a diff is pure byte movement, with
   no per-word boxed int64. *)
type t = { page : int; words : int array; values : Bytes.t }

external bytes_get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64"

let value_bytes = Page.word_size

let create ~page ~twin ~current =
  let n = Page.words current in
  if Page.words twin <> n then invalid_arg "Diff.create: size mismatch";
  (* two passes: count the changed words, then fill exactly-sized arrays *)
  let count = ref 0 in
  for word = 0 to n - 1 do
    if bytes_get64 twin (word * value_bytes) <> bytes_get64 current (word * value_bytes) then
      incr count
  done;
  let words = Array.make !count 0 in
  let values = Bytes.create (!count * value_bytes) in
  let slot = ref 0 in
  for word = 0 to n - 1 do
    let off = word * value_bytes in
    if bytes_get64 twin off <> bytes_get64 current off then begin
      Array.unsafe_set words !slot word;
      Bytes.blit current off values (!slot * value_bytes) value_bytes;
      incr slot
    end
  done;
  { page; words; values }

let page t = t.page

let word_count t = Array.length t.words

let is_empty t = word_count t = 0

let apply t target =
  for i = 0 to Array.length t.words - 1 do
    Bytes.blit t.values (i * value_bytes) target (Array.unsafe_get t.words i * value_bytes)
      value_bytes
  done

let size_bytes t = 8 + (word_count t * 12)
(* header + (word index, value) pairs; matches CVM's runlength encoding
   order of magnitude without modelling the exact layout *)

let touched_words t = Array.to_list t.words

let to_bitmap t ~nbits =
  let bitmap = Bitmap.create nbits in
  Array.iter (Bitmap.set bitmap) t.words;
  bitmap
