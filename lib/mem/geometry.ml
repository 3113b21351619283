(* Address-space geometry of the simulated shared segment.

   Addresses are byte addresses in a flat space. Everything below [base] is
   private (stacks, statics, the DSM library itself); the shared segment is
   [base .. base + pages * page_size). All shared data is dynamically
   allocated inside that window, mirroring CVM, which is what lets the
   static analysis eliminate gp-relative accesses. *)

type t = { base : int; page_size : int; pages : int }

(* A power-of-two page size and a page-aligned base make every address
   split a shift and a mask, which the per-access check relies on. *)
let create ?(base = 0x4000_0000) ~page_size ~pages () =
  let pow2 n = n > 0 && n land (n - 1) = 0 in
  if not (pow2 page_size) || page_size < Page.word_size || pages < 0
     || base land (page_size - 1) <> 0
  then
    invalid_arg
      (Printf.sprintf
         "Geometry.create: page size %d, base 0x%x, %d pages (need a power-of-two page size \
          of at least a %d-byte word, a page-aligned base)"
         page_size base pages Page.word_size);
  { base; page_size; pages }

let words_per_page t = t.page_size / Page.word_size

let limit t = t.base + (t.pages * t.page_size)

let addr_of t ~page ~word =
  if page < 0 || page >= t.pages then invalid_arg "Geometry.addr_of: bad page";
  if word < 0 || word >= words_per_page t then invalid_arg "Geometry.addr_of: bad word";
  t.base + (page * t.page_size) + (word * Page.word_size)
