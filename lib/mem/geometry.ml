(* Address-space geometry of the simulated shared segment.

   Addresses are byte addresses in a flat space. Everything below [base] is
   private (stacks, statics, the DSM library itself); the shared segment is
   [base .. base + pages * page_size). All shared data is dynamically
   allocated inside that window, mirroring CVM, which is what lets the
   static analysis eliminate gp-relative accesses. *)

type t = { base : int; page_size : int; word_size : int; pages : int }

(* Power-of-two sizes and a page-aligned base make every address split
   a shift and a mask, which the per-access check relies on. *)
let create ?(base = 0x4000_0000) ~page_size ~word_size ~pages () =
  let pow2 n = n > 0 && n land (n - 1) = 0 in
  if not (pow2 page_size && pow2 word_size) || word_size > page_size || pages < 0
     || base land (page_size - 1) <> 0
  then
    invalid_arg
      (Printf.sprintf
         "Geometry.create: page size %d, word size %d, base 0x%x, %d pages (need power-of-two \
          sizes, a word no larger than a page, a page-aligned base)"
         page_size word_size base pages);
  { base; page_size; word_size; pages }

let of_cost (cost : Sim.Cost.t) ~pages =
  create ~page_size:cost.Sim.Cost.page_size ~word_size:cost.Sim.Cost.word_size ~pages ()

let words_per_page t = t.page_size / t.word_size

let limit t = t.base + (t.pages * t.page_size)

let in_shared t addr = addr >= t.base && addr < limit t

let page_of_addr t addr =
  if not (in_shared t addr) then invalid_arg "Geometry.page_of_addr: address not shared";
  (addr - t.base) / t.page_size

let word_in_page t addr = addr mod t.page_size / t.word_size

let addr_of t ~page ~word =
  if page < 0 || page >= t.pages then invalid_arg "Geometry.addr_of: bad page";
  if word < 0 || word >= words_per_page t then invalid_arg "Geometry.addr_of: bad word";
  t.base + (page * t.page_size) + (word * t.word_size)

let shared_bytes t = t.pages * t.page_size
