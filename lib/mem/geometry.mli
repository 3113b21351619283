(** Address-space geometry of the simulated shared segment.

    Addresses are flat byte addresses; the shared segment occupies
    [\[base, base + pages * page_size)]. Everything outside it is private
    (stacks, statics, library code), mirroring CVM's layout where all
    shared data is dynamically allocated in one mapped region. *)

type t = { base : int; page_size : int; word_size : int; pages : int }

val create : ?base:int -> page_size:int -> word_size:int -> pages:int -> unit -> t
(** Raises [Invalid_argument] unless the page and word sizes are powers
    of two, the word is no larger than the page, [base] is page-aligned
    and [pages] is not negative. *)

val of_cost : Sim.Cost.t -> pages:int -> t
(** Geometry using the page/word sizes of a cost model. *)

val words_per_page : t -> int

val limit : t -> int
(** One past the last shared byte. *)

val in_shared : t -> int -> bool
(** The runtime access check's core predicate: is this address shared? *)

val page_of_addr : t -> int -> int
(** Page index of a shared address. Raises on private addresses. *)

val word_in_page : t -> int -> int
(** Word offset within its page. *)

val addr_of : t -> page:int -> word:int -> int

val shared_bytes : t -> int
