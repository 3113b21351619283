(** Address-space geometry of the simulated shared segment.

    Addresses are flat byte addresses; the shared segment occupies
    [\[base, base + pages * page_size)] and is divided into pages of
    {!Page.word_size}-byte words. Everything outside it is private
    (stacks, statics, library code), mirroring CVM's layout where all
    shared data is dynamically allocated in one mapped region. The
    per-access check ([Coherence.Front]) splits a shared address into
    its page and word. *)

type t = { base : int; page_size : int; pages : int }

val create : ?base:int -> page_size:int -> pages:int -> unit -> t
(** Raises [Invalid_argument] unless the page size is a power of two no
    smaller than a word, [base] is page-aligned and [pages] is not
    negative. *)

val words_per_page : t -> int

val limit : t -> int
(** One past the last shared byte. *)

val addr_of : t -> page:int -> word:int -> int
(** The address of a word of a page. Raises [Invalid_argument] for a page
    or word outside the segment. *)
