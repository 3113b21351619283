(** A page of simulated shared memory: its bytes, with word-granularity
    accessors.

    Words are {!word_size} bytes and hold either an int64 or a float
    (stored as its bit pattern) — enough for all four applications (TSP
    uses integers; SOR, FFT and Water use doubles). A page is a plain
    [Bytes.t], so copying, blitting and comparing pages, and shipping one
    on the wire, are [Bytes] operations.

    The accessors take a word index; one outside [\[0, words t)] raises
    [Invalid_argument]. *)

type t = Bytes.t

val word_size : int
(** 8: the one word size of every layout (the detector keeps one bit per
    word). *)

val create : page_size:int -> t
(** All-zero page of [page_size] bytes, a whole number of words. *)

val words : t -> int

val get_int64 : t -> int -> int64
val set_int64 : t -> int -> int64 -> unit
val get_float : t -> int -> float
val set_float : t -> int -> float -> unit

val get_int : t -> int -> int
(** [Int64.to_int] of the word — the value round-trips exactly for any
    OCaml [int] stored with {!set_int}, without materializing a boxed
    int64 on the access path. *)

val set_int : t -> int -> int -> unit
