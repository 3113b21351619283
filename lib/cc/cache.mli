(** Set-associative per-processor cache metadata with LRU replacement.

    Holds tags and protocol states only — the data words live in the
    machine's single coherent memory image. Parametric in the state type
    so MESI and Dragon share the structure.

    Slots are named by index. No operation here allocates: a lookup
    returns a slot index or [-1], and replacement is two steps
    ({!victim}, then {!claim}) so the caller can read what it displaces
    in place. *)

type 'a slot = {
  mutable tag : int;  (** global line number; meaningless when invalid *)
  mutable state : 'a;
  mutable stamp : int;  (** LRU clock value of the last touch *)
}

type 'a t

val create : sets:int -> ways:int -> invalid:'a -> 'a t
(** [sets] must be a positive power of two. *)

val slot : 'a t -> int -> 'a slot
(** The slot at an index returned by {!find}, {!probe} or {!victim}. *)

val find : 'a t -> line:int -> is_valid:('a -> bool) -> int
(** Access-path lookup: the index of the valid slot holding [line], or
    [-1]. Touches the LRU clock on a hit. *)

val probe : 'a t -> line:int -> is_valid:('a -> bool) -> int
(** Snoop lookup, as {!find} but never touching the LRU clock (a snoop
    is not a use). *)

val victim : 'a t -> line:int -> is_valid:('a -> bool) -> int
(** The slot a fill of [line] takes: the set's first invalid way if it
    has one, else its least-recently-touched way (the first of equals).
    Changes nothing; a valid victim is an eviction, and its tag and state
    are the caller's to read before {!claim}. *)

val claim : 'a t -> int -> line:int -> state:'a -> unit
(** Retag a slot to [line] in [state] and touch it. *)
