(** Vector clocks — the paper's interval "version vectors".

    [t.(p)] is the highest interval index of processor [p] whose effects are
    visible. Interval ordering (happens-before-1) reduces to pointwise
    comparison, and concurrency of two specific intervals reduces to two
    integer comparisons (see {!Interval.precedes}). *)

type t = int array

val create : int -> t
(** All-zero clock for [nprocs] processors. *)

val copy : t -> t
val get : t -> int -> int
val set : t -> int -> int -> unit
val incr : t -> int -> unit

val merge_into : dst:t -> t -> unit
(** Pointwise maximum, in place — performed at acquires and barriers. *)

val merge : t -> t -> t

val leq : t -> t -> bool
(** Pointwise [<=]: the happens-before-1 order on clocks. *)

val concurrent : t -> t -> bool
(** Neither [leq a b] nor [leq b a]. *)

val size_bytes : t -> int
(** Wire size (4 bytes per entry). *)

val pp : Format.formatter -> t -> unit
