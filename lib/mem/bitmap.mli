(** Fixed-width bitsets: one bit per word of a page.

    These record which words an interval read or wrote; the detector
    intersects a read (or write) bitmap of one interval with the write
    bitmap of a concurrent interval to distinguish false sharing from a
    true data race. *)

type t

val create : int -> t
(** [create nbits] is an all-zero bitmap of [nbits] bits. *)

val set : t -> int -> unit
val get : t -> int -> bool
val clear_all : t -> unit
val is_empty : t -> bool
val any_set : t -> bool
val cardinal : t -> int

val intersects : t -> t -> bool
(** Constant-time-per-word overlap test. Raises on length mismatch. *)

val inter_indices : t -> t -> int list
(** Indices set in both bitmaps, ascending — the racy words. *)

val union_into : dst:t -> t -> unit
val set_indices : t -> int list
val copy : t -> t

val size_bytes : t -> int
(** Wire size when shipped to the barrier master. *)
