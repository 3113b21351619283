(** Deterministic binary min-heap of timed events.

    Entries are ordered by [time]; ties break by insertion order, so a run
    that schedules the same events in the same order always pops them in the
    same order. *)

type 'a t

val create : unit -> 'a t
val length : 'a t -> int
val is_empty : 'a t -> bool

val push : 'a t -> time:int -> 'a -> unit
(** [push t ~time v] inserts [v] at simulated time [time] (nanoseconds). *)

val pop : 'a t -> (int * 'a) option
(** Remove and return the earliest entry, or [None] when empty. The
    vacated slot is cleared, so popped values do not stay reachable
    through the heap's backing array. *)

val peek_time : 'a t -> int option
(** Time of the earliest entry without removing it. *)
