(** Deterministic binary min-heap of timed events.

    Entries are ordered by [time]; ties break by insertion order, so a run
    that schedules the same events in the same order always pops them in the
    same order.

    [push] allocates one 4-word entry; [top_time] and [take] allocate
    nothing. *)

type 'a t

val create : unit -> 'a t
val length : 'a t -> int
val is_empty : 'a t -> bool

val push : 'a t -> time:int -> 'a -> unit
(** [push t ~time v] inserts [v] at simulated time [time] (nanoseconds). *)

val top_time : 'a t -> int
(** Time of the earliest entry. Raises [Invalid_argument] when the queue
    is empty. *)

val take : 'a t -> 'a
(** Remove the earliest entry and return its value. The vacated slot is
    cleared, so taken values do not stay reachable through the heap's
    backing array. Raises [Invalid_argument] when the queue is empty. *)
