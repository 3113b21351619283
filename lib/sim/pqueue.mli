(** Deterministic binary min-heap of timed integer handles.

    Entries are ordered by [time]; ties break by insertion order, so a run
    that schedules the same handles in the same order always pops them in
    the same order. What a handle names is the caller's business: the
    engine queues a process by its pid and a timed thunk by a slot of its
    thunk table.

    The heap is three [int] arrays, so no operation stores a pointer:
    [push], [top_time] and [take] allocate nothing, apart from [push]
    doubling the arrays when they are full. *)

type t

val create : unit -> t
val length : t -> int
val is_empty : t -> bool

val push : t -> time:int -> int -> unit
(** [push t ~time h] inserts handle [h] at simulated time [time]
    (nanoseconds). *)

val top_time : t -> int
(** Time of the earliest entry. Raises [Invalid_argument] when the queue
    is empty. *)

val take : t -> int
(** Remove the earliest entry and return its handle. Raises
    [Invalid_argument] when the queue is empty. *)
