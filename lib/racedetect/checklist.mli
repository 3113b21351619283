(** Check-list entries: concurrent interval pairs with overlapping page
    accesses, shipped on barrier release messages so processes can return
    the word-level bitmaps the master needs. *)

type entry = { a : Proto.Interval.id; b : Proto.Interval.id; pages : int list }

val bitmap_requests : entry list -> (Proto.Interval.id * int) list
(** Distinct (interval, page) bitmaps the master must retrieve. *)

val requests_by_proc : entry list -> nprocs:int -> (Proto.Interval.id * int) list array
(** The master's request plan for one epoch: {!bitmap_requests} split by
    the owning processor, so bucket [p] holds, in the same order, the
    requests whose interval has [id.proc = p]. Raises [Invalid_argument]
    if an entry names a processor outside [0, nprocs). *)

val size_bytes : entry list -> int
(** Wire size of the check list on the barrier release message. *)

val pp : Format.formatter -> entry -> unit
