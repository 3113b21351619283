(** Process intervals — the unit of ordering in LRC.

    A new interval starts at every acquire and every release. The record
    carries what CVM ships on synchronization messages: id, version vector,
    write notices, and (when race detection is on) read notices. Word-level
    bitmaps and multi-writer diffs stay with the creating processor and are
    fetched on demand. *)

type id = { proc : int; index : int }

type t = {
  id : id;
  vc : Vclock.t;
  epoch : int;
  mutable write_pages : int list;
  mutable read_pages : int list;
  mutable closed : bool;
}

val create : proc:int -> index:int -> vc:Vclock.t -> epoch:int -> t
(** Requires [vc.(proc) = index]. *)

val id : t -> id
val proc : t -> int
val index : t -> int

val add_write_page : t -> int -> unit
val add_read_page : t -> int -> unit

val precedes : t -> t -> bool
(** Happens-before-1 on intervals, decided by the constant-time two-integer
    comparison of the paper: [precedes a b] iff [b.vc.(a.proc) >= a.index]. *)

val concurrent : t -> t -> bool

val overlapping_pages : t -> t -> int list
(** Pages written by both intervals, or read by one and written by the
    other — the candidates the detector puts on the check list. *)

val size_bytes : with_read_notices:bool -> t -> int
(** Wire size of the interval structure. Read notices only ship when race
    detection is enabled; their bytes are what Table 3's "Msg Ohead"
    measures. *)

val read_notice_bytes : t -> int

val compare_ids : id -> id -> int

val pp_id : Format.formatter -> id -> unit
