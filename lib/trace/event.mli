(** Trace events: everything a run decides, from wire-frame fates up to
    race reports. A recorded stream of these (plus the run metadata in
    {!Codec.meta}) is sufficient to re-check a replay event-by-event and
    to reconstruct the race set and final memory checksum offline. *)

type fault_outcome =
  | Passed of { copies : int; extra_delay_ns : int }
      (** survived; [copies > 1] means fault injection duplicated it *)
  | Dropped  (** lost to the drop probability *)
  | Blackholed  (** swallowed by a partition window *)

type bus_kind =
  | Bus_rd  (** read-miss line fill *)
  | Bus_rdx  (** write-miss fill with invalidation *)
  | Bus_upgr  (** ownership upgrade, no data *)
  | Bus_upd  (** Dragon word broadcast *)
  | Bus_wb  (** dirty-line writeback *)
  | Bus_sync  (** lock/barrier read-modify-write *)

type t =
  | Msg_send of { src : int; dst : int; kind : string; bytes : int }
  | Msg_deliver of { src : int; dst : int; kind : string; bytes : int }
  | Fault of { src : int; dst : int; outcome : fault_outcome }
  | Partition of { a : int; b : int; up : bool }
  | Retransmit of { src : int; dst : int; seq : int }
  | Ack of { src : int; dst : int; cum : int }
  | Link_failure of { src : int; dst : int }
  | Proc_block of { proc : int; label : string }
  | Proc_resume of { proc : int }
  | Proc_finish of { proc : int }
  | Page_fault of { proc : int; page : int; kind : Proto.Race.access_kind }
  | Diff_fetch of { proc : int; page : int; count : int }
  | Diff_apply of { proc : int; page : int; words : int }
  | Lock_acquire of { proc : int; lock : int; vc : Proto.Vclock.t }
  | Lock_release of { proc : int; lock : int; vc : Proto.Vclock.t }
  | Barrier_enter of { proc : int; epoch : int }
  | Barrier_leave of { proc : int; epoch : int; vc : Proto.Vclock.t }
  | Interval_open of { proc : int; index : int; epoch : int }
  | Interval_close of {
      proc : int;
      index : int;
      epoch : int;
      write_pages : int list;
      read_pages : int list;
    }
  | Bus of { proc : int; kind : bus_kind; line : int }
      (** one snooping-bus transaction won by [proc]; [line] is the
          cache-line number, or the lock/barrier id for [Bus_sync] *)
  | Check_entry of {
      a : Proto.Interval.id;
      b : Proto.Interval.id;
      pages : int list;
    }
  | Race of Proto.Race.t
  | Run_end of { checksum : int; sim_time_ns : int; races : int }
      (** terminal event: final memory checksum, total simulated time, and
          deduplicated race count *)

val bus_kind_name : bus_kind -> string
(** Short stable name ("rd", "rdx", "upgr", "upd", "wb", "sync"). *)

val equal : t -> t -> bool
(** Structural equality, except that two [Race] events compare with
    {!Proto.Race.equal}, which ignores the order of the pair. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string

val tag : t -> string
(** Stable constructor name ("msg-send", "race", ...) for statistics and
    the chrome exporter. *)
