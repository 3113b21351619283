(** Binary trace-log codec.

    Layout: magic ["CVMT"], a format-version byte, the run metadata, then
    one record per event — tag byte, zigzag-LEB128 time delta, fields.
    The metadata makes a log self-contained: [replay] rebuilds the exact
    cluster configuration from it. *)

val magic : string

val version : int
(** The format version this build writes and decodes (v8). *)

type meta = {
  m_app : string;
  m_scale : string;  (** "paper", "small" or "large" *)
  m_nprocs : int;
  m_protocol : string;  (** {!Coherence.Config.protocol_name} *)
  m_detect : bool;
  m_first_race_only : bool;
  m_stores_from_diffs : bool;
  m_seed : int;  (** roots the network RNG streams *)
  m_drop : float;
  m_dup : float;
  m_reorder : float;
  m_partitions : (int * int * int * int) list;  (** a, b, from_ns, until_ns *)
  m_transport : int option;
      (** [Some n]: the reliable transport ran with a retry cap of [n]; its
          timeouts and frame sizes are constants of [Sim.Transport] *)
  m_gc_epochs : int option;  (** interval-GC cadence *)
  m_elide : bool;
      (** elide checks at statically race-free sites. Only the flag is
          stored — the site set is re-derived from the app's binary at
          replay time *)
  m_backend : string;  (** coherence backend id ("lrc", "mesi", "dragon") *)
}

exception Corrupt of string
(** Raised by {!decode} on a malformed log. *)

type encoder

val encoder : meta -> encoder
(** Fresh encoder with the header and metadata already written. *)

val add : encoder -> time:int -> Event.t -> unit
(** Append one event. [time] is absolute simulated nanoseconds and must
    be monotone non-decreasing across calls (deltas are what's stored;
    a regression still round-trips, it just costs zigzag bytes). *)

val count : encoder -> int
val contents : encoder -> string

val encode : meta -> (int * Event.t) array -> string
(** One-shot encoding of a (time, event) stream. *)

type decoded = private {
  meta : meta;
  log : string;  (** the whole log, as given to {!decode} *)
  first : int;  (** byte offset of the first record *)
  count : int;  (** number of records *)
  races : Proto.Race.t list;  (** the [Race] records, in log order *)
  run_end : (int * int) option;
      (** checksum and simulated time of the last [Run_end] record *)
}
(** A checked log. It holds the log's bytes, not its events: a decoded
    log costs the log's size plus its metadata and race records, and
    {!reader} walks its events one at a time. *)

val decode : string -> decoded
(** Check a complete log in one pass and keep its bytes. Raises
    {!Corrupt} on bad magic, a truncated or garbled record, or a format
    version other than {!version} — the error says explicitly whether
    the log is too old or too new, never a misleading field-level decode
    crash. The pass allocates only each record's short-lived event. *)

(** {2 Walking a decoded log} *)

type reader
(** A position in a decoded log and the simulated time there. Reading
    cannot fail: {!decode} checked every record. *)

val reader : decoded -> reader
(** A reader at the first record, at time 0. *)

val more : reader -> bool
(** Whether a record is left to read. *)

val next : reader -> Event.t
(** Decode the next record and step past it; {!time} becomes its time.
    Call it only when {!more} holds. *)

val time : reader -> int
(** Absolute simulated time of the record {!next} last returned (0
    before the first). *)

val event_start : reader -> int
(** Byte offset of the event {!next} last returned: its tag byte, past
    the record's time delta. *)

val event_end : reader -> int
(** Byte offset just past that event, where the next record starts. *)

val event_at : decoded -> int -> Event.t
(** The event at a byte offset {!event_start} gave for this log. *)
