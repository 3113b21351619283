(** Replay verification and log-only reconstruction.

    A {!verifier} is a {!Sink.t} that, instead of appending events,
    compares the live stream against a decoded log and latches the first
    mismatch — recorded index, expected vs. actual event, simulated time,
    and each processor's last recorded activity at that point. It reads
    the log's records one at a time, as the live events arrive. *)

type divergence = {
  d_index : int;  (** 0-based position in the recorded stream *)
  d_time : int;  (** simulated time of the mismatch *)
  d_expected : (int * Event.t) option;
      (** [None]: the live run produced events past the end of the log *)
  d_actual : (int * Event.t) option;
      (** [None]: the live run ended before consuming the whole log *)
  d_proc_state : (int * string) list;
      (** last recorded activity per processor, for the report *)
}

val pp_divergence : Format.formatter -> divergence -> unit

type verifier

val create : Codec.decoded -> verifier
(** A verifier at the log's first record. It holds the decoded log and a
    {!Codec.reader} over it, plus each processor's last matched record
    offset and time: the log's bytes and O(processors) more, however
    long the log. *)

val sink : verifier -> Sink.t

val check : verifier -> time:int -> Event.t -> unit
(** Compare one live event against the next recorded one. After the
    first mismatch the verifier goes inert (subsequent events are
    ignored); the latched divergence is what {!divergence} returns. *)

val divergence : verifier -> divergence option

val finish : verifier -> divergence option
(** Declare the live stream over: recorded events not yet matched become
    a divergence with [d_actual = None]. Returns the final verdict. *)

(** {2 Log-only reconstruction} *)

(** [races_of_log], [checksum_of_log] and [sim_time_of_log] return what
    {!Codec.decode} gathered in its checking pass; none walks the log. *)

val races_of_log : Codec.decoded -> Proto.Race.t list
(** The deduplicated race set, rebuilt from [Race] events alone. *)

val checksum_of_log : Codec.decoded -> int option
(** Final memory checksum from the [Run_end] event, if the log has one. *)

val sim_time_of_log : Codec.decoded -> int option

type tag_stats = { ts_tag : string; ts_count : int; ts_bytes : int }

val tags_of_log : Codec.decoded -> tag_stats list
(** Per-tag event counts and encoded payload bytes, largest first: one
    walk of the log, each record's size taken from the reader's offsets
    (the time delta left out). *)
