(** Chrome trace-event export.

    Renders a decoded log as the JSON array chrome://tracing and Perfetto
    load: one track per processor (blocked stretches as slices, protocol
    activity as instants) and one per directed link that carried traffic
    (sends, deliveries, fault outcomes, retransmissions). It reads the
    log's events with a {!Codec.reader}, one at a time; only the JSON
    grows with the log. *)

val export : Codec.decoded -> string
(** The complete JSON document. *)
