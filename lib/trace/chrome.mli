(** Chrome trace-event export.

    Renders a decoded log as the JSON array chrome://tracing and Perfetto
    load: one track per processor (blocked stretches as slices, protocol
    activity as instants) and one per directed link that carried traffic
    (sends, deliveries, fault outcomes, retransmissions). It reads the
    log's events with a {!Codec.reader}, one at a time, and writes each
    object as it goes, so nothing held grows with the log. *)

val export : out_channel -> Codec.decoded -> unit
(** Write the complete JSON document to the channel, one object per
    event as the reader yields it. The export makes one track per
    processor of the log's metadata before reading any event: check it
    first ([Core.Trace_run.decode] does). *)
