(** Reliable transport over a lossy wire — the analogue of the end-to-end
    protocols CVM layered over raw UDP.

    Per directed link: sequence numbers, cumulative acks, retransmission
    with exponential backoff and a retry cap, duplicate suppression, and
    in-order reassembly. The layer above keeps an exactly-once FIFO view
    of the network while the wire below ({!Fault}) drops, duplicates and
    reorders frames.

    The module is wire-agnostic: [wire_send] hands a frame to the lossy
    medium, and the medium calls {!wire_receive} for every copy that
    survives. {!Net} provides both ends. *)

type config = {
  max_retries : int;  (** per-frame cap before the link is declared dead *)
}
(** The one setting a run chooses; [Coherence.Config.check] rejects a
    cap outside [0, {!max_retry_cap}]. The rest are constants: a 1 ms
    first retransmission timeout (about 4x the small-message round trip)
    doubling up to 16 ms, a 12-byte header per data frame, and 32-byte
    acks. *)

val default_config : config
(** A cap of 20 retries. *)

val max_retry_cap : int
(** 1,000: the largest cap a run accepts. A link's timer re-arms at most
    [max_retries] times per frame, and the timeout tops out at 16 ms, so
    a dead link is given up within about 16 simulated seconds and a
    stuck run drains to {!Engine.Deadlock}. [create] itself takes any
    cap. *)

type 'a frame = Data of { seq : int; payload : 'a } | Ack of { cum : int }

type 'a t

val create :
  config ->
  Engine.t ->
  Stats.t ->
  nodes:int ->
  wire_send:(src:int -> dst:int -> 'a frame -> unit) ->
  deliver:(src:int -> dst:int -> 'a -> unit) ->
  'a t
(** [wire_send] puts a frame on the (lossy) wire; [deliver] is the
    exactly-once, per-link-FIFO upcall to the layer above. With an
    engine tracer ({!Engine.set_tracer}) installed, retransmissions,
    cumulative acks and link failures are emitted into it. *)

val send : 'a t -> src:int -> dst:int -> 'a -> unit
(** Enqueue a payload on link (src, dst): assigns the next sequence
    number, transmits, and arms the retransmission timer. On a link that
    already exhausted its retry cap the payload is parked unacked (it
    appears in {!diagnostics}) and nothing is transmitted. *)

val wire_receive : 'a t -> src:int -> dst:int -> 'a frame -> unit
(** Called by the wire for every frame copy that survives fault
    injection, with the frame's own (src, dst). Data frames are
    reassembled in order and acked cumulatively; acks advance the
    reverse link's send window. *)

val frame_bytes : payload_bytes:('a -> int) -> 'a frame -> int
(** Wire size of a frame: payload plus transport header, or the ack size. *)

val failed_links : 'a t -> (int * int) list
(** Links that exhausted the retry cap and were abandoned. *)

val diagnostics : 'a t -> string list
(** One line per link with unacked or parked frames — included in the
    engine's {!Engine.Deadlock} diagnosis. *)
