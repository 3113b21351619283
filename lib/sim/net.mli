(** Simulated network: point-to-point messages with a latency + bandwidth
    cost model (CVM's UDP protocols on 155 Mbit ATM).

    By default the wire is reliable: a message arrives {!Cost.message_ns}
    after it is sent, and no message overtakes an earlier one on its link
    (a short message sent after a page waits for the page). With
    [~transport], a {!Transport} instance is layered between the senders
    and a wire that an active {!Fault} plan may drop, duplicate, reorder
    or delay — the layer above still sees exactly-once FIFO delivery, but
    wire bytes (retransmissions, acks, duplicates) are charged to
    {!Stats}.

    Messages are delivered to a per-node handler at delivery time — the
    analogue of CVM servicing requests from a SIGIO handler — so protocol
    requests are serviced even while the node's application coroutine is
    computing or blocked. *)

type 'msg t

val create :
  ?fault:Fault.plan ->
  ?fault_rng:Rng.t ->
  ?transport:Transport.config ->
  ?describe:('msg -> string) ->
  Engine.t ->
  Stats.t ->
  nodes:int ->
  size_of:('msg -> int) ->
  'msg t
(** [size_of] gives the payload size in bytes; it drives both the bandwidth
    cost model and the byte counters in {!Stats}. [fault_rng] seeds the
    fault plan's per-link streams. An active [fault] plan requires
    [transport] (raises [Invalid_argument] otherwise); [transport] alone
    runs the reliable transport over a fault-free wire.

    When the engine has a tracer ({!Engine.set_tracer}), the network
    emits sends, deliveries, per-frame fault outcomes and partition
    transitions into it; [describe] supplies the payload tag the send
    and delivery events carry. Tracing never perturbs delivery order or
    timing. *)

val set_handler : 'msg t -> node:int -> ('msg -> unit) -> unit
(** Install the delivery handler for a node. Delivering to a node
    without one raises [Invalid_argument]. *)

val send : 'msg t -> src:int -> dst:int -> 'msg -> unit
(** Asynchronous send; delivery happens after latency + bandwidth delay.
    A self-send is delivered after {!Cost.loopback_ns} — loopback never
    touches the wire, so it is lossless even under an aggressive fault
    plan. *)

val transport : 'msg t -> 'msg Transport.t option
(** The transport instance, when one was configured (introspection for
    tests and diagnostics). *)

val diagnostics : 'msg t -> string list
(** The transport's per-link report ([[]] without a transport) —
    suitable for {!Engine.add_diagnostic}. *)
