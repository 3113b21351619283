(* Simulated network: point-to-point messages with a latency + bandwidth
   cost model, standing in for CVM's end-to-end UDP protocols on 155 Mbit
   ATM.

   Two modes:

   - Reliable wire (default, the seed behaviour): every message is
     delivered exactly once, {!Cost.message_ns} after it is sent. A
     per-link clamp keeps FIFO order: a short message never overtakes a
     longer one (a page) sent before it on the same link.

   - Lossy wire + reliable transport: an active {!Fault} plan may drop,
     duplicate, reorder or delay every wire frame (and acks!), and
     {!Transport} restores the exactly-once FIFO view above it with
     sequence numbers, cumulative acks and capped exponential-backoff
     retransmission. Byte accounting happens per wire frame, so
     retransmitted bytes are charged.

   Delivery invokes the destination node's handler directly, at delivery
   time, the way CVM services requests from a SIGIO handler: protocol
   requests are serviced even while the node's application code is blocked
   or computing. Handlers route replies to the waiting application
   coroutine themselves. Self-sends use the loopback path: no wire, no
   faults, {!Cost.loopback_ns} delay. *)

type 'msg t = {
  engine : Engine.t;
  stats : Stats.t;
  handlers : ('msg -> unit) option array;  (* per node *)
  size_of : 'msg -> int;
  describe : 'msg -> string;  (* payload tag of the traced send/deliver events *)
  last_delivery : int array;  (* per (src, dst) link: the FIFO clamp *)
  tracer : Trace.Sink.t option;
      (* the engine's sink, read at [create]; never perturbs delivery.
         Events are built under [Some] only, so without a tracer a send
         or delivery pays one branch, not the event and the
         [describe]/[size_of] calls *)
  mutable transport : 'msg Transport.t option;
}

let set_handler t ~node f = t.handlers.(node) <- Some f

(* a message's or wire frame's fragments and bytes on the wire *)
let count_wire stats ~bytes =
  stats.Stats.fragments <- stats.Stats.fragments + Cost.fragments ~bytes;
  stats.Stats.bytes <- stats.Stats.bytes + Cost.wire_bytes ~bytes

let deliver t ~src ~dst msg =
  (match t.tracer with
  | Some sink ->
      Trace.Sink.emit sink ~time:(Engine.now t.engine)
        (Trace.Event.Msg_deliver { src; dst; kind = t.describe msg; bytes = t.size_of msg })
  | None -> ());
  match t.handlers.(dst) with
  | Some f -> f msg
  | None -> invalid_arg (Printf.sprintf "Net: no handler at node %d" dst)

(* Reliable delivery with the per-link FIFO clamp (seed behaviour). *)
let deliver_ordered t ~src ~dst ~delay msg =
  let link = (src * Array.length t.handlers) + dst in
  let at = max (Engine.now t.engine + delay) (t.last_delivery.(link) + 1) in
  t.last_delivery.(link) <- at;
  Engine.schedule t.engine ~at (fun () -> deliver t ~src ~dst msg)

let send t ~src ~dst msg =
  if dst < 0 || dst >= Array.length t.handlers then invalid_arg "Net.send: bad destination";
  let bytes = t.size_of msg in
  (match t.tracer with
  | Some sink ->
      Trace.Sink.emit sink ~time:(Engine.now t.engine)
        (Trace.Event.Msg_send { src; dst; kind = t.describe msg; bytes })
  | None -> ());
  t.stats.Stats.messages <- t.stats.Stats.messages + 1;
  if src = dst then begin
    (* loopback: protocol stack only — no wire, no faults, no transport *)
    count_wire t.stats ~bytes;
    deliver_ordered t ~src ~dst ~delay:Cost.loopback_ns msg
  end
  else
    match t.transport with
    | Some transport -> Transport.send transport ~src ~dst msg
    | None ->
        count_wire t.stats ~bytes;
        deliver_ordered t ~src ~dst ~delay:(Cost.message_ns ~bytes) msg

let create ?fault:(plan = Fault.none) ?(fault_rng = Rng.create ~seed:1) ?transport
    ?(describe = fun _ -> "msg") engine stats ~nodes ~size_of =
  if Fault.active plan && transport = None then
    invalid_arg "Net.create: an active fault plan requires the reliable transport";
  let t =
    {
      engine;
      stats;
      size_of;
      describe;
      last_delivery = Array.make (nodes * nodes) 0;
      tracer = Engine.tracer engine;
      transport = None;
      handlers = Array.make nodes None;
    }
  in
  (match transport with
  | None -> ()
  | Some cfg ->
      let faults = Fault.create ~nodes ~rng:fault_rng plan in
      (* Partition windows have no event of their own on the wire; report
         each open/close transition at the first wire activity that
         observes it. Lazy observation keeps the event queue identical
         with and without a tracer installed. *)
      let partition_down = Array.make (List.length plan.Fault.partitions) false in
      let note_partitions sink =
        let now = Engine.now engine in
        List.iteri
          (fun i (p : Fault.partition) ->
            let down = now >= p.Fault.p_from_ns && now < p.Fault.p_until_ns in
            if down <> partition_down.(i) then begin
              partition_down.(i) <- down;
              Trace.Sink.emit sink ~time:now
                (Trace.Event.Partition { a = p.Fault.p_a; b = p.Fault.p_b; up = not down })
            end)
          plan.Fault.partitions
      in
      let payload_bytes = size_of in
      (* the wire below the transport: per-frame byte accounting, fault
         verdicts, unclamped delivery *)
      let wire_send ~src ~dst frame =
        let bytes = Transport.frame_bytes ~payload_bytes frame in
        count_wire stats ~bytes;
        let verdict = Fault.judge_verdict faults ~src ~dst ~now:(Engine.now engine) in
        let verdicts = verdict.Fault.v_delays in
        (* report only frames the plan actually touched *)
        (match t.tracer with
        | None -> ()
        | Some sink -> (
            note_partitions sink;
            let fault outcome =
              Trace.Sink.emit sink ~time:(Engine.now engine)
                (Trace.Event.Fault { src; dst; outcome })
            in
            if verdict.Fault.v_partitioned then fault Trace.Event.Blackholed
            else if verdict.Fault.v_dropped && verdicts = [] then fault Trace.Event.Dropped
            else
              match verdicts with
              | first :: rest when first > 0 || rest <> [] || verdict.Fault.v_dropped ->
                  let copies = List.length verdicts in
                  fault (Trace.Event.Passed { copies; extra_delay_ns = first })
              | _ -> ()));
        (match verdicts with
        | [] -> stats.Stats.frames_dropped <- stats.Stats.frames_dropped + 1
        | _ :: extra_copies ->
            stats.Stats.frames_duplicated <-
              stats.Stats.frames_duplicated + List.length extra_copies);
        List.iter
          (fun extra ->
            let at = Engine.now engine + Cost.message_ns ~bytes + extra in
            Engine.schedule engine ~at (fun () ->
                match t.transport with
                | Some tr -> Transport.wire_receive tr ~src ~dst frame
                | None -> ()))
          verdicts
      in
      t.transport <-
        Some (Transport.create cfg engine stats ~nodes ~wire_send ~deliver:(deliver t)));
  t

let transport t = t.transport

let diagnostics t = match t.transport with Some tr -> Transport.diagnostics tr | None -> []
