(* Reliable transport over a lossy wire — the analogue of the end-to-end
   protocols CVM layered over raw UDP on ATM.

   Each directed (src, dst) link carries its own sequence-number space.
   The sender keeps every unacknowledged frame, retransmits the oldest on
   a timer with exponential backoff, and gives the link up after a retry
   cap (the engine's deadlock diagnosis then reports the stranded
   frames). The receiver delivers exactly once and in order:
   out-of-sequence frames park in a reassembly buffer, duplicates are
   suppressed, and every data frame is answered with a cumulative ack, so
   a lost ack is repaired by the next one. The layer above (the DSM)
   therefore keeps its exactly-once FIFO view of the network while the
   wire below drops, duplicates and reorders at will. *)

type config = {
  max_retries : int;  (* per-frame cap before the link is declared dead *)
}

let default_config = { max_retries = 20 }
let max_retry_cap = 1_000
let initial_rto_ns = 1_000_000 (* ~4x the small-message RTT *)
let max_rto_ns = 16_000_000
let header_bytes = 12
let ack_bytes = 32

type 'a frame = Data of { seq : int; payload : 'a } | Ack of { cum : int }

type 'a sender = {
  mutable next_seq : int;
  unacked : (int * 'a) Queue.t;  (* (seq, payload), oldest first *)
  mutable retries : int;  (* consecutive timeouts for the oldest frame *)
  mutable rto : int;
  mutable timer_gen : int;  (* bump to cancel an armed timer *)
  mutable failed : bool;  (* retry cap exhausted; link abandoned *)
}

type 'a receiver = {
  mutable expected : int;  (* next sequence number to deliver *)
  parked : (int, 'a) Hashtbl.t;  (* out-of-order frames awaiting the gap *)
}

type 'a t = {
  cfg : config;
  engine : Engine.t;
  stats : Stats.t;
  nodes : int;
  senders : 'a sender array;  (* indexed by src * nodes + dst *)
  receivers : 'a receiver array;
  wire_send : src:int -> dst:int -> 'a frame -> unit;
  deliver : src:int -> dst:int -> 'a -> unit;
  tracer : Trace.Sink.t option;  (* the engine's sink, read at [create] *)
}

let create cfg engine stats ~nodes ~wire_send ~deliver =
  {
    cfg;
    engine;
    stats;
    nodes;
    senders =
      Array.init (nodes * nodes) (fun _ ->
          {
            next_seq = 0;
            unacked = Queue.create ();
            retries = 0;
            rto = initial_rto_ns;
            timer_gen = 0;
            failed = false;
          });
    receivers =
      Array.init (nodes * nodes) (fun _ -> { expected = 0; parked = Hashtbl.create 8 });
    wire_send;
    deliver;
    tracer = Engine.tracer engine;
  }

let link t ~src ~dst = (src * t.nodes) + dst

let frame_bytes ~payload_bytes = function
  | Data { payload; _ } -> header_bytes + payload_bytes payload
  | Ack _ -> ack_bytes

(* Sender side. *)

let rec arm_timer t ~src ~dst s =
  s.timer_gen <- s.timer_gen + 1;
  let gen = s.timer_gen in
  Engine.schedule_after t.engine ~delay:s.rto (fun () ->
      if gen = s.timer_gen && (not s.failed) && not (Queue.is_empty s.unacked) then
        on_timeout t ~src ~dst s)

and on_timeout t ~src ~dst s =
  t.stats.Stats.rto_timeouts <- t.stats.Stats.rto_timeouts + 1;
  s.retries <- s.retries + 1;
  if s.retries > t.cfg.max_retries then begin
    (* give the link up; the stranded frames surface in the engine's
       deadlock diagnosis instead of being retried forever *)
    s.failed <- true;
    t.stats.Stats.link_failures <- t.stats.Stats.link_failures + 1;
    match t.tracer with
    | Some sink ->
        Trace.Sink.emit sink ~time:(Engine.now t.engine)
          (Trace.Event.Link_failure { src; dst })
    | None -> ()
  end
  else begin
    let seq, payload = Queue.peek s.unacked in
    t.stats.Stats.retransmits <- t.stats.Stats.retransmits + 1;
    (match t.tracer with
    | Some sink ->
        Trace.Sink.emit sink ~time:(Engine.now t.engine)
          (Trace.Event.Retransmit { src; dst; seq })
    | None -> ());
    t.wire_send ~src ~dst (Data { seq; payload });
    s.rto <- min (2 * s.rto) max_rto_ns;
    arm_timer t ~src ~dst s
  end

let send t ~src ~dst payload =
  let s = t.senders.(link t ~src ~dst) in
  let seq = s.next_seq in
  s.next_seq <- seq + 1;
  let was_idle = Queue.is_empty s.unacked in
  Queue.add (seq, payload) s.unacked;
  if not s.failed then begin
    t.wire_send ~src ~dst (Data { seq; payload });
    if was_idle then arm_timer t ~src ~dst s
  end

let on_ack t ~src ~dst ~cum =
  (* [cum] acknowledges every sequence number <= cum on link src -> dst *)
  let s = t.senders.(link t ~src ~dst) in
  let advanced = ref false in
  let continue_ = ref true in
  while !continue_ do
    match Queue.peek_opt s.unacked with
    | Some (seq, _) when seq <= cum ->
        ignore (Queue.pop s.unacked);
        advanced := true
    | _ -> continue_ := false
  done;
  if !advanced then begin
    s.retries <- 0;
    s.rto <- initial_rto_ns;
    if s.failed then ()
    else if Queue.is_empty s.unacked then s.timer_gen <- s.timer_gen + 1 (* disarm *)
    else arm_timer t ~src ~dst s
  end

(* Receiver side. *)

let on_data t ~src ~dst ~seq payload =
  let r = t.receivers.(link t ~src ~dst) in
  if seq < r.expected || Hashtbl.mem r.parked seq then
    t.stats.Stats.dup_suppressed <- t.stats.Stats.dup_suppressed + 1
  else Hashtbl.add r.parked seq payload;
  while Hashtbl.mem r.parked r.expected do
    let p = Hashtbl.find r.parked r.expected in
    Hashtbl.remove r.parked r.expected;
    r.expected <- r.expected + 1;
    t.deliver ~src ~dst p
  done;
  (* every data frame earns a cumulative ack; a lost ack is repaired by
     the next one (or by the retransmission it provokes) *)
  t.stats.Stats.acks_sent <- t.stats.Stats.acks_sent + 1;
  (match t.tracer with
  | Some sink ->
      Trace.Sink.emit sink ~time:(Engine.now t.engine)
        (Trace.Event.Ack { src = dst; dst = src; cum = r.expected - 1 })
  | None -> ());
  t.wire_send ~src:dst ~dst:src (Ack { cum = r.expected - 1 })

let wire_receive t ~src ~dst frame =
  match frame with
  | Data { seq; payload } -> on_data t ~src ~dst ~seq payload
  | Ack { cum } ->
      (* an ack travelling dst -> src acknowledges the src -> dst stream
         of the node it arrives at: flip the link back *)
      on_ack t ~src:dst ~dst:src ~cum

(* Introspection (deadlock diagnosis and tests). *)

let failed_links t =
  let acc = ref [] in
  for src = t.nodes - 1 downto 0 do
    for dst = t.nodes - 1 downto 0 do
      if t.senders.(link t ~src ~dst).failed then acc := (src, dst) :: !acc
    done
  done;
  !acc

let diagnostics t =
  let lines = ref [] in
  for src = t.nodes - 1 downto 0 do
    for dst = t.nodes - 1 downto 0 do
      let s = t.senders.(link t ~src ~dst) in
      let r = t.receivers.(link t ~src ~dst) in
      if (not (Queue.is_empty s.unacked)) || Hashtbl.length r.parked > 0 then begin
        let oldest =
          match Queue.peek_opt s.unacked with
          | Some (seq, _) -> Printf.sprintf ", oldest seq %d" seq
          | None -> ""
        in
        lines :=
          Printf.sprintf
            "link %d->%d: %d unacked%s, %d parked out-of-order, rto %d ns, retries %d%s" src
            dst (Queue.length s.unacked) oldest (Hashtbl.length r.parked) s.rto s.retries
            (if s.failed then " [FAILED: retry cap exhausted]" else "")
          :: !lines
      end
    done
  done;
  !lines
