(* Per-processor DSM state and protocol engine — the CVM analogue.

   Each simulated processor owns one [t]. Its application coroutine calls
   the access/synchronization operations in {!Dsm}; protocol messages from
   other processors are serviced by [handle_message], which the network
   invokes at delivery time (CVM's SIGIO handler). Handlers never block;
   replies the application waits for are parked in [replies] and the
   application coroutine is woken.

   Processor 0 additionally plays three central roles, as in the paper's
   prototype: lock manager, page manager (single-writer ownership
   directory), and barrier master (where the race-detection algorithm
   runs). Intervals, access bitmaps, the oracle trace and the detection
   pass itself belong to the shared front-end ({!Coherence.Front}); this
   module keeps pages, faults, diffs, messages and the wire round that
   brings bitmaps to the master.

   Delivery-semantics audit: these handlers are NOT idempotent. A
   re-delivered Lock_req would enqueue a second grant, a duplicated
   Diff_data would re-apply a diff against a base it already mutated, and
   a repeated Barrier_arrive would corrupt the arrival count. They also
   assume per-link FIFO (e.g. Own_data must not overtake the Inv that
   precedes it). The network therefore owes this layer exactly-once FIFO
   delivery: the default wire provides it directly, and in lossy mode
   {!Sim.Transport} (sequence numbers, cumulative acks, retransmission,
   duplicate suppression) restores it before messages reach
   [handle_message]. *)

module Front = Coherence.Front

type pstate = P_invalid | P_read | P_write

type page_entry = {
  data : Mem.Page.t;  (* local copy; contents are retained across invalidation
                         because they are the base diffs apply to *)
  mutable state : pstate;
  mutable owner : bool;  (* single-writer: are we the one writable copy? *)
  mutable twin : Mem.Page.t option;  (* multi-writer / home-based *)
  mutable pending : Proto.Interval.id list;  (* write notices not yet applied *)
  needed : Proto.Vclock.t;  (* home-based: knowledge a fetched copy must cover *)
}

(* Home-based LRC: the authoritative copy a home keeps for each page it
   owns, with the version vector its flushes have reached and the fetches
   waiting for a version that has not arrived yet. *)
type home_page = {
  home_data : Mem.Page.t;
  mutable home_version : Proto.Vclock.t;
  mutable home_waiting : (int * Proto.Vclock.t) list;
}

type lock_local = {
  mutable held : bool;
  mutable expecting : bool;  (* we sent Lock_req and await the grant *)
  mutable pending_seq : int option;  (* manager sequence of our request *)
  mutable early_grants : int;  (* grants that arrived before their manager ack *)
  mutable next_request : (int * Proto.Vclock.t) option;  (* forwarded requester *)
  mutable release_vc : Proto.Vclock.t option;  (* knowledge at our last release *)
}

type page_mgr = {
  mutable page_owner : int;
  mutable busy : bool;
  waiting : Message.t Queue.t;
}

type lock_mgr = { mutable token : int; mutable next_seq : int }

type barrier_master = {
  mutable arrivals : (int * Proto.Vclock.t * Proto.Interval.t list) list;
  mutable pending_checks : Racedetect.Checklist.entry list;
  mutable expected_replies : int;
  collected : (Proto.Interval.id * int, Racedetect.Detector.bitmap_pair) Hashtbl.t;
  mutable master_vc : Proto.Vclock.t;  (* merged arrival clocks *)
  mutable check_bytes : int;  (* wire size of the check list *)
  mutable processing_epoch : int;  (* epoch under analysis *)
}

type t = {
  rt : Front.t;  (* engine, cost, stats, config and the detection front-end *)
  fe : Front.proc;  (* this processor's clock, intervals, bitmaps, time debt *)
  net : Message.t Sim.Net.t;
  log : (Proto.Interval.id, Proto.Interval.t) Hashtbl.t;
  applied : (Proto.Interval.id, unit) Hashtbl.t;  (* notices already applied *)
  max_seen : int array;  (* per-proc highest interval index present in [log] *)
  pages : page_entry array;
  mutable rw_pages : int list;  (* pages currently P_write (for downgrade) *)
  locks : (int, lock_local) Hashtbl.t;
  (* diffs tagged with the creating interval's epoch, for interval GC *)
  diff_store : (Proto.Interval.id * int, Mem.Diff.t * int) Hashtbl.t;
  mutable gc_drop_bound : int;
      (* two-phase diff GC: epoch bound recorded at the last validate
         barrier, executed (diffs with creation epoch < bound dropped) at
         the next one; -1 when no drop is scheduled *)
  replies : Message.t Queue.t;  (* replies awaited by the app coroutine *)
  (* central services, only populated at processor 0 *)
  page_mgrs : page_mgr array;
  lock_mgrs : (int, lock_mgr) Hashtbl.t;
  barrier : barrier_master;
  home_pages : (int, home_page) Hashtbl.t;  (* pages homed at this node *)
}

let words_per_page t = Mem.Geometry.words_per_page t.rt.geometry

let detect_on t = t.rt.cfg.Coherence.Config.detect

let send t ~dst msg =
  let with_read_notices = detect_on t in
  (match msg with
  | Message.Lock_grant { intervals; _ }
  | Message.Barrier_arrive { intervals; _ }
  | Message.Barrier_release { intervals; _ } ->
      if with_read_notices then begin
        let extra = Message.read_notice_bytes intervals in
        t.rt.stats.Sim.Stats.read_notice_bytes <-
          t.rt.stats.Sim.Stats.read_notice_bytes + extra;
        Sim.Stats.charge t.rt.stats Sim.Stats.Cvm_mods
          (Sim.Cost.byte_ns *. float_of_int extra)
      end
  | Message.Bitmap_req _ | Message.Bitmap_reply _ ->
      t.rt.stats.Sim.Stats.bitmap_round_bytes <-
        t.rt.stats.Sim.Stats.bitmap_round_bytes + Message.size ~with_read_notices msg
  | _ -> ());
  Sim.Net.send t.net ~src:t.fe.id ~dst msg

(* Deferred send used by handlers that model serialized master-side work:
   the message leaves after the master has "spent" the computation time. *)
let send_after t ~delay ~dst msg =
  if delay <= 0 then send t ~dst msg
  else Sim.Engine.schedule_after t.rt.engine ~delay (fun () -> send t ~dst msg)

(* ------------------------------------------------------------------ *)
(* Interval lifecycle                                                  *)

let home_of t page = page mod t.rt.nprocs

let make_diffs t interval =
  (* Summarize this interval's writes as word-level diffs. Multi-writer
     keeps each diff for the faults that will request it, and with
     [stores_from_diffs] the diffs also provide the write bitmaps
     (section 6.5's optimization). Home-based LRC flushes each diff to
     the page's home at once and retains nothing: the home copy is the
     authority faults fetch from. *)
  let id = Proto.Interval.id interval in
  let home_based = t.rt.cfg.Coherence.Config.protocol = Coherence.Config.Home_based in
  List.iter
    (fun page ->
      let entry = t.pages.(page) in
      match entry.twin with
      | None -> ()
      | Some twin ->
          let diff = Mem.Diff.create ~page ~twin ~current:entry.data in
          entry.twin <- None;
          entry.state <- P_read;
          if not home_based then
            Hashtbl.replace t.diff_store (id, page) (diff, interval.Proto.Interval.epoch);
          t.rt.stats.Sim.Stats.diffs_created <- t.rt.stats.Sim.Stats.diffs_created + 1;
          t.rt.stats.Sim.Stats.diff_words <-
            t.rt.stats.Sim.Stats.diff_words + Mem.Diff.word_count diff;
          Front.charge_local t.fe
            (Sim.Cost.diff_word_ns *. float_of_int (words_per_page t));
          if home_based then
            send t ~dst:(home_of t page)
              (Message.Diff_flush
                 { page; diffs = [ (id, diff) ]; vc = Proto.Vclock.copy t.fe.vc })
          else if detect_on t && t.rt.cfg.Coherence.Config.stores_from_diffs then begin
            let writes = Mem.Diff.to_bitmap diff ~nbits:(words_per_page t) in
            let reads =
              match Hashtbl.find_opt t.fe.bitmaps (id, page) with
              | Some pair -> pair.Racedetect.Detector.reads
              | None -> Mem.Bitmap.create (words_per_page t)
            in
            Hashtbl.replace t.fe.bitmaps (id, page) { Racedetect.Detector.reads; writes }
          end)
    interval.Proto.Interval.write_pages

let learn t interval =
  (* Handler-safe half of incorporation: record the interval in the log.
     No page effects — those belong to the learning node's own NEXT
     synchronization point, not to the moment a message happens to arrive
     (the barrier master receives arrivals while its own interval is still
     open; invalidating mid-interval corrupts twins). *)
  let id = Proto.Interval.id interval in
  if not (Hashtbl.mem t.log id) then begin
    Hashtbl.replace t.log id interval;
    if id.Proto.Interval.index > t.max_seen.(id.Proto.Interval.proc) then
      t.max_seen.(id.Proto.Interval.proc) <- id.Proto.Interval.index
  end

(* Own intervals enter the log as they open, so grants and barrier
   releases can ship them. *)
let open_interval t =
  Front.open_interval t.rt t.fe;
  learn t t.fe.cur

let close_interval t =
  (* bitmaps first: under [stores_from_diffs] the diff pass merges the
     write bitmaps it derives into the entries the snapshot created *)
  let interval = Front.close_interval t.rt t.fe in
  let protocol = t.rt.cfg.Coherence.Config.protocol in
  if protocol = Coherence.Config.Multi_writer || protocol = Coherence.Config.Home_based then
    make_diffs t interval
  else begin
    (* single-writer: downgrade our writable pages so the first write of the
       next interval faults locally and generates a fresh write notice *)
    List.iter
      (fun page ->
        let entry = t.pages.(page) in
        if entry.state = P_write then entry.state <- P_read)
      t.rw_pages;
    t.rw_pages <- []
  end;
  Front.publish_interval t.rt t.fe interval

let apply_notices t interval =
  (* Apply a remote interval's write notices to the page table, exactly
     once per interval, always from application context at a
     synchronization point (acquire or barrier departure). *)
  let id = Proto.Interval.id interval in
  if id.Proto.Interval.proc <> t.fe.id && not (Hashtbl.mem t.applied id) then begin
    Hashtbl.replace t.applied id ();
    List.iter
      (fun page ->
        let entry = t.pages.(page) in
        match t.rt.cfg.Coherence.Config.protocol with
        | Coherence.Config.Single_writer ->
            if not entry.owner then entry.state <- P_invalid
        | Coherence.Config.Multi_writer ->
            entry.pending <- id :: entry.pending;
            entry.state <- P_invalid
        | Coherence.Config.Home_based ->
            (* a later fetch must cover this writer's knowledge *)
            Proto.Vclock.merge_into ~dst:entry.needed interval.Proto.Interval.vc;
            entry.state <- P_invalid)
      interval.Proto.Interval.write_pages
  end

let incorporate t interval =
  learn t interval;
  apply_notices t interval

let unseen_intervals t ~upto ~requester_vc =
  (* Intervals the requester has not seen, limited to what [upto] covers
     (the granter's knowledge at its release — exact LRC, no conservative
     extra edges, so the online detector and the offline oracle agree).

     Indexed walk over the interval log: only indices in the per-processor
     window (requester_vc, min(upto, max_seen)] can qualify, so the cost is
     the window size, not the number of intervals retained. Descending
     loops with prepends reproduce the ascending (proc, index) order the
     earlier sort-based implementation produced. Intervals pruned from the
     log are provably below every such window: their epoch predates the
     last barrier, whose merged clock every requester has since merged. *)
  let acc = ref [] in
  for proc = t.rt.nprocs - 1 downto 0 do
    let hi =
      let u = Proto.Vclock.get upto proc and m = Array.unsafe_get t.max_seen proc in
      if u < m then u else m
    in
    for index = hi downto Proto.Vclock.get requester_vc proc + 1 do
      match Hashtbl.find_opt t.log { Proto.Interval.proc; index } with
      | Some interval when interval.Proto.Interval.closed -> acc := interval :: !acc
      | _ -> ()
    done
  done;
  !acc

(* ------------------------------------------------------------------ *)
(* Application-side blocking RPC plumbing                              *)

let push_reply t msg =
  Queue.add msg t.replies;
  Sim.Engine.wake t.rt.engine t.fe.id

(* The next reply, blocking under [label] until there is one. The
   application coroutine has one request outstanding at a time, and a
   diff fetch awaits one reply per writer, all for the same page, so the
   next reply is always the one awaited: each caller matches the
   constructor it expects and treats anything else as a protocol bug. *)
let rec await_reply t ~label =
  if Queue.is_empty t.replies then begin
    Sim.Engine.block ~label;
    await_reply t ~label
  end
  else Queue.take t.replies


(* ------------------------------------------------------------------ *)
(* Page faults                                                         *)

let fault_prologue t =
  Front.flush_time t.rt t.fe;
  Sim.Engine.advance t.rt.engine Sim.Cost.fault_ns

let install_page t page bytes =
  let entry = t.pages.(page) in
  Bytes.blit bytes 0 entry.data 0 (Bytes.length bytes);
  t.rt.stats.Sim.Stats.pages_fetched <- t.rt.stats.Sim.Stats.pages_fetched + 1

let sw_read_fault t page =
  t.rt.stats.Sim.Stats.read_faults <- t.rt.stats.Sim.Stats.read_faults + 1;
  Front.emit_sink t.rt (Trace.Event.Page_fault { proc = t.fe.id; page; kind = Proto.Race.Read });
  fault_prologue t;
  send t ~dst:0 (Message.Copy_req { page; requester = t.fe.id });
  (match await_reply t ~label:(Printf.sprintf "copy of page %d" page) with
  | Message.Copy_data { page = p; data } when p = page -> install_page t page data
  | _ -> assert false);
  send t ~dst:0 (Message.Page_done { page; requester = t.fe.id });
  let entry = t.pages.(page) in
  entry.state <- P_read

let rec sw_write_fault t page =
  let entry = t.pages.(page) in
  t.rt.stats.Sim.Stats.write_faults <- t.rt.stats.Sim.Stats.write_faults + 1;
  Front.emit_sink t.rt (Trace.Event.Page_fault { proc = t.fe.id; page; kind = Proto.Race.Write });
  if entry.owner then begin
    (* local fault from the interval-start downgrade: just record the write
       notice; no messages move. The fault handling yields the processor,
       and an ownership transfer can be serviced during the yield — if it
       was, fall back to the remote path, or the write would land in a
       stale copy whose content never travels with the page. *)
    Front.flush_time t.rt t.fe;
    Sim.Engine.advance t.rt.engine Sim.Cost.local_fault_ns;
    if not entry.owner then sw_write_fault t page
    else finish_sw_write_fault t page
  end
  else begin
    fault_prologue t;
    send t ~dst:0 (Message.Own_req { page; requester = t.fe.id });
    (match await_reply t ~label:(Printf.sprintf "ownership of page %d" page) with
    | Message.Own_data { page = p; data } when p = page -> install_page t page data
    | _ -> assert false);
    send t ~dst:0 (Message.Page_done { page; requester = t.fe.id });
    entry.owner <- true;
    finish_sw_write_fault t page
  end

and finish_sw_write_fault t page =
  let entry = t.pages.(page) in
  entry.state <- P_write;
  t.rw_pages <- page :: t.rw_pages;
  Proto.Interval.add_write_page t.fe.cur page

let mw_apply_pending t page =
  let entry = t.pages.(page) in
  (match List.sort_uniq Proto.Interval.compare_ids entry.pending with
  | [] -> ()
  | pending ->
    t.rt.stats.Sim.Stats.read_faults <- t.rt.stats.Sim.Stats.read_faults + 1;
    Front.emit_sink t.rt (Trace.Event.Page_fault { proc = t.fe.id; page; kind = Proto.Race.Read });
    fault_prologue t;
    (* group the needed diffs by creating processor; one request each *)
    let by_proc = Hashtbl.create 4 in
    List.iter
      (fun (id : Proto.Interval.id) ->
        let prev = Option.value ~default:[] (Hashtbl.find_opt by_proc id.proc) in
        Hashtbl.replace by_proc id.proc (id :: prev))
      pending;
    let expected = Hashtbl.length by_proc in
    Front.emit_sink t.rt (Trace.Event.Diff_fetch { proc = t.fe.id; page; count = expected });
    Hashtbl.iter
      (fun proc ids -> send t ~dst:proc (Message.Diff_req { page; ids; requester = t.fe.id }))
      by_proc;
    let received = ref [] in
    for _ = 1 to expected do
      match await_reply t ~label:(Printf.sprintf "diffs for page %d" page) with
      | Message.Diff_reply { page = p; diffs } when p = page -> received := diffs @ !received
      | _ -> assert false
    done;
    (* apply in happens-before order; concurrent diffs (false sharing or a
       true race) fall back to deterministic id order *)
    let ordered =
      List.sort
        (fun ((a : Proto.Interval.id), _) (b, _) ->
          match (Hashtbl.find_opt t.log a, Hashtbl.find_opt t.log b) with
          | Some ia, Some ib ->
              if Proto.Interval.precedes ia ib then -1
              else if Proto.Interval.precedes ib ia then 1
              else Proto.Interval.compare_ids a b
          | _ -> Proto.Interval.compare_ids a b)
        !received
    in
    List.iter
      (fun (_, diff) ->
        Mem.Diff.apply diff entry.data;
        Front.emit_sink t.rt
          (Trace.Event.Diff_apply { proc = t.fe.id; page; words = Mem.Diff.word_count diff }))
      ordered;
    Sim.Engine.advance_f t.rt.engine
      (Sim.Cost.diff_word_ns
      *. float_of_int (List.fold_left (fun acc (_, d) -> acc + Mem.Diff.word_count d) 0 ordered));
    entry.pending <- []);
  entry.state <- P_read

(* Home-based LRC faults: fetch the whole page from its home, gated on
   the version knowledge accumulated from write notices. *)

let hb_read_fault t page =
  let entry = t.pages.(page) in
  t.rt.stats.Sim.Stats.read_faults <- t.rt.stats.Sim.Stats.read_faults + 1;
  Front.emit_sink t.rt (Trace.Event.Page_fault { proc = t.fe.id; page; kind = Proto.Race.Read });
  fault_prologue t;
  send t ~dst:(home_of t page)
    (Message.Home_req { page; requester = t.fe.id; needed = Proto.Vclock.copy entry.needed });
  (match await_reply t ~label:(Printf.sprintf "home copy of page %d" page) with
  | Message.Home_data { page = p; data } when p = page -> install_page t page data
  | _ -> assert false);
  entry.state <- P_read

(* Resolve any fault so [entry.data] holds a coherent copy the access
   may touch. *)
let ensure_readable t page entry =
  match t.rt.cfg.Coherence.Config.protocol with
  | Coherence.Config.Single_writer -> (
      match entry.state with P_invalid -> sw_read_fault t page | P_read | P_write -> ())
  | Coherence.Config.Multi_writer -> (
      match entry.state with P_invalid -> mw_apply_pending t page | P_read | P_write -> ())
  | Coherence.Config.Home_based -> (
      match entry.state with P_invalid -> hb_read_fault t page | P_read | P_write -> ())

(* The multi-writer and home-based write fault: make the page readable,
   then twin it so the interval's writes become a diff at release. *)
let twin_write_fault t page entry =
  ensure_readable t page entry;
  t.rt.stats.Sim.Stats.write_faults <- t.rt.stats.Sim.Stats.write_faults + 1;
  Front.emit_sink t.rt (Trace.Event.Page_fault { proc = t.fe.id; page; kind = Proto.Race.Write });
  Front.flush_time t.rt t.fe;
  Sim.Engine.advance t.rt.engine Sim.Cost.local_fault_ns;
  entry.twin <- Some (Bytes.copy entry.data);
  Front.charge_local t.fe (Sim.Cost.page_copy_word_ns *. float_of_int (words_per_page t));
  entry.state <- P_write;
  Proto.Interval.add_write_page t.fe.cur page

(* Resolve any fault so [entry.data] is a copy the write may change. *)
let ensure_writable t page entry =
  match t.rt.cfg.Coherence.Config.protocol with
  | Coherence.Config.Single_writer -> (
      match entry.state with P_write -> () | P_invalid | P_read -> sw_write_fault t page)
  | Coherence.Config.Multi_writer | Coherence.Config.Home_based -> (
      match entry.state with P_write -> () | P_invalid | P_read -> twin_write_fault t page entry)

(* ------------------------------------------------------------------ *)
(* Locks                                                               *)

let lock_state t lock =
  match Hashtbl.find_opt t.locks lock with
  | Some l -> l
  | None ->
      let l =
        {
          held = false;
          expecting = false;
          pending_seq = None;
          early_grants = 0;
          next_request = None;
          release_vc = None;
        }
      in
      Hashtbl.add t.locks lock l;
      l

let grant_lock t ~lock ~requester ~requester_vc =
  (* The consistency payload is limited to the granter's knowledge at its
     last release of this lock (exact happens-before-1: no conservative
     extra edges, so the detector and the offline oracle agree). *)
  let l = lock_state t lock in
  let upto =
    match l.release_vc with Some vc -> vc | None -> Proto.Vclock.create t.rt.nprocs
  in
  let intervals = unseen_intervals t ~upto ~requester_vc in
  send t ~dst:requester
    (Message.Lock_grant { lock; granter_vc = Proto.Vclock.copy upto; intervals })

let lock t lock_id =
  let l = lock_state t lock_id in
  if l.held then invalid_arg "Node.lock: lock already held (not reentrant)";
  l.expecting <- true;
  send t ~dst:0
    (Message.Lock_req { lock = lock_id; requester = t.fe.id; vc = Proto.Vclock.copy t.fe.vc });
  match await_reply t ~label:(Printf.sprintf "grant of lock %d" lock_id) with
  | Message.Lock_grant { lock; granter_vc; intervals } when lock = lock_id ->
      close_interval t;
      List.iter (incorporate t) intervals;
      Proto.Vclock.merge_into ~dst:t.fe.vc granter_vc;
      open_interval t;
      l.expecting <- false;
      if l.pending_seq = None then l.early_grants <- l.early_grants + 1;
      l.pending_seq <- None;
      l.held <- true;
      Front.acquired t.rt t.fe ~lock:lock_id
  | _ -> assert false

let unlock t lock_id =
  let l = lock_state t lock_id in
  if not l.held then invalid_arg "Node.unlock: lock not held";
  close_interval t;
  l.release_vc <- Some (Proto.Vclock.copy t.fe.vc);
  open_interval t;
  l.held <- false;
  Front.released t.rt t.fe ~lock:lock_id;
  match l.next_request with
  | Some (requester, requester_vc) ->
      l.next_request <- None;
      grant_lock t ~lock:lock_id ~requester ~requester_vc
  | None -> ()

(* Handler-side lock plumbing. *)

let on_lock_fwd t ~lock ~requester ~vc ~seq =
  (* We are (or recently were) this lock's token holder. The forwarded
     request must be granted at the point in the chain the manager chose:
     before our own pending acquire if the manager sequenced it earlier
     (we were the last releaser), after our release if it sequenced it
     later. Manager acks arrive before any later-sequenced forward (FIFO
     links, acks are never larger), so an unknown [pending_seq] means our
     own request has not been sequenced yet. *)
  let l = lock_state t lock in
  if requester = t.fe.id then begin
    (* the token chain reached ourselves: take the lock directly *)
    assert l.expecting;
    grant_lock t ~lock ~requester ~requester_vc:vc
  end
  else begin
    let ordered_after_us =
      l.held
      || (l.expecting
         && match l.pending_seq with Some ours -> seq > ours | None -> false)
    in
    if ordered_after_us then begin
      assert (l.next_request = None);
      l.next_request <- Some (requester, vc)
    end
    else grant_lock t ~lock ~requester ~requester_vc:vc
  end

let on_lock_ack t ~lock ~seq =
  (* The grant travels the token chain, a different link from the ack,
     so under retransmission it can overtake its ack. Such an ack is
     stale: by now we may be expecting our next request, whose sequence
     it must not pose as. Acks arrive in request order (one FIFO link
     from the manager, one outstanding request per lock), so the oldest
     unacknowledged requests are exactly the early-granted ones: drop
     that many acks. *)
  let l = lock_state t lock in
  if l.early_grants > 0 then l.early_grants <- l.early_grants - 1
  else if l.expecting then l.pending_seq <- Some seq

let lock_mgr_state t lock =
  match Hashtbl.find_opt t.lock_mgrs lock with
  | Some m -> m
  | None ->
      let m = { token = 0; next_seq = 0 } in
      Hashtbl.add t.lock_mgrs lock m;
      m

let on_lock_req t ~lock ~requester ~vc =
  let m = lock_mgr_state t lock in
  let target = m.token in
  let seq = m.next_seq in
  m.next_seq <- seq + 1;
  m.token <- requester;
  let delay = Sim.Cost.lock_manager_ns in
  send_after t ~delay ~dst:requester (Message.Lock_ack { lock; seq });
  send_after t ~delay ~dst:target (Message.Lock_fwd { lock; requester; vc; seq })

(* ------------------------------------------------------------------ *)
(* Barrier master (runs at processor 0, in handler context)            *)

let master_finish_barrier t ~delay ~races =
  let b = t.barrier in
  Front.report t.rt races;
  List.iter
    (fun (node, vc, _) ->
      (* bounded by the master's whole knowledge *)
      let intervals = unseen_intervals t ~upto:t.max_seen ~requester_vc:vc in
      send_after t ~delay ~dst:node
        (Message.Barrier_release
           { master_vc = Proto.Vclock.copy b.master_vc; intervals; check_list_size = b.check_bytes }))
    b.arrivals;
  b.arrivals <- [];
  b.pending_checks <- [];
  b.check_bytes <- 0

let master_run_detection t =
  let b = t.barrier in
  let entries, intervals_ns =
    Front.plan t.rt ~epoch:b.processing_epoch
      (List.concat_map (fun (_, _, intervals) -> intervals) b.arrivals)
  in
  let delay = int_of_float intervals_ns in
  if entries = [] then master_finish_barrier t ~delay ~races:[]
  else begin
    b.pending_checks <- entries;
    b.check_bytes <- Racedetect.Checklist.size_bytes entries;
    Hashtbl.reset b.collected;
    let plan = Racedetect.Checklist.requests_by_proc entries ~nprocs:t.rt.nprocs in
    b.expected_replies <-
      Array.fold_left (fun n requests -> if requests = [] then n else n + 1) 0 plan;
    Array.iteri
      (fun proc requests ->
        if requests <> [] then begin
          t.rt.stats.Sim.Stats.bitmaps_requested <-
            t.rt.stats.Sim.Stats.bitmaps_requested + List.length requests;
          send_after t ~delay ~dst:proc (Message.Bitmap_req { requests })
        end)
      plan
  end

let master_on_arrive t ~from_ ~vc ~intervals =
  let b = t.barrier in
  if b.arrivals = [] then begin
    b.master_vc <- Proto.Vclock.create t.rt.nprocs;
    b.processing_epoch <- t.fe.epoch
  end;
  b.arrivals <- (from_, vc, intervals) :: b.arrivals;
  (* learn only: the master's page-level effects happen when it processes
     its own Barrier_release, like every other node *)
  List.iter (learn t) intervals;
  Proto.Vclock.merge_into ~dst:b.master_vc vc;
  if List.length b.arrivals = t.rt.nprocs then
    if detect_on t then master_run_detection t
    else master_finish_barrier t ~delay:0 ~races:[]

let master_on_bitmap_reply t ~bitmaps =
  let b = t.barrier in
  List.iter
    (fun (item : Message.bitmap_item) ->
      Hashtbl.replace b.collected (item.interval, item.page)
        { Racedetect.Detector.reads = item.reads; writes = item.writes })
    bitmaps;
  b.expected_replies <- b.expected_replies - 1;
  if b.expected_replies = 0 then begin
    let races, bitmaps_ns =
      Front.resolve t.rt ~epoch:b.processing_epoch
        ~store:(fun _ -> b.collected)
        b.pending_checks
    in
    master_finish_barrier t ~delay:(int_of_float bitmaps_ns) ~races
  end

(* ------------------------------------------------------------------ *)
(* Barrier (application side)                                          *)

let prune_intervals t =
  (* Trace-neutral history pruning, run after every barrier: a log entry
     older than the previous epoch can never be requested again, because
     every vc window a requester can present is bounded below by the last
     barrier's merged clock, which covers all such intervals. Entries still
     named by a page's pending write notices are retained — the
     happens-before sort in [mw_apply_pending] consults them. *)
  let floor = t.fe.epoch - 1 in
  let pinned = Hashtbl.create 16 in
  Array.iter
    (fun entry ->
      match entry.pending with
      | [] -> ()
      | pending -> List.iter (fun id -> Hashtbl.replace pinned id ()) pending)
    t.pages;
  let doomed =
    Hashtbl.fold
      (fun id (interval : Proto.Interval.t) acc ->
        if interval.Proto.Interval.epoch < floor && not (Hashtbl.mem pinned id) then
          id :: acc
        else acc)
      t.log []
  in
  List.iter
    (fun id ->
      Hashtbl.remove t.log id;
      Hashtbl.remove t.applied id)
    doomed

let gc_diffs t =
  (* Interval garbage collection (TreadMarks-style lineage GC), gated on
     [Coherence.Config.gc_epochs], which Config.check sets only under
     multi-writer, the one protocol that keeps diffs. Two phases, one
     barrier apart: at every k-th epoch boundary each node validates its
     invalid pages — forcing every pending diff to be fetched now — and
     schedules a drop; at the next barrier the diffs whose creating epoch
     predates that validation are dropped. A diff can still be requested
     between the validation and the drop (the requester cannot reach the
     dropping node's next barrier before its own validation fetches
     complete), which is why the drop waits a barrier. *)
  match t.rt.cfg.Coherence.Config.gc_epochs with
  | None -> ()
  | Some k ->
      if t.gc_drop_bound >= 0 then begin
        let bound = t.gc_drop_bound in
        t.gc_drop_bound <- -1;
        let doomed =
          Hashtbl.fold
            (fun key (_, epoch) acc -> if epoch < bound then key :: acc else acc)
            t.diff_store []
        in
        List.iter (Hashtbl.remove t.diff_store) doomed;
        t.rt.stats.Sim.Stats.diffs_gced <-
          t.rt.stats.Sim.Stats.diffs_gced + List.length doomed
      end;
      if t.fe.epoch mod k = 0 then begin
        Array.iteri
          (fun page entry ->
            match entry.pending with [] -> () | _ -> mw_apply_pending t page)
          t.pages;
        t.gc_drop_bound <- t.fe.epoch
      end

let barrier t =
  close_interval t;
  let intervals = List.rev (Front.arrive t.rt t.fe) in
  send t ~dst:0
    (Message.Barrier_arrive { from_ = t.fe.id; vc = Proto.Vclock.copy t.fe.vc; intervals });
  open_interval t;
  match await_reply t ~label:"barrier release" with
  | Message.Barrier_release { master_vc; intervals; _ } ->
      close_interval t;
      List.iter (incorporate t) intervals;
      Proto.Vclock.merge_into ~dst:t.fe.vc master_vc;
      Front.leave_barrier t.rt t.fe;
      learn t t.fe.cur;
      prune_intervals t;
      gc_diffs t
  | _ -> assert false

(* ------------------------------------------------------------------ *)
(* Page manager (single-writer ownership directory at processor 0)     *)

let process_page_request t m msg =
  m.busy <- true;
  match msg with
  | Message.Copy_req { page; requester } ->
      send t ~dst:m.page_owner (Message.Copy_fwd { page; requester })
  | Message.Own_req { page; requester } ->
      let previous = m.page_owner in
      m.page_owner <- requester;
      send t ~dst:previous (Message.Own_fwd { page; requester })
  | _ -> assert false

let on_page_request t ~page msg =
  let m = t.page_mgrs.(page) in
  if m.busy then Queue.add msg m.waiting else process_page_request t m msg

let on_page_done t ~page =
  let m = t.page_mgrs.(page) in
  m.busy <- false;
  match Queue.take_opt m.waiting with
  | Some msg -> process_page_request t m msg
  | None -> ()

let on_copy_fwd t ~page ~requester =
  let entry = t.pages.(page) in
  Front.charge_local t.fe (Sim.Cost.page_copy_word_ns *. float_of_int (words_per_page t));
  send t ~dst:requester
    (Message.Copy_data { page; data = Bytes.copy entry.data })

let on_own_fwd t ~page ~requester =
  let entry = t.pages.(page) in
  entry.owner <- false;
  if entry.state = P_write then entry.state <- P_read;
  send t ~dst:requester
    (Message.Own_data { page; data = Bytes.copy entry.data })

(* ------------------------------------------------------------------ *)
(* Home-based LRC service (runs at each page's home)                   *)

let home_state t page =
  match Hashtbl.find_opt t.home_pages page with
  | Some home -> home
  | None ->
      let home =
        {
          home_data = Mem.Page.create ~page_size:t.rt.geometry.Mem.Geometry.page_size;
          home_version = Proto.Vclock.create t.rt.nprocs;
          home_waiting = [];
        }
      in
      Hashtbl.add t.home_pages page home;
      home

let home_serve t home page requester =
  send t ~dst:requester (Message.Home_data { page; data = Bytes.copy home.home_data })

let on_diff_flush t ~page ~diffs ~vc =
  let home = home_state t page in
  List.iter
    (fun (_, diff) ->
      Mem.Diff.apply diff home.home_data;
      Front.emit_sink t.rt
        (Trace.Event.Diff_apply { proc = t.fe.id; page; words = Mem.Diff.word_count diff }))
    diffs;
  Proto.Vclock.merge_into ~dst:home.home_version vc;
  (* a newly covered version may satisfy parked fetches *)
  let ready, still_waiting =
    List.partition
      (fun (_, needed) -> Proto.Vclock.leq needed home.home_version)
      home.home_waiting
  in
  home.home_waiting <- still_waiting;
  List.iter (fun (requester, _) -> home_serve t home page requester) ready

let on_home_req t ~page ~requester ~needed =
  let home = home_state t page in
  if Proto.Vclock.leq needed home.home_version then home_serve t home page requester
  else
    (* the flush carrying the needed version is still in flight *)
    home.home_waiting <- (requester, needed) :: home.home_waiting

(* ------------------------------------------------------------------ *)
(* Diff and bitmap serving                                             *)

let on_diff_req t ~page ~ids ~requester =
  let diffs =
    List.map
      (fun id ->
        match Hashtbl.find_opt t.diff_store (id, page) with
        | Some (diff, _epoch) -> (id, diff)
        | None ->
            invalid_arg
              (Printf.sprintf "Node %d: no diff for page %d interval p%d.%d" t.fe.id page
                 id.Proto.Interval.proc id.Proto.Interval.index))
      ids
  in
  send t ~dst:requester (Message.Diff_reply { page; diffs })

let on_bitmap_req t ~requests =
  let bitmaps =
    List.map
      (fun (interval, page) ->
        let pair = Front.bitmaps t.rt t.fe interval ~page in
        {
          Message.interval;
          page;
          reads = pair.Racedetect.Detector.reads;
          writes = pair.Racedetect.Detector.writes;
        })
      requests
  in
  send t ~dst:0 (Message.Bitmap_reply { from_ = t.fe.id; bitmaps })

(* ------------------------------------------------------------------ *)
(* Message dispatch (runs in handler context at delivery time)         *)

let handle_message t msg =
  match msg with
  (* replies the application coroutine is blocked on *)
  | Message.Lock_grant _ | Message.Barrier_release _ | Message.Copy_data _
  | Message.Own_data _ | Message.Diff_reply _ | Message.Home_data _ ->
      push_reply t msg
  (* central services *)
  | Message.Lock_req { lock; requester; vc } -> on_lock_req t ~lock ~requester ~vc
  | Message.Lock_ack { lock; seq } -> on_lock_ack t ~lock ~seq
  | Message.Lock_fwd { lock; requester; vc; seq } -> on_lock_fwd t ~lock ~requester ~vc ~seq
  | Message.Barrier_arrive { from_; vc; intervals } ->
      master_on_arrive t ~from_ ~vc ~intervals
  | Message.Bitmap_req { requests } -> on_bitmap_req t ~requests
  | Message.Bitmap_reply { bitmaps; _ } -> master_on_bitmap_reply t ~bitmaps
  | Message.Copy_req { page; _ } | Message.Own_req { page; _ } -> on_page_request t ~page msg
  | Message.Copy_fwd { page; requester } -> on_copy_fwd t ~page ~requester
  | Message.Own_fwd { page; requester } -> on_own_fwd t ~page ~requester
  | Message.Page_done { page; _ } -> on_page_done t ~page
  | Message.Diff_req { page; ids; requester } -> on_diff_req t ~page ~ids ~requester
  | Message.Diff_flush { page; diffs; vc } -> on_diff_flush t ~page ~diffs ~vc
  | Message.Home_req { page; requester; needed } -> on_home_req t ~page ~requester ~needed

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)

let create rt net ~id =
  let geometry = rt.Front.geometry in
  let nprocs = rt.Front.nprocs in
  let fe = rt.Front.procs.(id) in
  let pages =
    Array.init geometry.Mem.Geometry.pages (fun _ ->
        {
          data = Mem.Page.create ~page_size:geometry.Mem.Geometry.page_size;
          state = P_read;
          owner = id = 0;
          twin = None;
          pending = [];
          needed = Proto.Vclock.create nprocs;
        })
  in
  let t =
    {
      rt;
      fe;
      net;
      log = Hashtbl.create 64;
      applied = Hashtbl.create 64;
      max_seen = Array.make nprocs 0;
      pages;
      rw_pages = [];
      locks = Hashtbl.create 8;
      diff_store = Hashtbl.create 64;
      gc_drop_bound = -1;
      replies = Queue.create ();
      page_mgrs =
        Array.init
          (if id = 0 then geometry.Mem.Geometry.pages else 0)
          (fun _ -> { page_owner = 0; busy = false; waiting = Queue.create () });
      lock_mgrs = Hashtbl.create 8;
      home_pages = Hashtbl.create 16;
      barrier =
        {
          arrivals = [];
          pending_checks = [];
          expected_replies = 0;
          collected = Hashtbl.create 64;
          master_vc = Proto.Vclock.create nprocs;
          check_bytes = 0;
          processing_epoch = 0;
        };
    }
  in
  (* the front-end opened the first real interval (index 1) *)
  learn t fe.Front.cur;
  t

let coherent_page t page =
  (* This node's copy of [page], but only if it is coherent: a valid copy
     with no pending write notices. An invalidated copy's bytes are a
     timing-dependent stale snapshot (false sharing), while after the
     final barrier every still-valid copy provably matches the
     authoritative contents — all coherent copies of a page agree. *)
  let entry = t.pages.(page) in
  if entry.state = P_invalid || entry.pending <> [] then None
  else Some entry.data

let service_diagnostics t =
  (* Central-service queue depths at the manager, for the engine's
     structured deadlock diagnosis. *)
  let lines = ref [] in
  Array.iteri
    (fun page m ->
      if not (Queue.is_empty m.waiting) then
        lines :=
          Printf.sprintf "page %d: %d request(s) queued at the page manager (busy=%b)"
            page (Queue.length m.waiting) m.busy
          :: !lines)
    t.page_mgrs;
  if t.barrier.arrivals <> [] then
    lines :=
      Printf.sprintf "barrier: %d of %d arrival(s) at the master"
        (List.length t.barrier.arrivals)
        t.rt.nprocs
      :: !lines;
  List.sort compare !lines

(* This node's five operations. An access's page comes back coherent:
   [readable] and [writable] resolve any fault first; the address is
   already checked, and its page named, by the front-end. *)
let machine t =
  let page_data ensure ~addr:_ ~page =
    let entry = Array.unsafe_get t.pages page in
    ensure t page entry;
    entry.data
  in
  {
    Front.readable = page_data ensure_readable;
    writable = page_data ensure_writable;
    lock = lock t;
    unlock = unlock t;
    barrier = (fun () -> barrier t);
  }
