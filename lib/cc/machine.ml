(* A snooping-bus cache-coherent multiprocessor running the same online
   race detector as the LRC DSM cluster.

   One simulated machine: [nprocs] processors, each with a private
   set-associative cache ({!Cache}), sharing one memory image over a
   single split-transaction bus. The bus serializes everything — an
   atomic snooping bus gives sequential consistency — so data values are
   always coherent by construction and the caches model *cost* and
   *traffic* only: hits, fills, invalidations, updates, writebacks. Two
   write policies are provided: MESI (write-invalidate) and Dragon
   (write-update).

   Detection is the DSM side's, through the shared front-end
   ({!Coherence.Front}): vector-clock intervals delimited by
   acquires/releases/barriers, word-level access bitmaps snapshotted at
   interval close, and the paper's steps 2-5 run at each barrier by the
   last arriver. The crucial difference the bench pipeline measures: here
   bitmaps are read from each processor's store through shared memory
   (no messages, no extra barrier round on a wire), and consistency
   traffic is bus transactions instead of DSM messages.

   Deliberate scope limits versus the DSM cluster: no fault injection or
   reliable transport (there is no lossy wire on a bus; Config.check
   rejects both), no multi-writer diffs and no [retain_sites] (the
   configuration Config.check returns has both off), and no interval
   GC. *)

module Front = Coherence.Front

type protocol = Mesi | Dragon

(* Line states of both protocols in one type so the cache structure is
   shared. MESI uses I/S/E/M; Dragon uses I/E/Sc/Sm/M (no S). *)
type lstate =
  | L_inv
  | L_shared  (* MESI S: shared, memory current *)
  | L_excl  (* MESI E / Dragon E: sole copy, clean *)
  | L_mod  (* MESI M / Dragon M: sole copy, dirty *)
  | L_shared_clean  (* Dragon Sc *)
  | L_shared_dirty  (* Dragon Sm: shared, this cache is the owner *)

let is_valid s = s <> L_inv

type lock_state = {
  mutable holder : int option;
  waiting : int Queue.t;  (* proc ids, FCFS in bus-grant order *)
  mutable release_vc : Proto.Vclock.t option;
      (* the machine-wide last releaser's clock: along a mutual-exclusion
         grant chain each release clock dominates everything merged
         before it, so overwriting equals the oracle's accumulation *)
}

(* The one cache geometry: 64-byte lines, 64 sets, 2 ways (8 KB per
   processor). Lines only count bus traffic; nothing indexes pages by
   line, so any page size works. *)
let line_shift = 6  (* addr lsr line_shift = global line number *)
let line_words = (1 lsl line_shift) / Mem.Page.word_size
let sets = 64
let ways = 2

type proc = {
  fe : Front.proc;  (* clock, intervals, bitmaps, time debt *)
  cache : lstate Cache.t;
}

type t = {
  rt : Front.t;  (* engine, cost, stats and the detection front-end *)
  protocol : protocol;
  pages : Mem.Page.t array;  (* the single coherent memory image *)
  procs : proc array;
  mutable bus_busy_until : int;  (* FCFS arbitration in virtual time *)
  locks : (int, lock_state) Hashtbl.t;
  mutable barrier_arrivals : int list;  (* proc ids, arrival order reversed *)
  mutable barrier_intervals : Proto.Interval.t list;
}

let close_interval m p =
  Front.publish_interval m.rt p.fe (Front.close_interval m.rt p.fe)

(* ------------------------------------------------------------------ *)
(* The bus                                                              *)

(* One bus transaction by processor [p]. Called after the requesting
   processor has already applied the snoop-side state changes — the
   transaction is atomic at arbitration, and the wait models bus
   occupancy. FCFS arbitration is a single virtual-time high-water mark;
   contention appears as [start - now]. *)
let bus m p ~kind ~line ~words ~supply =
  Front.flush_time m.rt p.fe;
  let stats = m.rt.stats in
  stats.Sim.Stats.bus_transactions <- stats.Sim.Stats.bus_transactions + 1;
  stats.Sim.Stats.bus_words <- stats.Sim.Stats.bus_words + words;
  (match kind with
  | Trace.Event.Bus_rd -> stats.Sim.Stats.bus_reads <- stats.Sim.Stats.bus_reads + 1
  | Trace.Event.Bus_rdx -> stats.Sim.Stats.bus_read_x <- stats.Sim.Stats.bus_read_x + 1
  | Trace.Event.Bus_upgr -> stats.Sim.Stats.bus_upgrades <- stats.Sim.Stats.bus_upgrades + 1
  | Trace.Event.Bus_upd -> stats.Sim.Stats.bus_updates <- stats.Sim.Stats.bus_updates + 1
  | Trace.Event.Bus_wb -> stats.Sim.Stats.bus_writebacks <- stats.Sim.Stats.bus_writebacks + 1
  | Trace.Event.Bus_sync -> stats.Sim.Stats.bus_syncs <- stats.Sim.Stats.bus_syncs + 1);
  if Front.tracing m.rt then Front.emit_sink m.rt (Trace.Event.Bus { proc = p.fe.id; kind; line });
  let supply_ns =
    match supply with
    | `Mem -> Sim.Cost.bus_mem_ns
    | `Cache -> Sim.Cost.bus_c2c_ns
    | `None -> 0.0
  in
  let dur_ns =
    Sim.Cost.bus_arb_ns
    +. (Sim.Cost.bus_word_ns *. float_of_int words)
    +. supply_ns
  in
  let dur = max 1 (int_of_float dur_ns) in
  let now = Sim.Engine.now m.rt.engine in
  let start = max now m.bus_busy_until in
  m.bus_busy_until <- start + dur;
  Sim.Engine.advance m.rt.engine (start + dur - now)

let line_of addr = addr lsr line_shift

(* Claim a cache slot for [line]; a displaced dirty line pays a
   writeback transaction (clean evictions are silent). *)
let fill_line m p ~line ~state =
  let i = Cache.victim p.cache ~line ~is_valid in
  let victim = Cache.slot p.cache i in
  let victim_tag = victim.Cache.tag and victim_state = victim.Cache.state in
  Cache.claim p.cache i ~line ~state;
  if is_valid victim_state then begin
    m.rt.stats.Sim.Stats.cache_evictions <- m.rt.stats.Sim.Stats.cache_evictions + 1;
    match victim_state with
    | L_mod | L_shared_dirty ->
        bus m p ~kind:Trace.Event.Bus_wb ~line:victim_tag ~words:line_words ~supply:`Mem
    | _ -> ()
  end

(* Processor [id]'s slot for [line], or -1; the requester [p] does not
   snoop itself. Snoops visit processors in id order in plain loops: a
   closure per snoop would allocate on every bus transaction. *)
let snoop m p id ~line =
  if id = p.fe.id then -1 else Cache.probe m.procs.(id).cache ~line ~is_valid

(* --- MESI ---------------------------------------------------------- *)

let mesi_read_miss m p ~line =
  let shared = ref false in
  for id = 0 to m.rt.nprocs - 1 do
    let i = snoop m p id ~line in
    if i >= 0 then begin
      shared := true;
      (* an M supplier flushes to memory as it downgrades; the flush
         rides the same fill transaction (Illinois-style), so it is
         not counted as a separate writeback *)
      let slot = Cache.slot m.procs.(id).cache i in
      match slot.Cache.state with L_mod | L_excl -> slot.Cache.state <- L_shared | _ -> ()
    end
  done;
  fill_line m p ~line ~state:(if !shared then L_shared else L_excl);
  bus m p ~kind:Trace.Event.Bus_rd ~line ~words:line_words
    ~supply:(if !shared then `Cache else `Mem)

(* Invalidate every other copy of [line]; true if there was one. *)
let mesi_invalidate_others m p ~line =
  let shared = ref false in
  for id = 0 to m.rt.nprocs - 1 do
    let i = snoop m p id ~line in
    if i >= 0 then begin
      shared := true;
      (Cache.slot m.procs.(id).cache i).Cache.state <- L_inv;
      m.rt.stats.Sim.Stats.invalidations <- m.rt.stats.Sim.Stats.invalidations + 1
    end
  done;
  !shared

let mesi_write_hit m p slot ~line =
  match slot.Cache.state with
  | L_mod -> ()
  | L_excl -> slot.Cache.state <- L_mod
  | L_shared ->
      ignore (mesi_invalidate_others m p ~line);
      slot.Cache.state <- L_mod;
      bus m p ~kind:Trace.Event.Bus_upgr ~line ~words:0 ~supply:`None
  | L_inv | L_shared_clean | L_shared_dirty -> assert false

let mesi_write_miss m p ~line =
  let shared = mesi_invalidate_others m p ~line in
  fill_line m p ~line ~state:L_mod;
  bus m p ~kind:Trace.Event.Bus_rdx ~line ~words:line_words
    ~supply:(if shared then `Cache else `Mem)

(* --- Dragon -------------------------------------------------------- *)

let dragon_read_miss m p ~line =
  let shared = ref false in
  for id = 0 to m.rt.nprocs - 1 do
    let i = snoop m p id ~line in
    if i >= 0 then begin
      shared := true;
      let slot = Cache.slot m.procs.(id).cache i in
      match slot.Cache.state with
      | L_mod -> slot.Cache.state <- L_shared_dirty  (* keeps ownership *)
      | L_excl -> slot.Cache.state <- L_shared_clean
      | _ -> ()
    end
  done;
  fill_line m p ~line ~state:(if !shared then L_shared_clean else L_excl);
  bus m p ~kind:Trace.Event.Bus_rd ~line ~words:line_words
    ~supply:(if !shared then `Cache else `Mem)

let dragon_update m p slot ~line =
  (* write to a shared line: broadcast the word; every holder applies it
     in place, the previous owner demotes, the writer becomes owner. If
     the other copies have meanwhile been evicted, silently promote *)
  let sharers = ref 0 in
  for id = 0 to m.rt.nprocs - 1 do
    let i = snoop m p id ~line in
    if i >= 0 then begin
      incr sharers;
      m.rt.stats.Sim.Stats.updates_applied <- m.rt.stats.Sim.Stats.updates_applied + 1;
      let s = Cache.slot m.procs.(id).cache i in
      if s.Cache.state = L_shared_dirty then s.Cache.state <- L_shared_clean
    end
  done;
  if !sharers = 0 then slot.Cache.state <- L_mod
  else begin
    slot.Cache.state <- L_shared_dirty;
    bus m p ~kind:Trace.Event.Bus_upd ~line ~words:1 ~supply:`None
  end

let dragon_write_hit m p slot ~line =
  match slot.Cache.state with
  | L_mod -> ()
  | L_excl -> slot.Cache.state <- L_mod
  | L_shared_clean | L_shared_dirty -> dragon_update m p slot ~line
  | L_inv | L_shared -> assert false

let dragon_write_miss m p ~line =
  dragon_read_miss m p ~line;
  let i = Cache.find p.cache ~line ~is_valid in
  assert (i >= 0);
  dragon_write_hit m p (Cache.slot p.cache i) ~line

(* --- protocol-independent access path ------------------------------ *)

let cache_read m p addr =
  let line = line_of addr in
  Front.charge_local p.fe Sim.Cost.cache_hit_ns;
  if Cache.find p.cache ~line ~is_valid >= 0 then
    m.rt.stats.Sim.Stats.cache_hits <- m.rt.stats.Sim.Stats.cache_hits + 1
  else begin
    m.rt.stats.Sim.Stats.cache_misses <- m.rt.stats.Sim.Stats.cache_misses + 1;
    match m.protocol with
    | Mesi -> mesi_read_miss m p ~line
    | Dragon -> dragon_read_miss m p ~line
  end

let cache_write m p addr =
  let line = line_of addr in
  Front.charge_local p.fe Sim.Cost.cache_hit_ns;
  let i = Cache.find p.cache ~line ~is_valid in
  if i >= 0 then begin
    m.rt.stats.Sim.Stats.cache_hits <- m.rt.stats.Sim.Stats.cache_hits + 1;
    let slot = Cache.slot p.cache i in
    match m.protocol with
    | Mesi -> mesi_write_hit m p slot ~line
    | Dragon -> dragon_write_hit m p slot ~line
  end
  else begin
    m.rt.stats.Sim.Stats.cache_misses <- m.rt.stats.Sim.Stats.cache_misses + 1;
    match m.protocol with
    | Mesi -> mesi_write_miss m p ~line
    | Dragon -> dragon_write_miss m p ~line
  end

(* ------------------------------------------------------------------ *)
(* Locks: a bus read-modify-write plus an FCFS grant queue              *)

let lock_state m lock =
  match Hashtbl.find_opt m.locks lock with
  | Some l -> l
  | None ->
      let l = { holder = None; waiting = Queue.create (); release_vc = None } in
      Hashtbl.add m.locks lock l;
      l

let grant m p l lock_id =
  close_interval m p;
  (match l.release_vc with
  | Some vc -> Proto.Vclock.merge_into ~dst:p.fe.vc vc
  | None -> ());
  Front.open_interval m.rt p.fe;
  Front.acquired m.rt p.fe ~lock:lock_id

let lock m p lock_id =
  let l = lock_state m lock_id in
  if l.holder = Some p.fe.id then invalid_arg "Machine.lock: lock already held (not reentrant)";
  bus m p ~kind:Trace.Event.Bus_sync ~line:lock_id ~words:1 ~supply:`Mem;
  (match l.holder with
  | None -> l.holder <- Some p.fe.id
  | Some _ ->
      Queue.add p.fe.id l.waiting;
      Sim.Engine.block ~label:(Printf.sprintf "grant of lock %d (bus)" lock_id);
      (* the releaser installed us as holder before waking us *)
      assert (l.holder = Some p.fe.id));
  grant m p l lock_id

let unlock m p lock_id =
  let l = lock_state m lock_id in
  if l.holder <> Some p.fe.id then invalid_arg "Machine.unlock: lock not held";
  bus m p ~kind:Trace.Event.Bus_sync ~line:lock_id ~words:1 ~supply:`Mem;
  close_interval m p;
  l.release_vc <- Some (Proto.Vclock.copy p.fe.vc);
  Front.open_interval m.rt p.fe;
  Front.released m.rt p.fe ~lock:lock_id;
  match Queue.take_opt l.waiting with
  | Some next ->
      l.holder <- Some next;
      Sim.Engine.wake m.rt.engine next
  | None -> l.holder <- None

(* ------------------------------------------------------------------ *)
(* Barrier: last arriver runs detection centrally, then releases all    *)

let run_detection m ~epoch =
  let intervals = List.rev m.barrier_intervals in
  let entries, intervals_ns = Front.plan m.rt ~epoch intervals in
  (* bitmaps are read where each processor froze them: no wire round *)
  let store (id : Proto.Interval.id) = m.procs.(id.proc).fe.Front.bitmaps in
  let races, bitmaps_ns = Front.resolve m.rt ~epoch ~store entries in
  (* the last arriver performs the detection serially before anyone is
     released, like the DSM barrier master *)
  Sim.Engine.advance m.rt.engine (int_of_float (intervals_ns +. bitmaps_ns));
  races

let release_barrier m ~last ~epoch =
  let races = if m.rt.cfg.Coherence.Config.detect then run_detection m ~epoch else [] in
  Front.report m.rt races;
  let merged = Proto.Vclock.create m.rt.nprocs in
  Array.iter (fun q -> Proto.Vclock.merge_into ~dst:merged q.fe.vc) m.procs;
  Array.iter
    (fun q ->
      Proto.Vclock.merge_into ~dst:q.fe.vc merged;
      Front.leave_barrier m.rt q.fe)
    m.procs;
  let arrivals = m.barrier_arrivals in
  m.barrier_arrivals <- [];
  m.barrier_intervals <- [];
  List.iter
    (fun qid -> if qid <> last then Sim.Engine.wake m.rt.engine qid)
    arrivals

let barrier m p =
  (* arrival is a fetch-and-increment on the barrier word *)
  bus m p ~kind:Trace.Event.Bus_sync ~line:0 ~words:1 ~supply:`Mem;
  close_interval m p;
  let closed = Front.arrive m.rt p.fe in
  m.barrier_arrivals <- p.fe.id :: m.barrier_arrivals;
  m.barrier_intervals <- List.rev_append closed m.barrier_intervals;
  if List.length m.barrier_arrivals < m.rt.nprocs then
    Sim.Engine.block ~label:"barrier release (bus)"
  else release_barrier m ~last:p.fe.id ~epoch:p.fe.epoch

(* ------------------------------------------------------------------ *)
(* Construction and the Backend packaging                               *)

let create ?(cost = Sim.Cost.default) ?(cfg = Coherence.Config.default) ~protocol
    ~nprocs ~pages () =
  let rt = Front.create ~name:"Machine" ~cost ~cfg ~nprocs ~pages in
  let geometry = rt.Front.geometry in
  let m =
    {
      rt;
      protocol;
      pages =
        Array.init geometry.Mem.Geometry.pages (fun _ ->
            Mem.Page.create ~page_size:geometry.Mem.Geometry.page_size);
      procs =
        Array.map
          (fun fe -> { fe; cache = Cache.create ~sets ~ways ~invalid:L_inv })
          rt.Front.procs;
      bus_busy_until = 0;
      locks = Hashtbl.create 16;
      barrier_arrivals = [];
      barrier_intervals = [];
    }
  in
  Sim.Engine.add_diagnostic rt.Front.engine (fun () ->
      Hashtbl.fold
        (fun lock l acc ->
          match l.holder with
          | Some holder ->
              Printf.sprintf "lock %d: held by p%d, %d waiting" lock holder
                (Queue.length l.waiting)
              :: acc
          | None -> acc)
        m.locks
        [ Printf.sprintf "barrier: %d/%d arrived" (List.length m.barrier_arrivals) nprocs ]);
  m

(* Processor [id]'s five operations. The cache runs on the checked
   address; the page is an existing block of the one memory image, so a
   hit allocates nothing. *)
let machine m id =
  let p = m.procs.(id) in
  {
    Front.readable =
      (fun ~addr ~page ->
        cache_read m p addr;
        m.pages.(page));
    writable =
      (fun ~addr ~page ->
        cache_write m p addr;
        m.pages.(page));
    lock = lock m p;
    unlock = unlock m p;
    barrier = (fun () -> barrier m p);
  }

let memory_checksum m =
  (* Unlike the DSM cluster every page is present: the bus machine's
     memory is the coherent copy. *)
  Mem.Checksum.finish
    (Array.fold_left Mem.Checksum.page Mem.Checksum.init m.pages)

let backend ?cost ?cfg ~protocol ~nprocs ~pages () =
  let m = create ?cost ?cfg ~protocol ~nprocs ~pages () in
  Coherence.Backend.make m.rt ~who:"Machine.malloc" ~machine:(machine m)
    ~memory_checksum:(fun () -> memory_checksum m)
