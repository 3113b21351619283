(* The race-detection front-end both coherence backends share: time debt,
   the per-access note, intervals and their bitmaps, the oracle trace,
   sync-point emissions and the barrier detection pass. None of it
   depends on how pages or cache lines move (Golab's CC/DSM separation
   puts that difference in what communication costs), so the LRC cluster
   and the bus machine call this module instead of keeping copies.

   The time charges ([charge_local], [charge_category], [compute]) are
   inlined, in this module and in their callers elsewhere, and so is
   {!Sim.Stats.charge} inside them, so no float charged per access or per
   unit of private work is boxed. *)

type observer = site:string -> addr:int -> Proto.Race.access_kind -> unit

type proc = {
  id : int;
  debt : float array;
  vc : Proto.Vclock.t;
  mutable cur : Proto.Interval.t;
  mutable epoch : int;
  mutable closed : Proto.Interval.t list;
  read_bits : (int, Mem.Bitmap.t) Hashtbl.t;
  write_bits : (int, Mem.Bitmap.t) Hashtbl.t;
  read_cache : Mem.Bitmap.t option array;
  write_cache : Mem.Bitmap.t option array;
  bitmaps : (Proto.Interval.id * int, Racedetect.Detector.bitmap_pair) Hashtbl.t;
  (* section 6.1 single-run site retention: (page, word, kind) -> site for
     the open interval, snapshotted per closed interval and KEPT for the
     whole run — the storage cost the paper calls prohibitive *)
  cur_sites : (int * int * Proto.Race.access_kind, string) Hashtbl.t;
  site_store : (Proto.Interval.id * int * int * Proto.Race.access_kind, string) Hashtbl.t;
  mutable alloc_next : int;
  mutable observer : observer option;
}

type t = {
  name : string;
  engine : Sim.Engine.t;
  cost : Sim.Cost.t;
  stats : Sim.Stats.t;
  cfg : Config.t;
  geometry : Mem.Geometry.t;
  symtab : Mem.Symtab.t;
  nprocs : int;
  procs : proc array;
  elide : (string, unit) Hashtbl.t;
  mutable timed : (int * int * Racedetect.Oracle.event) list;
  mutable races : Proto.Race.t list;
  mutable race_seen : bool;
  g_base : int;
  g_limit : int;
  g_page_shift : int;
  g_page_mask : int;
}

type machine = {
  readable : addr:int -> page:int -> Mem.Page.t;
  writable : addr:int -> page:int -> Mem.Page.t;
  lock : int -> unit;
  unlock : int -> unit;
  barrier : unit -> unit;
}

type handle = { front : t; proc : proc; machine : machine }

let words_per_page t = Mem.Geometry.words_per_page t.geometry

(* ------------------------------------------------------------------ *)
(* Time: debt accumulates and is advanced at synchronization points    *)

let[@inline] charge_local p ns = Array.unsafe_set p.debt 0 (Array.unsafe_get p.debt 0 +. ns)

let[@inline] charge_category t p category ns =
  Sim.Stats.charge t.stats category ns;
  charge_local p ns

let flush_time t p =
  let debt = Array.unsafe_get p.debt 0 in
  if debt >= 1.0 then begin
    let ns = int_of_float debt in
    Array.unsafe_set p.debt 0 (debt -. float_of_int ns);
    Sim.Engine.advance t.engine ns
  end

let[@inline] compute p ops = charge_local p (Sim.Cost.instr_ns *. ops)

let touch_private t p n =
  t.stats.Sim.Stats.private_accesses <- t.stats.Sim.Stats.private_accesses + n;
  let fn = float_of_int n in
  charge_local p (Sim.Cost.instr_ns *. fn);
  if t.cfg.Config.detect then begin
    charge_category t p Sim.Stats.Proc_call (Sim.Cost.proc_call_ns *. fn);
    charge_category t p Sim.Stats.Access_check (t.cost.Sim.Cost.access_check_ns *. fn)
  end

let idle t p ns =
  flush_time t p;
  Sim.Engine.advance t.engine (int_of_float ns)

(* ------------------------------------------------------------------ *)
(* Trace emission                                                       *)

let emit_sink t event =
  match t.cfg.Config.tracer with
  | Some sink -> Trace.Sink.emit sink ~time:(Sim.Engine.now t.engine) event
  | None -> ()

let tracing t = t.cfg.Config.tracer <> None

(* the oracle trace; callers test [record_trace] first so the access
   path builds no event when nothing is recorded *)
let emit_trace t p event =
  t.timed <- (Sim.Engine.now t.engine, p.id, event) :: t.timed

let trace_sync t p event = if t.cfg.Config.record_trace then emit_trace t p event

(* ------------------------------------------------------------------ *)
(* Intervals                                                            *)

let open_interval t p =
  Proto.Vclock.incr p.vc p.id;
  let index = Proto.Vclock.get p.vc p.id in
  p.cur <- Proto.Interval.create ~proc:p.id ~index ~vc:(Proto.Vclock.copy p.vc) ~epoch:p.epoch;
  if tracing t then
    emit_sink t (Trace.Event.Interval_open { proc = p.id; index; epoch = p.epoch });
  t.stats.Sim.Stats.intervals_created <- t.stats.Sim.Stats.intervals_created + 1;
  charge_local p Sim.Cost.interval_setup_ns

let snapshot_bitmaps t p interval =
  (* Freeze the interval's access bitmaps and derive its notices
     (modification (ii) of the paper). A written page's notice is
     normally already there: LRC records one at every interval's first
     write fault. The bus has no page faults, so its write notices come
     from here; an elided site contributes none, which is sound because
     elided sites are statically race-free. *)
  let id = Proto.Interval.id interval in
  let pages = Hashtbl.create 8 in
  Hashtbl.iter (fun page _ -> Hashtbl.replace pages page ()) p.read_bits;
  Hashtbl.iter (fun page _ -> Hashtbl.replace pages page ()) p.write_bits;
  Hashtbl.iter
    (fun page () ->
      let reads =
        match Hashtbl.find_opt p.read_bits page with
        | Some bm -> bm
        | None -> Mem.Bitmap.create (words_per_page t)
      in
      let writes =
        match Hashtbl.find_opt p.write_bits page with
        | Some bm -> bm
        | None -> Mem.Bitmap.create (words_per_page t)
      in
      if Mem.Bitmap.any_set reads then Proto.Interval.add_read_page interval page;
      if Mem.Bitmap.any_set writes then Proto.Interval.add_write_page interval page;
      Hashtbl.replace p.bitmaps (id, page) { Racedetect.Detector.reads; writes };
      t.stats.Sim.Stats.bitmaps_total <- t.stats.Sim.Stats.bitmaps_total + 1;
      charge_category t p Sim.Stats.Cvm_mods Sim.Cost.notice_setup_ns;
      Array.unsafe_set p.read_cache page None;
      Array.unsafe_set p.write_cache page None)
    pages;
  Hashtbl.reset p.read_bits;
  Hashtbl.reset p.write_bits;
  if t.cfg.Config.retain_sites then begin
    Hashtbl.iter
      (fun (page, word, kind) site ->
        t.stats.Sim.Stats.site_entries <- t.stats.Sim.Stats.site_entries + 1;
        Hashtbl.replace p.site_store (id, page, word, kind) site)
      p.cur_sites;
    Hashtbl.reset p.cur_sites
  end

let close_interval t p =
  let interval = p.cur in
  interval.Proto.Interval.closed <- true;
  if t.cfg.Config.detect then snapshot_bitmaps t p interval;
  interval

let publish_interval t p interval =
  p.closed <- interval :: p.closed;
  if tracing t then
    emit_sink t
      (Trace.Event.Interval_close
         {
           proc = p.id;
           index = (Proto.Interval.id interval).Proto.Interval.index;
           epoch = interval.Proto.Interval.epoch;
           write_pages = interval.Proto.Interval.write_pages;
           read_pages = interval.Proto.Interval.read_pages;
         })

(* ------------------------------------------------------------------ *)
(* The per-access note                                                  *)

let bad_shared t addr =
  invalid_arg (Printf.sprintf "%s: address 0x%x outside the shared segment" t.name addr)

let bad_aligned t addr =
  invalid_arg (Printf.sprintf "%s: unaligned shared access 0x%x" t.name addr)

let shift_of n =
  let rec go acc n = if n <= 1 then acc else go (acc + 1) (n lsr 1) in
  go 0 n

(* The one place an address splits into page and word. The word size is
   a power of two, and {!Mem.Geometry.create} admits only a power-of-two
   page size and a page-aligned base, so the split is shifts and masks. *)
let word_shift = shift_of Mem.Page.word_size
let word_mask = Mem.Page.word_size - 1

let check_addr t addr =
  if addr < t.g_base || addr >= t.g_limit then bad_shared t addr;
  if addr land word_mask <> 0 then bad_aligned t addr

let page_of t addr = (addr - t.g_base) lsr t.g_page_shift

let word_of t addr = (addr land t.g_page_mask) lsr word_shift

(* The inserted analysis-routine call: a procedure call plus the check
   that decides shared vs private and sets the per-page bitmap bit. *)
let instrument t p page word kind ~site =
  charge_category t p Sim.Stats.Proc_call Sim.Cost.proc_call_ns;
  charge_category t p Sim.Stats.Access_check t.cost.Sim.Cost.access_check_ns;
  let cache =
    match kind with Proto.Race.Read -> p.read_cache | Proto.Race.Write -> p.write_cache
  in
  let bitmap =
    match Array.unsafe_get cache page with
    | Some bm -> bm
    | None ->
        let bm = Mem.Bitmap.create (words_per_page t) in
        let table =
          match kind with Proto.Race.Read -> p.read_bits | Proto.Race.Write -> p.write_bits
        in
        Hashtbl.replace table page bm;
        Array.unsafe_set cache page (Some bm);
        bm
  in
  Mem.Bitmap.set bitmap word;
  if t.cfg.Config.retain_sites then begin
    (* the extra bookkeeping the paper's section 6.1 prices out *)
    charge_category t p Sim.Stats.Access_check Sim.Cost.site_retention_ns;
    let key = (page, word, kind) in
    if not (Hashtbl.mem p.cur_sites key) then Hashtbl.replace p.cur_sites key site
  end

(* An elided site skips the inserted call entirely (no procedure-call or
   check charge, no bitmap bit) but keeps the base instruction charge,
   the statistics, the watch-mode observation and the oracle trace — so
   elision changes cost and bitmaps only, never what the oracle or a
   watch run can see. *)
let elided t site = Hashtbl.length t.elide > 0 && Hashtbl.mem t.elide site

let observe p ~site ~addr kind =
  match p.observer with Some f -> f ~site ~addr kind | None -> ()

let read_note t p ~site addr =
  check_addr t addr;
  let page = page_of t addr in
  charge_local p Sim.Cost.instr_ns;
  t.stats.Sim.Stats.shared_reads <- t.stats.Sim.Stats.shared_reads + 1;
  if t.cfg.Config.detect then
    if elided t site then t.stats.Sim.Stats.elided_checks <- t.stats.Sim.Stats.elided_checks + 1
    else instrument t p page (word_of t addr) Proto.Race.Read ~site;
  observe p ~site ~addr Proto.Race.Read;
  if t.cfg.Config.record_trace then emit_trace t p (Racedetect.Oracle.Read addr);
  page

let write_note t p ~site addr =
  check_addr t addr;
  let page = page_of t addr in
  charge_local p Sim.Cost.instr_ns;
  t.stats.Sim.Stats.shared_writes <- t.stats.Sim.Stats.shared_writes + 1;
  if t.cfg.Config.detect && not t.cfg.Config.stores_from_diffs then
    if elided t site then t.stats.Sim.Stats.elided_checks <- t.stats.Sim.Stats.elided_checks + 1
    else instrument t p page (word_of t addr) Proto.Race.Write ~site;
  observe p ~site ~addr Proto.Race.Write;
  if t.cfg.Config.record_trace then emit_trace t p (Racedetect.Oracle.Write addr);
  page

(* ------------------------------------------------------------------ *)
(* Allocation                                                           *)

let bump t p ~who ?name ?(align = 0) bytes =
  (* SPMD programs call at the same program points on every processor
     and compute identical addresses — the way CVM applications use
     G_MALLOC. Names register once, via processor 0. *)
  if bytes < 0 then invalid_arg who;
  let word = Mem.Page.word_size in
  let round v quantum = (v + quantum - 1) / quantum * quantum in
  let start = if align > 0 then round p.alloc_next align else round p.alloc_next word in
  let next = start + round bytes word in
  if next > Mem.Geometry.limit t.geometry then invalid_arg (who ^ ": shared segment exhausted");
  p.alloc_next <- next;
  (match name with
  | Some name when p.id = 0 -> Mem.Symtab.register t.symtab ~name ~base:start ~bytes
  | _ -> ());
  start

let malloc t p ?name ?align bytes = bump t p ~who:(t.name ^ ".malloc") ?name ?align bytes

let alloc t ~who ?name ?align bytes =
  let start = bump t t.procs.(0) ~who ?name ?align bytes in
  let next = t.procs.(0).alloc_next in
  Array.iter (fun p -> p.alloc_next <- next) t.procs;
  start

let set_observer t id observer = t.procs.(id).observer <- Some observer

(* ------------------------------------------------------------------ *)
(* Synchronization points                                               *)

let acquired t p ~lock =
  trace_sync t p (Racedetect.Oracle.Acquire lock);
  if tracing t then
    emit_sink t (Trace.Event.Lock_acquire { proc = p.id; lock; vc = Proto.Vclock.copy p.vc })

let released t p ~lock =
  trace_sync t p (Racedetect.Oracle.Release lock);
  if tracing t then
    emit_sink t (Trace.Event.Lock_release { proc = p.id; lock; vc = Proto.Vclock.copy p.vc })

let enter_barrier t p =
  if tracing t then emit_sink t (Trace.Event.Barrier_enter { proc = p.id; epoch = p.epoch })

let arrive t p =
  trace_sync t p Racedetect.Oracle.Barrier;
  let closed = p.closed in
  p.closed <- [];
  closed

let leave_barrier t p =
  p.epoch <- p.epoch + 1;
  open_interval t p;
  if tracing t then
    emit_sink t
      (Trace.Event.Barrier_leave
         { proc = p.id; epoch = p.epoch - 1; vc = Proto.Vclock.copy p.vc });
  Hashtbl.reset p.bitmaps

(* ------------------------------------------------------------------ *)
(* Detection at a barrier (the paper's steps 2-5)                       *)

let empty_pair t =
  {
    Racedetect.Detector.reads = Mem.Bitmap.create (words_per_page t);
    writes = Mem.Bitmap.create (words_per_page t);
  }

let find_pair t store id page =
  match Hashtbl.find_opt store (id, page) with Some pair -> pair | None -> empty_pair t

let bitmaps t p id ~page = find_pair t p.bitmaps id page

let plan t ~epoch intervals =
  let stats = t.stats in
  let intervals = List.filter (fun iv -> iv.Proto.Interval.epoch = epoch) intervals in
  let before = stats.Sim.Stats.interval_comparisons in
  let probe =
    if tracing t then
      Some
        (fun (e : Racedetect.Checklist.entry) ->
          emit_sink t (Trace.Event.Check_entry { a = e.a; b = e.b; pages = e.pages }))
    else None
  in
  let n_concurrent, entries = Racedetect.Detector.concurrent_check_list ~stats ?probe intervals in
  let comparisons = stats.Sim.Stats.interval_comparisons - before in
  let intervals_ns =
    (Sim.Cost.vv_compare_ns *. float_of_int comparisons)
    +. (Sim.Cost.concurrent_pair_ns *. float_of_int n_concurrent)
  in
  Sim.Stats.charge stats Sim.Stats.Intervals intervals_ns;
  (entries, intervals_ns)

let resolve t ~epoch ~store entries =
  let stats = t.stats in
  let before = stats.Sim.Stats.bitmap_comparisons in
  let source id ~page = find_pair t (store id) id page in
  let races =
    List.concat_map
      (Racedetect.Detector.races_of_entry ~stats ~geometry:t.geometry ~epoch ~source)
      entries
    |> Proto.Race.dedup
  in
  let compared = stats.Sim.Stats.bitmap_comparisons - before in
  let bitmaps_ns =
    Sim.Cost.bitmap_word_ns *. float_of_int (3 * compared * words_per_page t)
  in
  Sim.Stats.charge stats Sim.Stats.Bitmaps bitmaps_ns;
  (races, bitmaps_ns)

let report t races =
  let races =
    if t.cfg.Config.first_race_only && t.race_seen then []
    else begin
      if races <> [] then t.race_seen <- true;
      races
    end
  in
  t.races <- races @ t.races;
  if tracing t then List.iter (fun r -> emit_sink t (Trace.Event.Race r)) races;
  t.stats.Sim.Stats.races_reported <- t.stats.Sim.Stats.races_reported + List.length races;
  t.stats.Sim.Stats.barriers <- t.stats.Sim.Stats.barriers + 1

let race_sites t (race : Proto.Race.t) =
  let side ((interval : Proto.Interval.id), kind) =
    Hashtbl.find_opt t.procs.(interval.proc).site_store
      (interval, race.page, race.word, kind)
  in
  (side race.first, side race.second)

(* ------------------------------------------------------------------ *)
(* Construction                                                         *)

let create ~name ~cost ~cfg ~nprocs ~pages =
  let engine = Sim.Engine.create () in
  let geometry = Mem.Geometry.create ~page_size:cost.Sim.Cost.page_size ~pages () in
  let page_size = geometry.Mem.Geometry.page_size in
  let elide = Hashtbl.create 8 in
  (match cfg.Config.elide_sites with
  | Some sites -> List.iter (fun site -> Hashtbl.replace elide site ()) sites
  | None -> ());
  Sim.Engine.set_tracer engine cfg.Config.tracer;
  let proc id =
    let vc = Proto.Vclock.create nprocs in
    {
      id;
      debt = Array.make 1 0.0;
      vc;
      cur = Proto.Interval.create ~proc:id ~index:0 ~vc:(Proto.Vclock.copy vc) ~epoch:0;
      epoch = 0;
      closed = [];
      read_bits = Hashtbl.create 16;
      write_bits = Hashtbl.create 16;
      read_cache = Array.make pages None;
      write_cache = Array.make pages None;
      bitmaps = Hashtbl.create 64;
      cur_sites = Hashtbl.create (if cfg.Config.retain_sites then 64 else 1);
      site_store = Hashtbl.create (if cfg.Config.retain_sites then 256 else 1);
      alloc_next = geometry.Mem.Geometry.base;
      observer = None;
    }
  in
  let t =
    {
      name;
      engine;
      cost;
      stats = Sim.Stats.create ();
      cfg;
      geometry;
      symtab = Mem.Symtab.create ();
      nprocs;
      procs = Array.init nprocs proc;
      elide;
      timed = [];
      races = [];
      race_seen = false;
      g_base = geometry.Mem.Geometry.base;
      g_limit = Mem.Geometry.limit geometry;
      g_page_shift = shift_of page_size;
      g_page_mask = page_size - 1;
    }
  in
  (* open every processor's first real interval (index 1) *)
  Array.iter (open_interval t) t.procs;
  t
