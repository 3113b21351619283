(* Run configuration: which backend and coherence protocol to run,
   whether the race-detection machinery is active, the wire, and
   recording and debugging switches. [check] judges a configuration
   once, for every caller: the CLI, log metadata and Backends.create. *)

type protocol =
  | Single_writer
      (* CVM's base protocol, used in the paper's prototype: one writable
         copy per page; ownership travels on write faults *)
  | Multi_writer
      (* twin/diff protocol (paper section 6.5): concurrent writers allowed;
         write summaries travel as word-level diffs *)
  | Home_based
      (* home-based LRC (HLRC): every page has a home that receives diff
         flushes at each release; faults fetch whole pages from the home,
         gated on a per-page version vector *)

type t = {
  backend : string;
      (* which coherence backend executes the run: "lrc" (the DSM cluster
         with the [protocol] below) or a snooping-bus cache backend
         ("mesi", "dragon"). Resolved by [Backends.create]. *)
  protocol : protocol;
  detect : bool;  (* instrument accesses and run detection at barriers *)
  first_race_only : bool;  (* section 6.4: report only first-epoch races *)
  stores_from_diffs : bool;
      (* section 6.5: under the multi-writer protocol, take write bitmaps
         from diffs instead of store instrumentation (cheaper, but a write
         of an identical value becomes invisible) *)
  retain_sites : bool;
      (* section 6.1's single-run alternative: keep a program-counter
         (site) per accessed word per interval so races resolve to source
         sites without a second run — at a storage and runtime cost *)
  record_trace : bool;  (* log every access/sync event for the oracle *)
  seed : int;
      (* roots the fault plan's per-link RNG streams; with no faults it
         changes nothing *)
  fault : Sim.Fault.plan;
      (* wire fault plan (drops/dups/reorder/partitions); lrc only, and
         [check] turns the transport on when it is active *)
  transport : Sim.Transport.config option;
      (* Some: run the reliable transport (seq numbers, acks,
         retransmission) between the DSM and the wire *)
  gc_epochs : int option;
      (* interval garbage collection (TreadMarks-style lineage GC): every k
         barrier epochs, validate all invalid pages (forcing the pending
         diffs to be fetched) and, one barrier later, drop the diffs no
         reachable write notice can request any more. Bounds diff storage
         on long multi-writer runs at the cost of extra validation traffic.
         None (the default) keeps every diff for the whole run; [check]
         returns None outside lrc multi-writer, which keeps no diffs. *)
  tracer : Trace.Sink.t option;
      (* record/replay event sink: every sim- and protocol-level event is
         emitted into it (recorder, replay verifier, or a tee of both) *)
  elide_sites : string list option;
      (* instrumentation elision driven by the static MHP analysis:
         None (the default) keeps every runtime check; Some sites skips
         the per-access race check at exactly those sites (they must be
         statically proven race-free for reports to be unchanged);
         Some [] asks the driver to derive the set from the app's binary
         via Instrument.Mhp.race_free_sites *)
}

(* Every backend allocates per-processor state that grows with the
   processor count, so an unchecked count can exhaust memory before the
   run starts. *)
let max_procs = 256

let default =
  {
    backend = "lrc";
    protocol = Single_writer;
    detect = true;
    first_race_only = false;
    stores_from_diffs = false;
    retain_sites = false;
    record_trace = false;
    seed = 42;
    fault = Sim.Fault.none;
    transport = None;
    gc_epochs = None;
    tracer = None;
    elide_sites = None;
  }

let protocol_name = function
  | Single_writer -> "single-writer"
  | Multi_writer -> "multi-writer"
  | Home_based -> "home-based"

let protocol_of_name = function
  | "single-writer" -> Single_writer
  | "multi-writer" -> Multi_writer
  | "home-based" -> Home_based
  | other -> invalid_arg (Printf.sprintf "Config.protocol_of_name: unknown protocol %S" other)

(* Every rejection is one line: the CLI prints it as a usage error and
   replay as corrupt log metadata. *)
let check ~nprocs t =
  let bad fmt = Printf.ksprintf invalid_arg fmt in
  if nprocs < 1 || nprocs > max_procs then
    bad "processor count %d outside [1, %d]" nprocs max_procs;
  (* NaN fails both comparisons, so it is rejected too *)
  let prob name p = if not (p >= 0.0 && p <= 1.0) then bad "%s probability %g outside [0, 1]" name p in
  prob "drop" t.fault.Sim.Fault.drop;
  prob "duplicate" t.fault.Sim.Fault.duplicate;
  prob "reorder" t.fault.Sim.Fault.reorder;
  List.iter
    (fun { Sim.Fault.p_a; p_b; p_from_ns; p_until_ns } ->
      if p_from_ns < 0 || p_until_ns < p_from_ns then
        bad "partition window [%d, %d) must satisfy 0 <= from <= until" p_from_ns p_until_ns;
      let node n = n >= 0 && n < nprocs in
      if not (node p_a && node p_b) || p_a = p_b then
        bad "partition %d,%d names no link between two of processors 0..%d" p_a p_b
          (nprocs - 1))
    t.fault.Sim.Fault.partitions;
  (* a bounded cap ends every retransmission chain, so a run the
     transport cannot finish drains to the engine's Deadlock diagnosis *)
  let cap = Sim.Transport.max_retry_cap in
  (match t.transport with
  | Some { Sim.Transport.max_retries = n } when n < 0 || n > cap ->
      bad "retry cap %d outside [0, %d]" n cap
  | _ -> ());
  let lrc = t.backend = "lrc" in
  let faults = Sim.Fault.active t.fault in
  if (not lrc) && (faults || t.transport <> None) then
    bad
      "backend %s: wire faults and the reliable transport need the lrc backend (a snooping \
       bus has no lossy wire)"
      t.backend;
  (match t.gc_epochs with
  | Some k when k < 1 -> bad "GC cadence of %d epochs (need at least 1)" k
  | _ -> ());
  {
    t with
    transport =
      (if faults && t.transport = None then Some Sim.Transport.default_config
       else t.transport);
    stores_from_diffs = t.stores_from_diffs && lrc && t.protocol = Multi_writer;
    retain_sites = t.retain_sites && lrc;
    (* only multi-writer keeps diffs for faults to request *)
    gc_epochs = (if lrc && t.protocol = Multi_writer then t.gc_epochs else None);
  }
