(* A running coherence backend, as the driver and the test harnesses see
   it: one simulated machine (engine, shared segment, [nprocs] processor
   handles) plus the observation surface the detection/trace/bench stack
   consumes — races, the oracle event log, statistics, the final-memory
   digest.

   Backends are first-class records rather than a functor or a registry
   of side-effecting modules: [Backends.create] dispatches on the
   configured backend name and returns one of these, so unlinked-module
   initialization order can never decide which backends exist. *)

type t = {
  stats : Sim.Stats.t;
  symtab : Mem.Symtab.t;
  alloc : ?name:string -> ?align:int -> int -> int;
      (* pre-run shared allocation, visible to every processor *)
  run : (Front.handle -> unit) -> unit;
      (* spawn one process per processor running the body on its handle
         and drive the simulation to completion *)
  races : unit -> Proto.Race.t list;
      (* deduplicated race reports from every barrier epoch *)
  race_sites : Proto.Race.t -> string option * string option;
      (* with [retain_sites]: the source sites of the two halves of a
         race (the single-run identification of section 6.1) *)
  trace : unit -> (int * Racedetect.Oracle.event) list;
      (* the access/synchronization log, when [record_trace] was set *)
  timed_trace : unit -> (int * int * Racedetect.Oracle.event) list;
      (* the same log as (ns, proc, event), for [Core.Timeline] *)
  sync_trace : unit -> (int * int) list option;
      (* always None: no machine records its lock grants. perfbench/ops.ml
         reads it, so it goes with the next change to the benchmark *)
  sim_time : unit -> int;  (* final simulated time, ns *)
  memory_checksum : unit -> int;
      (* FNV-1a digest of the coherent shared-memory image *)
  set_access_observer : int -> Front.observer -> unit;
      (* hook every instrumented shared access of one processor (watch
         mode, paper section 6.1) *)
}

(* The run behind this interface, for either machine: [machine id] is
   processor [id]'s five operations, [who] prefixes [alloc]'s
   diagnostics. Engine pids are dense from 0 in spawn order and [run]
   spawns the processors in id order, so processor [id] is process [id]:
   a machine wakes a blocked processor by its id. *)
let make (front : Front.t) ~who ~machine ~memory_checksum =
  let engine = front.Front.engine in
  {
    stats = front.Front.stats;
    symtab = front.Front.symtab;
    alloc = (fun ?name ?align bytes -> Front.alloc front ~who ?name ?align bytes);
    run =
      (fun body ->
        Array.iter
          (fun proc ->
            let handle = { Front.front; proc; machine = machine proc.Front.id } in
            ignore (Sim.Engine.spawn engine (fun _pid -> body handle)))
          front.Front.procs;
        Sim.Engine.run engine);
    races = (fun () -> Proto.Race.dedup front.Front.races);
    race_sites = Front.race_sites front;
    trace =
      (fun () -> List.rev_map (fun (_, proc, event) -> (proc, event)) front.Front.timed);
    timed_trace = (fun () -> List.rev front.Front.timed);
    sync_trace = (fun () -> None);
    sim_time = (fun () -> Sim.Engine.now engine);
    memory_checksum;
    set_access_observer = Front.set_observer front;
  }
