(* A running coherence backend, as the driver and the test harnesses see
   it: one simulated machine (engine, shared segment, [nprocs] processor
   handles) plus the observation surface the detection/trace/bench stack
   consumes — races, the oracle event log, the recorded lock-grant order,
   statistics, the final-memory digest.

   Backends are first-class records rather than a functor or a registry
   of side-effecting modules: [Backends.create] dispatches on the
   configured backend name and returns one of these, so unlinked-module
   initialization order can never decide which backends exist. *)

type observer = site:string -> addr:int -> Proto.Race.access_kind -> unit

type t = {
  stats : Sim.Stats.t;
  symtab : Mem.Symtab.t;
  alloc : ?name:string -> ?align:int -> int -> int;
      (* pre-run shared allocation, visible to every processor *)
  run : (Node.t -> unit) -> unit;
      (* spawn one process per node running the body and drive the
         simulation to completion *)
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
      (* (lock, grantee) at every grant, in grant order, when
         [record_sync] was set *)
  sim_time : unit -> int;  (* final simulated time, ns *)
  memory_checksum : unit -> int;
      (* FNV-1a digest of the coherent shared-memory image *)
  set_access_observer : int -> observer -> unit;
      (* hook every instrumented shared access of one processor (watch
         mode, paper section 6.1) *)
}
