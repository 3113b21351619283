(* A simulated DSM cluster: the engine, the network, one node per
   processor, and the run driver that spawns the SPMD application body on
   every node. *)

module Front = Coherence.Front

type t = {
  front : Front.t;  (* engine, stats, intervals, detection, trace *)
  nodes : Node.t array;
}

let create ?(cost = Sim.Cost.default) ?(cfg = Coherence.Config.default) ~nprocs ~pages () =
  if nprocs <= 0 then invalid_arg "Cluster.create: need at least one processor";
  let front =
    Front.create ~name:"Node" ~cost ~cfg ~nprocs ~pages
      ~stores_from_diffs:
        (cfg.Coherence.Config.stores_from_diffs
        && cfg.Coherence.Config.protocol = Coherence.Config.Multi_writer)
      ~retain_sites:cfg.Coherence.Config.retain_sites
  in
  let engine = front.Front.engine in
  let size_of = Message.size ~with_read_notices:cfg.Coherence.Config.detect in
  (* The jitter and fault-plan RNGs are split from one root so they are
     independent streams: enabling fault injection does not perturb the
     jitter draws of an otherwise identical run. *)
  let net_seed =
    match cfg.Coherence.Config.net_seed with Some s -> s | None -> cfg.Coherence.Config.seed
  in
  let root_rng = Sim.Rng.create ~seed:net_seed in
  let jitter_rng = Sim.Rng.split root_rng in
  let fault_rng = Sim.Rng.split root_rng in
  (* an explicit transport config wins; fault injection forces the
     reliable transport on *)
  let transport =
    match (cfg.Coherence.Config.transport, Sim.Fault.active cfg.Coherence.Config.fault) with
    | (Some _ as tr), _ -> tr
    | None, true -> Some Sim.Transport.default_config
    | None, false -> None
  in
  let net =
    Sim.Net.create ~rng:jitter_rng ~fault:(Sim.Fault.validate cfg.Coherence.Config.fault)
      ~fault_rng ?transport ~describe:Message.describe
      engine cost front.Front.stats ~nodes:nprocs ~size_of
  in
  let nodes = Array.init nprocs (fun id -> Node.create front net ~id) in
  Array.iteri
    (fun id node -> Sim.Net.set_handler net ~node:id (Node.handle_message node))
    nodes;
  Sim.Engine.add_diagnostic engine (fun () -> Sim.Net.diagnostics net);
  Sim.Engine.add_diagnostic engine (fun () -> Node.service_diagnostics nodes.(0));
  { front; nodes }

let alloc t ?name ?align bytes =
  (* Pre-run shared allocation, visible to every node (the usual way the
     applications lay out their shared data before the workers start). *)
  Front.alloc t.front ~who:"Cluster.alloc" ?name ?align bytes

let run t ~body =
  let engine = t.front.Front.engine in
  Array.iter
    (fun node -> ignore (Sim.Engine.spawn engine (fun _pid -> body (Node.view node))))
    t.nodes;
  Sim.Engine.run engine

let races t = Front.races t.front
let trace t = Front.trace t.front
let timed_trace t = Front.timed_trace t.front
let sync_trace t = Front.sync_trace t.front

let race_sites t (race : Proto.Race.t) =
  (* With [retain_sites]: the source sites of both halves of a race. *)
  let side (interval, kind) =
    Front.retained_site t.front.Front.procs.(interval.Proto.Interval.proc)
      ~interval ~page:race.page ~word:race.word ~kind
  in
  (side race.first, side race.second)

let sim_time t = Sim.Engine.now t.front.Front.engine

let memory_checksum t =
  (* For each page, the first coherent copy found on any node. Which
     node caches which page is timing-dependent (and irrelevant); the
     coherent bytes are not. *)
  let h = ref Mem.Checksum.init in
  for page = 0 to t.front.Front.geometry.Mem.Geometry.pages - 1 do
    h :=
      match Array.find_map (fun node -> Node.coherent_page_raw node page) t.nodes with
      | None -> Mem.Checksum.absent !h
      | Some raw -> Mem.Checksum.page !h raw
  done;
  Mem.Checksum.finish !h

let stats t = t.front.Front.stats
let symtab t = t.front.Front.symtab
let front t = t.front
