(* A simulated DSM cluster: the engine, the network and one node per
   processor, behind the backend interface the driver, the litmus
   harness and the backend registry drive. [cfg] is the effective
   configuration Coherence.Config.check returned: the transport is
   already on when the wire has faults. *)

module Front = Coherence.Front

let backend ?(cost = Sim.Cost.default) ?(cfg = Coherence.Config.default) ~nprocs ~pages () =
  let front = Front.create ~name:"Node" ~cost ~cfg ~nprocs ~pages in
  let engine = front.Front.engine in
  let size_of = Message.size ~with_read_notices:cfg.Coherence.Config.detect in
  let root_rng = Sim.Rng.create ~seed:cfg.Coherence.Config.seed in
  (* the fault stream is the root's second split: every recorded log replays it *)
  ignore (Sim.Rng.split root_rng);
  let fault_rng = Sim.Rng.split root_rng in
  let net =
    Sim.Net.create ~fault:cfg.Coherence.Config.fault ~fault_rng
      ?transport:cfg.Coherence.Config.transport ~describe:Message.describe engine
      front.Front.stats ~nodes:nprocs ~size_of
  in
  let nodes = Array.init nprocs (fun id -> Node.create front net ~id) in
  Array.iteri
    (fun id node -> Sim.Net.set_handler net ~node:id (Node.handle_message node))
    nodes;
  Sim.Engine.add_diagnostic engine (fun () -> Sim.Net.diagnostics net);
  Sim.Engine.add_diagnostic engine (fun () -> Node.service_diagnostics nodes.(0));
  let memory_checksum () =
    (* For each page, the first coherent copy found on any node. Which
       node caches which page is timing-dependent (and irrelevant); the
       coherent bytes are not. *)
    let h = ref Mem.Checksum.init in
    for page = 0 to front.Front.geometry.Mem.Geometry.pages - 1 do
      h :=
        match Array.find_map (fun node -> Node.coherent_page node page) nodes with
        | None -> Mem.Checksum.absent !h
        | Some data -> Mem.Checksum.page !h data
    done;
    Mem.Checksum.finish !h
  in
  Coherence.Backend.make front ~who:"Cluster.alloc"
    ~machine:(fun id -> Node.machine nodes.(id))
    ~memory_checksum
