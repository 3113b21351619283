(** A simulated DSM cluster: engine, network and one {!Node} per
    processor, behind the same backend interface as the snooping-bus
    machine ({!Cc.Machine.backend}). *)

val backend :
  ?cost:Sim.Cost.t ->
  ?cfg:Coherence.Config.t ->
  nprocs:int ->
  pages:int ->
  unit ->
  Coherence.Backend.t
(** A fresh cluster of [nprocs] processors over a shared segment of
    [pages] pages; the page size comes from the cost model, and
    [cfg] is the effective configuration {!Coherence.Config.check}
    returned. Detection, intervals and the oracle trace are the shared
    {!Coherence.Front}'s; the cluster adds pages, faults, diffs and the
    network. Its [memory_checksum] digests, per page, the first coherent
    copy on any node: the fault sweep compares it across drop rates, and
    a lossy run that converges must reproduce the reliable baseline's
    memory image bit for bit. *)
