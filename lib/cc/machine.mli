(** A snooping-bus cache-coherent machine running the online race
    detector off bus-observed coherence events.

    Same programming model as the LRC cluster ({!Coherence.Front.handle}
    handles, SPMD [run]), but consistency is maintained by hardware-style
    cache coherence over a shared bus instead of DSM messages: MESI
    invalidates remote copies on write, Dragon broadcasts word updates.
    Data lives in one coherent memory image behind an atomic bus, so the
    machine is sequentially consistent: the repository's SC reference.
    Per-processor caches of one fixed geometry (64-byte lines, 64 sets,
    2 ways: 8 KB) model cost and traffic (hits, fills, invalidations,
    updates, writebacks), each bus transaction paying arbitration,
    transfer, and supplier latency through the simulation engine.

    Not supported: fault injection and the reliable transport (no lossy
    wire on a bus; {!Coherence.Config.check} rejects them), interval GC,
    diff-based stores, and site retention. *)

type protocol = Mesi | Dragon

val backend :
  ?cost:Sim.Cost.t ->
  ?cfg:Coherence.Config.t ->
  protocol:protocol ->
  nprocs:int ->
  pages:int ->
  unit ->
  Coherence.Backend.t
(** A fresh machine behind the backend interface. Detection, intervals
    and the oracle trace are the shared {!Coherence.Front}'s; the machine
    adds caches, the bus and FCFS locks. [cfg] is the effective
    configuration {!Coherence.Config.check} returned. *)
