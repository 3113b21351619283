(** Record/replay orchestration over {!Driver}.

    [record] runs an application with a {!Trace.Sink.recorder} plugged
    into the cluster; [replay] rebuilds the configuration from the log's
    metadata, re-runs under a {!Trace.Replay.verifier}, and reports the
    first divergence if the two executions disagree anywhere — from a
    single wire-frame fate up to the final race set and memory image. *)

val scale_of_name : string -> Apps.Registry.scale
(** {!Apps.Registry.scale_of_name}. *)

val meta_of :
  app_name:string -> scale:Apps.Registry.scale -> nprocs:int -> Coherence.Config.t ->
  Trace.Codec.meta
(** The metadata header a recording of this configuration carries. The
    cost model is not part of it. *)

val config_of_meta : Trace.Codec.meta -> Coherence.Config.t
(** The effective configuration a log's metadata describes (tracer
    unset). The application, scale, protocol and backend names must be
    known, and {!Coherence.Config.check} must accept the configuration
    for [m_nprocs] processors. Raises {!Trace.Codec.Corrupt}
    ("metadata: ...") otherwise. *)

val decode : string -> Trace.Codec.decoded * Coherence.Config.t
(** {!Trace.Codec.decode}, then {!config_of_meta} of the log's metadata:
    the one way a command reads a log, so a forged field (a processor
    count of 0 or 2{^60}, say) raises {!Trace.Codec.Corrupt} before
    anything is sized by it. *)

val record :
  ?cfg:Coherence.Config.t ->
  app_name:string ->
  scale:Apps.Registry.scale ->
  nprocs:int ->
  unit ->
  Driver.outcome * string
(** Run once with recording on, under the default cost model (the one
    replay assumes); returns the outcome and the binary log. Any [tracer]
    already present in [cfg] is replaced by the recorder. *)

val run_recorded :
  ?cfg:Coherence.Config.t ->
  app_name:string ->
  scale:Apps.Registry.scale ->
  nprocs:int ->
  unit ->
  Driver.outcome * Trace.Sink.recorder
(** {!record}, returning the recorder itself: its log is
    {!Trace.Sink.contents} and its event count
    {!Trace.Sink.recorded_count}. *)

type replay_result = {
  rr_meta : Trace.Codec.meta;
  rr_outcome : Driver.outcome;
  rr_divergence : Trace.Replay.divergence option;
  rr_races_match : bool;  (** live race set equals the log's [Race] events *)
  rr_checksum_match : bool;  (** live memory checksum equals the log's [Run_end] *)
}

val clean : replay_result -> bool
(** No divergence, races match, checksum matches. *)

val replay : ?watch_addrs:int list -> string -> replay_result
(** Verify a binary log by re-execution, watching [watch_addrs] as
    {!Driver.run} does (a watch charges no simulated time, so it changes
    no event). Raises {!Trace.Codec.Corrupt} on a log {!decode} rejects,
    before anything is built. *)

val hunt :
  app_name:string -> scale:Apps.Registry.scale -> nprocs:int -> unit ->
  Driver.outcome * replay_result option
(** Section 6.1's two-run hunt under the default configuration:
    {!record} a detection run, then, if it found races, {!replay} its
    log watching the racy addresses. The replay's watch hits name the
    source sites of run 1's races when it is {!clean}. [None] when run 1
    found no race. *)

val load : string -> string
(** Read a whole file. Raises [Sys_error] naming the path when it cannot
    be opened or read (a directory, say). *)
