(** Run configuration: coherence backend and protocol, detection
    switches, the wire, and recording and debug options. {!check} is the
    one place a configuration is judged; [Backends.create] calls it on
    every run. *)

(** The lrc backend's coherence protocol, all three lazy release
    consistent. The sequentially consistent machine is a bus backend
    (["mesi"] or ["dragon"]: an atomic bus over one memory image), which
    ignores [protocol]. *)
type protocol =
  | Single_writer
      (** CVM's base protocol, used by the paper's prototype: one writable
          copy per page; ownership travels on write faults. *)
  | Multi_writer
      (** Twin/diff protocol (paper section 6.5): concurrent writers
          allowed; write summaries travel as word-level diffs. *)
  | Home_based
      (** Home-based LRC (HLRC): every page has a home that receives diff
          flushes at each release; faults fetch whole pages from the home,
          gated on a per-page version vector. *)

type t = {
  backend : string;
      (** which coherence backend executes the run: ["lrc"] (the DSM
          cluster driven by [protocol]) or a snooping-bus cache backend
          (["mesi"], ["dragon"]). Resolved by [Backends.create]. *)
  protocol : protocol;
  detect : bool;  (** instrument accesses and run detection at barriers *)
  first_race_only : bool;  (** section 6.4: report only first-epoch races *)
  stores_from_diffs : bool;
      (** section 6.5: under the multi-writer protocol, take write bitmaps
          from diffs instead of store instrumentation — cheaper, but a
          same-value overwrite becomes invisible. Effective only on the
          lrc backend's multi-writer protocol ({!check}). *)
  retain_sites : bool;
      (** Section 6.1's single-run alternative: retain a site ("program
          counter") per accessed word per interval, so races resolve to
          source sites without a second run — at a storage and runtime
          cost the paper deemed prohibitive. Measured by the
          [site-retention] ablation. Effective only on the lrc backend
          ({!check}). *)
  record_trace : bool;  (** log every access/sync event for the oracle *)
  seed : int;
      (** roots the fault plan's per-link RNG streams. Without faults it
          changes nothing. *)
  fault : Sim.Fault.plan;
      (** wire fault plan (drops, duplicates, reorder, partitions); lrc
          only. An active plan turns [transport] on ({!check}). *)
  transport : Sim.Transport.config option;
      (** [Some cfg]: run the reliable transport (sequence numbers,
          cumulative acks, capped exponential-backoff retransmission)
          between the DSM and the wire; lrc only *)
  gc_epochs : int option;
      (** interval garbage collection (TreadMarks-style lineage GC): every
          [k >= 1] barrier epochs, validate all invalid pages and, one
          barrier later, drop the diffs no reachable write notice can
          request any more. [None] (the default) retains every diff for
          the run. Effective only on the lrc backend's multi-writer
          protocol, the one that keeps diffs ({!check}). *)
  tracer : Trace.Sink.t option;
      (** record/replay event sink: every sim- and protocol-level event
          the run produces is emitted into it — a {!Trace.Sink.recorder}
          when recording, a {!Trace.Replay.verifier} when replaying *)
  elide_sites : string list option;
      (** instrumentation elision driven by the static MHP analysis:
          [None] (the default) keeps every runtime check; [Some sites]
          skips the per-access race check at exactly those sites (sound
          only for statically race-free sites); [Some []] asks the
          driver to derive the set from the app's binary via
          [Instrument.Mhp.race_free_sites] *)
}

val max_procs : int
(** 256: the largest processor count a run accepts. The CLI's [-p], trace
    files and trace-log metadata are held to it. *)

val default : t
(** Single-writer protocol, detection on, everything else off. *)

val check : nprocs:int -> t -> t
(** The configuration a run of [nprocs] processors executes. Raises
    [Invalid_argument] with a one-line message on a processor count
    outside [1, {!max_procs}]; a fault probability outside [0, 1] or NaN;
    a partition window without [0 <= from <= until], or whose endpoints
    are equal or outside [0, nprocs); a retry cap outside
    [0, {!Sim.Transport.max_retry_cap}], so that every run ends, in its
    results or in the engine's {!Sim.Engine.Deadlock} diagnosis; wire
    faults or the transport on a backend other than lrc; or a GC cadence
    below 1. Otherwise it returns the effective configuration: the
    transport on (with {!Sim.Transport.default_config}) when the wire has
    faults, [stores_from_diffs] and [gc_epochs] only under lrc
    multi-writer, [retain_sites] only on lrc. Checking twice returns the
    same configuration. *)

val protocol_name : protocol -> string

val protocol_of_name : string -> protocol
(** Inverse of {!protocol_name} — the stable spelling used by
    serialized task descriptions. Raises [Invalid_argument]
    otherwise. *)
