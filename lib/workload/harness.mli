(** Differential fuzzing harness.

    For every workload program the harness runs the online detector
    with and without instrumentation elision under every coherence
    backend, replays the recorded access trace through the independent
    offline oracle, and requires

    {v detected = oracle = ground truth, identically on every backend v}

    Any violation is a {!mismatch}; the fuzz loop shrinks internal
    mismatches (those checkable without ground truth) to a minimized
    reproducer and writes it out as a trace file for the regression
    corpus. *)

type result = {
  detected : int list;  (** online detector's racy words, sorted distinct *)
  oracle : int list;  (** offline oracle's racy words, sorted distinct *)
  checksum : int;  (** final shared-memory checksum *)
}

type runner = backend:string -> elide:bool -> Program.t -> result
(** How the harness executes one program under one configuration.
    Factored out so tests can plant a detector bug and watch the
    harness catch it. *)

val driver_runner : runner
(** The real thing: {!Program.to_app} through [Core.Driver.run] with
    detection and trace recording on, racy addresses mapped back to
    word indices via the program's base address. *)

type kind =
  | Detector_vs_oracle of { backend : string; elide : bool }
      (** online detector disagrees with the offline oracle on one run *)
  | Elide_dependent of { backend : string }
      (** elision changed the detected set — unsound elision *)
  | Backend_dependent of { backend_a : string; backend_b : string }
      (** two backends detect different racy sets for the same program *)
  | Ground_truth of { backend : string }
      (** detector and oracle agree with each other but not with the
          generator's by-construction racy set *)

type mismatch = { program : Program.t; kind : kind; detail : string }

val kind_name : kind -> string
(** Stable short label ([detector-vs-oracle], [elide-dependent],
    [backend-dependent], [ground-truth]) for reports and filenames. *)

val shrinkable : kind -> bool
(** Internal kinds are re-checkable on shrunk programs; {!Ground_truth}
    is not (the construction argument does not survive mutation). *)

val check :
  ?backends:string list ->
  runner:runner ->
  ?ground_truth:int list ->
  Program.t ->
  mismatch option
(** Run the full differential matrix ([backends], by default
    {!Backends.all}, x elide) and return the first violation, if any.
    [ground_truth] additionally pins the detected set to the generator's
    planted racy words. Raises [Invalid_argument] on an empty
    [backends]: a check that runs nothing would pass every program. *)

type report = {
  programs : int;  (** programs generated and checked *)
  events : int;  (** total events across all programs *)
  planted : int;  (** races planted by construction *)
  found : int;  (** planted races confirmed by the detector *)
  clean_programs : int;  (** programs generated with no planted race *)
  shrink_steps : int;
  mismatches : mismatch list;  (** minimized when shrinking is on *)
  repro_files : string list;  (** trace files written under [repro_dir] *)
}

val fuzz :
  ?backends:string list ->
  ?runner:runner ->
  ?repro_dir:string ->
  seed:int ->
  count:int ->
  shrink:bool ->
  unit ->
  report
(** Generate [count] programs from [(seed, 0..count-1)]
    ({!Generator.generate_seeded}), {!check} each against its ground
    truth, shrink internal mismatches when [shrink] is set, and
    write each mismatch's (minimized) program as a trace file under
    [repro_dir] when given, creating the directory as needed. Raises
    [Invalid_argument] on an empty [backends], as {!check} does. *)
