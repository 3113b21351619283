(** Decision logic of the benchmark regression gate (bench/compare.exe),
    split from the CLI so the unit suite can drive it on synthetic runs. *)

val noise_floor_s : float
(** Absolute wall-clock drift (50 ms) below which a slowdown never
    fails, however large the ratio — keeps CI-sized runs unflaky. *)

val extra_fields : string list
(** Every further deterministic integer field a sweep entry may carry
    (messages, diffs, interval counters, …). Compared exactly, but only
    when present in both runs, so older baselines still gate the fields
    they have. *)

type entry = {
  key : string * string * int * bool * bool * string * string;
      (** app, scale, nprocs, detect, elide, protocol, backend — the
          match key; [elide] reads as false and [backend] as "lrc" when
          absent, so older baselines still match *)
  wall_s : float;
  sim_time_ns : int;
  races : int;
  mem_checksum : int;
  bytes : int;
  extras : (string * int) list;
      (** the {!extra_fields} present in this entry, in list order *)
}

val entry_of_json : Bench_json.t -> entry

val entries_of_json : Bench_json.t -> entry list
(** Checks the ["cvm-race-bench/1"] schema marker; raises [Failure]
    otherwise. *)

val load : string -> entry list
(** [entries_of_json] over a file. Every failure — unreadable file,
    malformed JSON, wrong schema — raises [Failure] with the path
    prefixed, so callers need exactly one handler. *)

val key_string : string * string * int * bool * bool * string * string -> string

type report = {
  lines : string list;  (** human-readable, one per comparison or note *)
  compared : int;  (** entries present in both runs *)
  failures : int;
}

val passed : report -> bool
(** No failures and at least one comparable entry. *)

val compare_runs :
  ?threshold_pct:float ->
  ?ignore_wall:bool ->
  baseline:entry list ->
  current:entry list ->
  unit ->
  report
(** Gate [current] against [baseline]. Wall-clock may regress up to
    [threshold_pct] (default 15%) before failing, and never fails under
    {!noise_floor_s}; [ignore_wall] (default false) skips the wall check
    for same-build comparisons such as [--jobs 1] vs [--jobs N].
    Deterministic fields (races, checksum, simulated time, wire bytes,
    and every {!extra_fields} counter present in both entries) must
    match exactly, and {e every} drifted field gets its own FAIL line —
    the gate names the full extent of a divergence in one run, not just
    its first symptom. Entries only in [current] are noted but pass;
    entries only in [baseline] are failures — a sweep point that
    disappears must be a deliberate baseline regeneration, not erosion. *)
