(** May-happen-in-parallel analysis: the one static race analysis.

    Under the SPMD model (every processor runs the same CFG), two
    shared accesses — including a store paired with itself — form a
    may-parallel pair when their static barrier-phase windows overlap,
    they may address the same dsm_malloc region with overlapping static
    byte footprints, at least one is a store, and no common must-hold
    lock orders them.

    The pair set is an over-approximation of the dynamically possible
    races (soundness is asserted against the runtime detector and the
    happens-before oracle in the test suite); its complement over the
    instrumented shared sites is the statically race-free set whose
    runtime checks instrumentation elision may skip, and its
    lock-mismatch pairs give the {!warnings} `cvm_race analyze`
    prints. It pairs the {!Dataflow} accesses that
    {!Static_analysis.analyze} keeps, so one fixpoint per procedure
    serves both passes. *)

type severity =
  | Mismatch  (** one side is lock-disciplined, the other is not (or the locks are disjoint) *)
  | Unlocked  (** neither side holds a lock: barrier-disciplined residue *)

type side = { s_site : string; s_kind : Binary.kind; s_locks : int list }

type pair = {
  p_proc : string;
  p_severity : severity;
  p_region : string;  (** witness region both sides may address *)
  p_phases : int list;  (** static phases containing both sides *)
  p_a : side;
  p_b : side;  (** sides ordered (site, kind, locks) ascending *)
}

type report = {
  pairs : pair list;  (** deterministic order, most severe first *)
  may_race_sites : string list;  (** sites joining at least one pair *)
  race_free_sites : string list;  (** shared sites joining no pair *)
  shared_sites : string list;  (** every instrumented shared site *)
}

val severity_name : severity -> string

val of_analysis : Static_analysis.result -> report
(** Pair up the shared accesses the elimination pass kept for each
    procedure. Deterministic for a given binary. *)

val analyze : Binary.t -> report
(** [of_analysis (Static_analysis.analyze binary)]. *)

val race_free_sites : Binary.t -> string list
(** Shared sites the analysis proves race-free (no pair membership). *)

val covers : report -> site_a:string -> site_b:string -> bool
(** Is there a pair whose two sides are exactly these sites (in either
    order)? *)

val covers_site : report -> site:string -> bool
(** Does the site join at least one pair? *)

type warning = {
  w_proc : string;
  w_site : string;  (** the access that holds no lock *)
  w_kind : Binary.kind;
  w_region : string;  (** the shared allocation both sites may address *)
  w_other_site : string;  (** the conflicting, locked access *)
  w_other_locks : int list;
}

val warnings : report -> warning list
(** The lockset warnings: every pair of two distinct sites where
    exactly one side holds no lock (a [Mismatch] pair), reported from
    that side — one per (site, other site, region), with the site's
    load when it has one — sorted by (proc, site, other site, region).
    Neither a pair whose sides hold disjoint non-empty locksets nor a
    pair where neither side locks (left to the dynamic detector) is
    flagged. *)

val pp_warning : Format.formatter -> warning -> unit
val pp_report : Format.formatter -> report -> unit
