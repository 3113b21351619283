(** Text timeline of a run's synchronization structure — one column per
    processor, one row per acquire/release/barrier, with the shared
    accesses performed since the previous synchronization summarized as
    "(Nr/Mw)". The executable rendering of the paper's Figure 2. *)

type entry = { time_ns : int; proc : int; label : string }

val rows : nprocs:int -> (int * int * Racedetect.Oracle.event) list -> entry list
(** Fold a timed trace ({!Coherence.Backend.t}'s [timed_trace]) into sync rows. *)

val render :
  ?max_rows:int ->
  Format.formatter ->
  nprocs:int ->
  (int * int * Racedetect.Oracle.event) list ->
  unit
