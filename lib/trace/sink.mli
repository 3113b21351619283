(** Event sinks: the single interface both the recorder and the replay
    verifier present to the cluster's hook points. *)

type t = { emit : time:int -> Event.t -> unit }

val emit : t -> time:int -> Event.t -> unit

val tee : t -> t -> t
(** Forward every event to both sinks, first argument first. *)

type recorder

val recorder : Codec.meta -> recorder
(** In-memory recorder: events append to a growing binary log. *)

val sink : recorder -> t
val recorded_count : recorder -> int
val contents : recorder -> string
(** The complete binary log (header + metadata + events so far). *)
