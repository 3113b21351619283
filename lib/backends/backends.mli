(** Registry of coherence backends, keyed by [Config.backend].

    ["lrc"] is the message-passing DSM cluster; ["mesi"] and ["dragon"]
    are the snooping-bus cache-coherent machines (write-invalidate and
    write-update respectively), sequentially consistent by construction
    and so the repository's SC reference. *)

val all : string list
(** Every registered backend name, in presentation order. *)

val known : string -> bool

val describe : string -> string option
(** One-line description for [--list-backends]. *)

val create :
  ?cost:Sim.Cost.t ->
  ?cfg:Coherence.Config.t ->
  nprocs:int ->
  pages:int ->
  unit ->
  Coherence.Backend.t
(** Build the backend named by [cfg.backend] from the effective
    configuration {!Coherence.Config.check} returns. Raises
    [Invalid_argument] with its one-line message on a configuration it
    rejects, and with the list of available names on an unknown
    backend. *)
