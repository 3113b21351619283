(** The static elimination pass of paper section 5.1 (Table 2), computed
    by the {!Dataflow} fixpoint instead of asserted.

    An instruction is proven non-shared when it addresses through the
    frame pointer (stack) or the global pointer (static data — safe
    because the DSM allocates all shared memory dynamically), lives in a
    shared library or the CVM runtime (the image's two counts), or its
    computed address is proven private by the data-flow analysis over
    the procedure's CFG. Everything else gets an inserted call to the
    analysis routine.

    The same fixpoint also yields redundant-check batching (an access
    dominated by a prior check of the same base register and page pays
    only a fraction of the discrimination cost). Nothing here judges
    races: {!Mhp.of_analysis} pairs the accesses the result keeps. *)

type classification = {
  stack : int;
  static_data : int;
  proven_private : int;
      (** computed addresses the data-flow analysis proved private *)
  library : int;
  cvm : int;
  instrumented : int;
}

type result = {
  classification : classification;
  sites : string list;  (** surviving (instrumented) sites, program order *)
  batched_checks : int;
  check_cost_scale : float;
      (** average per-check charge relative to a full check, in (0, 1] *)
  accesses : (string * Dataflow.access list) list;
      (** each procedure's name with its {!Dataflow.analyze} accesses,
          in the binary's order *)
}

val analyze : Binary.t -> result
(** Run the data-flow analysis over every procedure, once each, and add
    the library and CVM counts. *)

val classify : Binary.t -> classification

val total : classification -> int

val eliminated_fraction : classification -> float
(** The paper's headline: over 99% of loads and stores are eliminated. *)

val instrumented_sites : Binary.t -> string list
(** Sites of the surviving (instrumented) instructions. *)

val pp : Format.formatter -> classification -> unit
