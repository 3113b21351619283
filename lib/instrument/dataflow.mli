(** Forward abstract interpretation over a provenance lattice.

    Generalizes the paper's section 5.1 intra-basic-block data-flow
    analysis to whole procedures: a worklist fixpoint over the CFG
    computes, for every load/store, the provenance of its address
    ([Stack | Static | PrivateHeap | SharedHeap | Unknown]), the
    must-hold lockset, the static barrier phase, and whether its
    runtime check is dominated by an earlier check of the same base
    register and page (redundant-check batching). *)

module Regmap : Map.S with type key = int
module Regions : Set.S with type elt = string
module Intset : Set.S with type elt = int

type prov =
  | Stack
  | Static
  | Private_heap
  | Shared_heap of Regions.t  (** with the dsm_malloc sites it may address *)
  | Unknown

val join : prov -> prov -> prov
(** Least upper bound; [Unknown] is top, bottom is absence from the map. *)

val prov_equal : prov -> prov -> bool

val pp_prov : Format.formatter -> prov -> unit

type disp = Disp of int | Disp_unknown
(** Constant byte displacement of a register from the base of the
    allocation it points into; [Disp_unknown] once the chain loses it. *)

type state = { regs : prov Regmap.t; disps : disp Regmap.t; locks : Intset.t }

val initial_state : state
val lookup : state -> Ir.reg -> prov
val transfer_op : state -> Ir.op -> state

val fixpoint : Ir.proc -> (string, state) Hashtbl.t
(** Block-entry states at fixpoint (absent = unreachable). Raises
    [Invalid_argument] on a malformed CFG. *)

type access = {
  a_block : string;
  a_index : int;
  a_kind : Binary.kind;
  a_base : Ir.base;
  a_site : string;
  a_count : int;
  a_offset : int;
  a_stride : int;
  a_disp : disp;
  a_prov : prov;
  a_locks : Intset.t;
  a_regions : Regions.t;
  a_phases : Intset.t;
  a_batched : int;
  a_reachable : bool;
}

val proven_private : access -> bool
(** Frame/global-pointer addressing, or computed provenance that can
    only reach private data. *)

val analyze : Ir.proc -> access list
(** Run the fixpoint and return every static access with its derived
    facts, in program order. *)
