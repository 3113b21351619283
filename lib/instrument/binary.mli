(** Synthetic executable images — what our ATOM analogue analyzes.

    An image has flat [sections] (shared libraries and the CVM runtime,
    classified by origin alone) and application-text [procs]:
    register-transfer CFGs whose computed addresses are classified by
    the data-flow analysis in {!Dataflow}. There is no oracle bit —
    whether a computed access is private is derived, not asserted. *)

type kind = Load | Store

type addressing =
  | Frame_pointer  (** sp/fp-relative: a stack slot *)
  | Global_pointer  (** gp-relative: statically allocated data *)
  | Computed  (** through a computed register: possibly shared *)

type origin = App_text | Library of string | Cvm_runtime

type instruction = {
  kind : kind;
  addressing : addressing;
  origin : origin;
  site : string;  (** symbolic program counter, e.g. "file:function#n" *)
}

type t = { name : string; sections : instruction list; procs : Ir.proc list }

val make : name:string -> ?procs:Ir.proc list -> instruction list -> t
(** Validates every procedure's CFG. *)

val section : origin:origin -> prefix:string -> loads:int -> stores:int -> instruction list
(** A library or runtime section (addressing irrelevant to elimination). *)

val instructions : t -> instruction list
(** Sections followed by every procedure's lowered accesses. *)

val loads : t -> instruction list
val stores : t -> instruction list
