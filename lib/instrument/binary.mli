(** Synthetic executable images — what our ATOM analogue analyzes.

    An image counts the accesses of its shared libraries and the CVM
    runtime, which the static pass eliminates by origin alone, and
    carries the application text as [procs]: register-transfer CFGs
    whose computed addresses are classified by the data-flow analysis
    in {!Dataflow}. There is no oracle bit — whether a computed access
    is private is derived, not asserted. *)

type kind = Load | Store

type t = {
  name : string;
  library : int;  (** loads and stores in shared libraries *)
  cvm : int;  (** loads and stores in the CVM runtime *)
  procs : Ir.proc list;  (** the application text *)
}

val make : name:string -> ?library:int -> ?cvm:int -> ?procs:Ir.proc list -> unit -> t
(** The counts default to 0. Validates every procedure's CFG. *)
