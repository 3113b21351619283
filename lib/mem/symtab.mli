(** Symbol table over the shared segment (paper section 6.1: "in
    combination with symbol tables, this information can be used to
    identify the exact variable").

    Applications register each allocation under a name; race reports can
    then print "variable[index]" instead of a raw address. *)

type t

val create : unit -> t

val register : t -> name:string -> base:int -> bytes:int -> unit
(** Raises [Invalid_argument] if the range overlaps a registered symbol. *)

val name_of : t -> int -> string
(** ["counter"], ["grid[512]"], ["x+4"], or the hex address when unknown. *)
