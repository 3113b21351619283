(** Register-transfer IR for the synthetic binaries.

    Procedures are CFGs of basic blocks; ops model the address
    computations ATOM's classifier keyed on (moves, lea, malloc
    results, frame/global-pointer addressing) plus loads/stores through
    registers and lock/barrier synchronization. A [count] on an access
    stands for [count] alike static instructions at [stride]-spaced
    offsets. *)

type reg = int

type base =
  | Fp of int  (** frame-pointer relative: a stack slot *)
  | Gp of string  (** global-pointer relative: a static datum *)
  | Reg of reg  (** through a computed register *)

type op =
  | Mov of { dst : reg; src : reg }
  | Lea of { dst : reg; base : base; offset : int }
  | Malloc of { dst : reg; shared : bool; region : string }
  | Load of {
      dst : reg option;
      base : base;
      offset : int;
      stride : int;
      count : int;
      site : string;
    }
  | Store of { base : base; offset : int; stride : int; count : int; site : string }
  | Acquire of int
  | Release of int
  | Barrier

type block = { label : string; ops : op list; succs : string list }
type proc = { proc_name : string; entry : string; blocks : block list }

val mov : dst:reg -> src:reg -> op
val lea : dst:reg -> ?offset:int -> base -> op
val malloc_shared : dst:reg -> string -> op
val malloc_private : dst:reg -> string -> op
val load : ?dst:reg -> ?offset:int -> ?stride:int -> ?count:int -> site:string -> base -> op
val store : ?offset:int -> ?stride:int -> ?count:int -> site:string -> base -> op
val acquire : int -> op
val release : int -> op
val barrier : op

val block : string -> ?succs:string list -> op list -> block
val proc : name:string -> entry:string -> block list -> proc

val block_table : proc -> (string, block) Hashtbl.t
(** Label-indexed blocks; raises on duplicate labels. *)

val validate : proc -> unit
(** Raises [Invalid_argument] if the entry or a successor is missing. *)

val defined_reg : op -> reg option
(** The register an op (re)defines, if any. *)

