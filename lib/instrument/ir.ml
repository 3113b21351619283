(* A small register-transfer IR for the synthetic application binaries.

   ATOM saw real Alpha RTL; we model just enough of it for the section
   5.1 elimination logic to be *computed* rather than asserted: register
   moves, load-effective-address arithmetic, allocation results
   (dsm_malloc vs private malloc), frame/global-pointer addressing, and
   loads/stores through registers.  Procedures are control-flow graphs
   of basic blocks, so the analysis in {!Dataflow} generalizes the
   paper's intra-basic-block data-flow to whole procedures with loops
   and branches.

   A [count] on a load/store stands for [count] alike static
   instructions at consecutive [stride]-spaced offsets (an unrolled
   inner loop); this keeps the Table-2-scale instruction counts without
   materializing million-op blocks. *)

type reg = int

type base =
  | Fp of int  (* frame-pointer relative: a stack slot *)
  | Gp of string  (* global-pointer relative: a static datum *)
  | Reg of reg  (* through a computed register *)

type op =
  | Mov of { dst : reg; src : reg }
  | Lea of { dst : reg; base : base; offset : int }
      (* address arithmetic: dst points into the same region as [base] *)
  | Malloc of { dst : reg; shared : bool; region : string }
      (* dsm_malloc (shared) or plain malloc (private) result *)
  | Load of { dst : reg option; base : base; offset : int; stride : int; count : int; site : string }
  | Store of { base : base; offset : int; stride : int; count : int; site : string }
  | Acquire of int
  | Release of int
  | Barrier

type block = { label : string; ops : op list; succs : string list }
type proc = { proc_name : string; entry : string; blocks : block list }

(* Builders *)

let mov ~dst ~src = Mov { dst; src }
let lea ~dst ?(offset = 0) base = Lea { dst; base; offset }
let malloc_shared ~dst region = Malloc { dst; shared = true; region }
let malloc_private ~dst region = Malloc { dst; shared = false; region }

let load ?dst ?(offset = 0) ?(stride = 8) ?(count = 1) ~site base =
  Load { dst; base; offset; stride; count; site }

let store ?(offset = 0) ?(stride = 8) ?(count = 1) ~site base =
  Store { base; offset; stride; count; site }

let acquire lock = Acquire lock
let release lock = Release lock
let barrier = Barrier

let block label ?(succs = []) ops = { label; ops; succs }

let proc ~name ~entry blocks = { proc_name = name; entry; blocks }

(* Structure *)

let block_table proc =
  let table = Hashtbl.create (List.length proc.blocks) in
  List.iter
    (fun b ->
      if Hashtbl.mem table b.label then
        invalid_arg (Printf.sprintf "Ir: duplicate block %S in %s" b.label proc.proc_name);
      Hashtbl.add table b.label b)
    proc.blocks;
  table

let validate proc =
  let table = block_table proc in
  if not (Hashtbl.mem table proc.entry) then
    invalid_arg (Printf.sprintf "Ir: entry block %S missing in %s" proc.entry proc.proc_name);
  List.iter
    (fun b ->
      List.iter
        (fun s ->
          if not (Hashtbl.mem table s) then
            invalid_arg
              (Printf.sprintf "Ir: block %S names unknown successor %S in %s" b.label s
                 proc.proc_name))
        b.succs)
    proc.blocks

let defined_reg = function
  | Mov { dst; _ } | Lea { dst; _ } | Malloc { dst; _ } | Load { dst = Some dst; _ } ->
      Some dst
  | Load { dst = None; _ } | Store _ | Acquire _ | Release _ | Barrier -> None
