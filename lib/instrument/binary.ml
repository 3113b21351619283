(* Synthetic executable images — the objects our ATOM analogue analyzes.

   ATOM classified every load and store in a real Alpha binary by its
   addressing mode and origin. We cannot rewrite native binaries from
   OCaml, so each application instead carries a synthetic image with the
   same structure the real classifier consumed: flat [sections] for code
   we never analyze beyond its origin (shared libraries, the CVM runtime
   itself), and application-text [procs] — register-transfer CFGs
   ({!Ir}) whose computed addresses the data-flow analysis in
   {!Dataflow} classifies. Whether a computed access is private is
   *derived* by that analysis; the image carries no oracle bit. *)

type kind = Load | Store

type addressing =
  | Frame_pointer  (* sp/fp-relative: a stack slot *)
  | Global_pointer  (* gp-relative: statically allocated data *)
  | Computed  (* through a computed register: possibly shared *)

type origin =
  | App_text  (* the application's own code *)
  | Library of string  (* libc, libm, ... *)
  | Cvm_runtime  (* the DSM library linked into the binary *)

type instruction = {
  kind : kind;
  addressing : addressing;
  origin : origin;
  site : string;  (* symbolic "program counter": file:function#n *)
}

type t = { name : string; sections : instruction list; procs : Ir.proc list }

(* Builders used by the applications' [binary] descriptions. *)

let make ~name ?(procs = []) sections =
  List.iter Ir.validate procs;
  { name; sections; procs }

let repeat n f = List.init n f

let bulk ~kind ~addressing ~origin ~prefix n =
  repeat n (fun i -> { kind; addressing; origin; site = Printf.sprintf "%s#%d" prefix i })

let section ~origin ~prefix ~loads ~stores =
  (* library/runtime sections: addressing is irrelevant to classification *)
  bulk ~kind:Load ~addressing:Computed ~origin ~prefix:(prefix ^ ".ld") loads
  @ bulk ~kind:Store ~addressing:Computed ~origin ~prefix:(prefix ^ ".st") stores

(* Lowering: app-text procedures flatten to one instruction per static
   access (counts expanded), keyed by the syntactic addressing mode. *)

let expand_sites site count =
  if count = 1 then [ site ] else repeat count (fun i -> Printf.sprintf "%s#%d" site i)

let addressing_of_base = function
  | Ir.Fp _ -> Frame_pointer
  | Ir.Gp _ -> Global_pointer
  | Ir.Reg _ -> Computed

let lower_proc (proc : Ir.proc) =
  List.concat_map
    (fun (b : Ir.block) ->
      List.concat_map
        (fun (op : Ir.op) ->
          match op with
          | Ir.Load { base; count; site; _ } ->
              List.map
                (fun site ->
                  { kind = Load; addressing = addressing_of_base base; origin = App_text; site })
                (expand_sites site count)
          | Ir.Store { base; count; site; _ } ->
              List.map
                (fun site ->
                  { kind = Store; addressing = addressing_of_base base; origin = App_text; site })
                (expand_sites site count)
          | _ -> [])
        b.Ir.ops)
    proc.Ir.blocks

let instructions t = t.sections @ List.concat_map lower_proc t.procs

let loads t = List.filter (fun i -> i.kind = Load) (instructions t)
let stores t = List.filter (fun i -> i.kind = Store) (instructions t)
