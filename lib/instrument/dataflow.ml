(* Forward abstract interpretation over the provenance lattice.

   This is the analysis section 5.1 only sketches: ATOM proved a
   computed address private when its defining data-flow chain bottomed
   out in stack, static or private-heap storage. We run the same idea
   as a whole-procedure forward analysis: every register carries an
   abstract provenance

       Bottom < {Stack, Static, PrivateHeap, SharedHeap(regions)} < Unknown

   joined pointwise at CFG merge points, iterated to fixpoint with a
   worklist. SharedHeap values carry the set of dsm_malloc allocation
   sites the pointer may address, which the MHP pairing ({!Mhp}) consumes.

   Alongside provenance we run two cheap companion analyses over the
   same fixpoint:

   - a must-hold lockset (intersection at merges) for the MHP pairing;
   - a redundant-check pass: within a basic block, an access dominated
     by a prior instrumented check of the same base register and page
     needs no second shared/private discrimination — it is "batched"
     onto the earlier check. Register redefinition or any
     synchronization op invalidates the dominating check.

   Barrier ops additionally delimit static "phases": two accesses can
   only constitute a statically suspicious pair when some program point
   reaches both without crossing a barrier. *)

module Regmap = Map.Make (Int)
module Regions = Set.Make (String)
module Intset = Set.Make (Int)

(* ------------------------------------------------------------------ *)
(* The provenance lattice                                              *)

type prov =
  | Stack
  | Static
  | Private_heap
  | Shared_heap of Regions.t
  | Unknown

(* Bottom is represented by absence from the register map. *)

let join a b =
  match (a, b) with
  | Stack, Stack -> Stack
  | Static, Static -> Static
  | Private_heap, Private_heap -> Private_heap
  | Shared_heap r1, Shared_heap r2 -> Shared_heap (Regions.union r1 r2)
  | Unknown, _ | _, Unknown -> Unknown
  | _ -> Unknown

let prov_equal a b =
  match (a, b) with
  | Stack, Stack | Static, Static | Private_heap, Private_heap | Unknown, Unknown -> true
  | Shared_heap r1, Shared_heap r2 -> Regions.equal r1 r2
  | _ -> false

let is_private = function
  | Stack | Static | Private_heap -> true
  | Shared_heap _ | Unknown -> false

let regions_of = function Shared_heap r -> r | _ -> Regions.empty

let pp_prov ppf = function
  | Stack -> Format.pp_print_string ppf "Stack"
  | Static -> Format.pp_print_string ppf "Static"
  | Private_heap -> Format.pp_print_string ppf "PrivateHeap"
  | Shared_heap regions ->
      Format.fprintf ppf "SharedHeap{%s}" (String.concat "," (Regions.elements regions))
  | Unknown -> Format.pp_print_string ppf "Unknown"

(* ------------------------------------------------------------------ *)
(* Abstract state: register provenance + must-hold lockset             *)

(* Constant displacement of a register from the base of the allocation
   it points into (bytes); [Disp_unknown] when the chain loses it (a
   pointer loaded from memory, or a join of differing displacements).
   Bottom is absence from the map. The MHP range refinement consumes
   this: with a known displacement, an access's static footprint within
   its region is a concrete byte interval. *)
type disp = Disp of int | Disp_unknown

type state = { regs : prov Regmap.t; disps : disp Regmap.t; locks : Intset.t }

let initial_state = { regs = Regmap.empty; disps = Regmap.empty; locks = Intset.empty }

let disp_join a b =
  match (a, b) with Disp x, Disp y when x = y -> Disp x | _ -> Disp_unknown

let state_join a b =
  {
    regs =
      Regmap.merge
        (fun _ pa pb ->
          match (pa, pb) with
          | Some pa, Some pb -> Some (join pa pb)
          | Some p, None | None, Some p -> Some p (* bottom is the join identity *)
          | None, None -> None)
        a.regs b.regs;
    disps =
      Regmap.merge
        (fun _ da db ->
          match (da, db) with
          | Some da, Some db -> Some (disp_join da db)
          | Some d, None | None, Some d -> Some d
          | None, None -> None)
        a.disps b.disps;
    locks = Intset.inter a.locks b.locks;
  }

let state_equal a b =
  Regmap.equal prov_equal a.regs b.regs
  && Regmap.equal ( = ) a.disps b.disps
  && Intset.equal a.locks b.locks

let lookup state reg =
  match Regmap.find_opt reg state.regs with Some p -> p | None -> Unknown

let lookup_disp state reg =
  match Regmap.find_opt reg state.disps with Some d -> d | None -> Disp_unknown

let prov_of_base state = function
  | Ir.Fp _ -> Stack
  | Ir.Gp _ -> Static
  | Ir.Reg r -> lookup state r

let disp_of_base state = function
  | Ir.Fp _ | Ir.Gp _ -> Disp_unknown (* private; displacement is irrelevant *)
  | Ir.Reg r -> lookup_disp state r

let transfer_op state (op : Ir.op) =
  match op with
  | Ir.Mov { dst; src } ->
      {
        state with
        regs = Regmap.add dst (lookup state src) state.regs;
        disps = Regmap.add dst (lookup_disp state src) state.disps;
      }
  | Ir.Lea { dst; base; offset } ->
      let disp =
        match disp_of_base state base with
        | Disp d -> Disp (d + offset)
        | Disp_unknown -> Disp_unknown
      in
      {
        state with
        regs = Regmap.add dst (prov_of_base state base) state.regs;
        disps = Regmap.add dst disp state.disps;
      }
  | Ir.Malloc { dst; shared; region } ->
      let p = if shared then Shared_heap (Regions.singleton region) else Private_heap in
      {
        state with
        regs = Regmap.add dst p state.regs;
        disps = Regmap.add dst (Disp 0) state.disps;
      }
  | Ir.Load { dst = Some dst; _ } ->
      (* a pointer loaded from memory: nothing is known about it *)
      {
        state with
        regs = Regmap.add dst Unknown state.regs;
        disps = Regmap.add dst Disp_unknown state.disps;
      }
  | Ir.Load { dst = None; _ } | Ir.Store _ | Ir.Barrier -> state
  | Ir.Acquire lock -> { state with locks = Intset.add lock state.locks }
  | Ir.Release lock -> { state with locks = Intset.remove lock state.locks }

let transfer_block state ops = List.fold_left transfer_op state ops

(* ------------------------------------------------------------------ *)
(* Worklist fixpoint over the CFG                                      *)

let fixpoint (proc : Ir.proc) =
  Ir.validate proc;
  let table = Ir.block_table proc in
  let in_states : (string, state) Hashtbl.t = Hashtbl.create 16 in
  Hashtbl.replace in_states proc.Ir.entry initial_state;
  let work = Queue.create () in
  Queue.add proc.Ir.entry work;
  while not (Queue.is_empty work) do
    let label = Queue.pop work in
    let blk = Hashtbl.find table label in
    let out = transfer_block (Hashtbl.find in_states label) blk.Ir.ops in
    List.iter
      (fun succ ->
        let merged =
          match Hashtbl.find_opt in_states succ with
          | None -> out
          | Some prev -> state_join prev out
        in
        let changed =
          match Hashtbl.find_opt in_states succ with
          | None -> true
          | Some prev -> not (state_equal prev merged)
        in
        if changed then begin
          Hashtbl.replace in_states succ merged;
          Queue.add succ work
        end)
      blk.Ir.succs
  done;
  in_states

(* ------------------------------------------------------------------ *)
(* Static phases: barrier-free forward reach                           *)

(* Phase start points: procedure entry, plus the point just after every
   barrier op. An access belongs to every phase whose start reaches it
   without crossing another barrier; two accesses can race statically
   only if they share a phase. Keys are (block label, op index). *)
let phases (proc : Ir.proc) =
  let table = Ir.block_table proc in
  let starts = ref [ (proc.Ir.entry, 0) ] in
  List.iter
    (fun (b : Ir.block) ->
      List.iteri
        (fun i op -> if op = Ir.Barrier then starts := (b.Ir.label, i + 1) :: !starts)
        b.Ir.ops)
    proc.Ir.blocks;
  let membership : (string * int, Intset.t) Hashtbl.t = Hashtbl.create 64 in
  let add_member key phase =
    let prev = Option.value (Hashtbl.find_opt membership key) ~default:Intset.empty in
    Hashtbl.replace membership key (Intset.add phase prev)
  in
  List.iteri
    (fun phase (start_label, start_idx) ->
      let visited_heads = Hashtbl.create 16 in
      (* walk ops of [label] from [idx]; returns the successors to
         continue into unless a barrier ended the phase first *)
      let rec walk label idx =
        let blk = Hashtbl.find table label in
        let ops = Array.of_list blk.Ir.ops in
        let n = Array.length ops in
        let rec scan i =
          if i >= n then
            List.iter
              (fun succ ->
                if not (Hashtbl.mem visited_heads succ) then begin
                  Hashtbl.replace visited_heads succ ();
                  walk succ 0
                end)
              blk.Ir.succs
          else
            match ops.(i) with
            | Ir.Barrier -> () (* the phase ends here *)
            | Ir.Load _ | Ir.Store _ ->
                add_member (label, i) phase;
                scan (i + 1)
            | _ -> scan (i + 1)
        in
        scan idx
      in
      walk start_label start_idx)
    (List.rev !starts);
  fun key -> Option.value (Hashtbl.find_opt membership key) ~default:Intset.empty

(* ------------------------------------------------------------------ *)
(* Per-access results                                                  *)

type access = {
  a_block : string;
  a_index : int;  (* op index within the block *)
  a_kind : Binary.kind;
  a_base : Ir.base;
  a_site : string;
  a_count : int;
  a_offset : int;  (* static byte offset of the first element *)
  a_stride : int;  (* static byte stride between elements *)
  a_disp : disp;  (* base register's displacement from its region base *)
  a_prov : prov;  (* provenance of the address at this point *)
  a_locks : Intset.t;  (* must-hold lockset at this point *)
  a_regions : Regions.t;  (* shared allocation sites possibly addressed *)
  a_phases : Intset.t;  (* static phases containing this access *)
  a_batched : int;  (* of [a_count], checks dominated by a prior one *)
  a_reachable : bool;
}

let proven_private a =
  match a.a_base with Ir.Fp _ | Ir.Gp _ -> true | Ir.Reg _ -> is_private a.a_prov

(* the page size the batching groups checks by: the default's, which
   every simulated run uses *)
let page_size = Sim.Cost.default.Sim.Cost.page_size

let analyze (proc : Ir.proc) =
  let in_states = fixpoint proc in
  let phase_of = phases proc in
  let accesses = ref [] in
  List.iter
    (fun (blk : Ir.block) ->
      let reachable = Hashtbl.mem in_states blk.Ir.label in
      let state =
        Option.value (Hashtbl.find_opt in_states blk.Ir.label) ~default:initial_state
      in
      (* per-block dominating-check table: base register -> pages checked *)
      let checked : (Ir.reg, Intset.t ref) Hashtbl.t = Hashtbl.create 8 in
      let state = ref state in
      List.iteri
        (fun i op ->
          (match op with
          | Ir.Load { base; offset; stride; count; site; _ } | Ir.Store { base; offset; stride; count; site } ->
              let kind =
                match op with Ir.Load _ -> Binary.Load | _ -> Binary.Store
              in
              let prov = prov_of_base !state base in
              let needs_check =
                reachable
                && (match base with Ir.Reg _ -> not (is_private prov) | _ -> false)
              in
              let batched = ref 0 in
              (if needs_check then
                 match base with
                 | Ir.Reg r ->
                     let pages =
                       match Hashtbl.find_opt checked r with
                       | Some pages -> pages
                       | None ->
                           let pages = ref Intset.empty in
                           Hashtbl.replace checked r pages;
                           pages
                     in
                     for k = 0 to count - 1 do
                       let page = (offset + (k * stride)) / page_size in
                       if Intset.mem page !pages then incr batched
                       else pages := Intset.add page !pages
                     done
                 | _ -> ());
              accesses :=
                {
                  a_block = blk.Ir.label;
                  a_index = i;
                  a_kind = kind;
                  a_base = base;
                  a_site = site;
                  a_count = count;
                  a_offset = offset;
                  a_stride = stride;
                  a_disp = disp_of_base !state base;
                  a_prov = prov;
                  a_locks = (if reachable then !state.locks else Intset.empty);
                  a_regions = regions_of prov;
                  a_phases = (if reachable then phase_of (blk.Ir.label, i) else Intset.empty);
                  a_batched = !batched;
                  a_reachable = reachable;
                }
                :: !accesses
          | Ir.Acquire _ | Ir.Release _ | Ir.Barrier ->
              (* synchronization may change page contents/ownership: any
                 dominating check is no longer a proof *)
              Hashtbl.reset checked
          | Ir.Mov _ | Ir.Lea _ | Ir.Malloc _ -> ());
          (match Ir.defined_reg op with
          | Some r -> Hashtbl.remove checked r
          | None -> ());
          state := transfer_op !state op)
        blk.Ir.ops)
    proc.Ir.blocks;
  List.rev !accesses
