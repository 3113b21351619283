(* The static elimination pass of section 5.1, now actually computed.

   An instruction is proven to never touch shared data when:
   - it addresses through the frame pointer (stack data);
   - it addresses through the global pointer (statically allocated data —
     safe because the DSM allocates all shared memory dynamically);
   - it lives in a shared library (the applications pass no shared-segment
     pointers to libraries);
   - it lives in the CVM runtime itself;
   - the data-flow analysis over the procedure's CFG ({!Dataflow}) proves
     the computed address can only reach private data.

   Everything else is instrumented: ATOM inserts a procedure call to the
   analysis routine before it. A by-product of the same fixpoint is
   redundant-check batching: an access dominated in its block by a prior
   check of the same base register and page shares that check, so it
   pays only [batched_check_cost] of the full discrimination charge
   ({!check_cost_scale} feeds the driver's cost model).

   The shared-access lint runs the fixpoint again, on demand ([lint]):
   two different sites that may address the same dsm_malloc region in
   the same static barrier phase, at least one a store, with disjoint
   must-hold locksets, are statically suspicious — this flags Water's
   unlocked potential-energy update and TSP's unsynchronized bound read
   without running the simulator. Its pairing is quadratic in a
   procedure's shared accesses, and the driver, which runs [analyze]
   before every detecting simulation, never reads it. *)

type classification = {
  stack : int;
  static_data : int;
  proven_private : int;  (* computed addresses the data-flow proved private *)
  library : int;
  cvm : int;
  instrumented : int;
}

let empty =
  { stack = 0; static_data = 0; proven_private = 0; library = 0; cvm = 0; instrumented = 0 }

type warning = {
  w_proc : string;
  w_site : string;  (* the insufficiently locked access *)
  w_kind : Binary.kind;
  w_region : string;  (* the shared allocation both sites may address *)
  w_other_site : string;  (* the conflicting access *)
  w_other_locks : int list;  (* locks the conflicting access holds *)
}

type result = {
  classification : classification;
  sites : string list;  (* surviving (instrumented) sites, program order *)
  batched_checks : int;  (* checks eliminated by in-block batching *)
  check_cost_scale : float;  (* average per-check charge relative to full *)
}

let batched_check_cost = 0.25
(* a batched access still sets its bitmap bit but skips the page lookup;
   calibrated share of the full 200 ns discrimination *)

(* Flat section instructions carry no CFG, so a computed access there
   can never be proven private. *)
let classify_section_instruction (i : Binary.instruction) =
  match (i.origin, i.addressing) with
  | Binary.Library _, _ -> `Library
  | Binary.Cvm_runtime, _ -> `Cvm
  | Binary.App_text, Binary.Frame_pointer -> `Stack
  | Binary.App_text, Binary.Global_pointer -> `Static
  | Binary.App_text, Binary.Computed -> `Instrumented

let classify_access (a : Dataflow.access) =
  match a.Dataflow.a_base with
  | Ir.Fp _ -> `Stack
  | Ir.Gp _ -> `Static
  | Ir.Reg _ -> if Dataflow.proven_private a then `Proven_private else `Instrumented

let bump c n = function
  | `Stack -> { c with stack = c.stack + n }
  | `Static -> { c with static_data = c.static_data + n }
  | `Proven_private -> { c with proven_private = c.proven_private + n }
  | `Library -> { c with library = c.library + n }
  | `Cvm -> { c with cvm = c.cvm + n }
  | `Instrumented -> { c with instrumented = c.instrumented + n }

(* ------------------------------------------------------------------ *)
(* The lint                                                            *)

let locks_to_list locks = Dataflow.Intset.elements locks

let lint_warnings accesses =
  let shared =
    List.filter
      (fun (a : Dataflow.access) ->
        a.Dataflow.a_reachable && not (Dataflow.Regions.is_empty a.Dataflow.a_regions))
      accesses
  in
  (* Suspicious pair: two different sites that may address the same
     region in the same static phase, at least one a store, where one
     side is lock-disciplined and the other holds nothing. Pairs where
     both locksets are empty are barrier-disciplined (SOR/FFT/LU style)
     and left to the dynamic detector — a static pass cannot see the
     owner-partitioning that makes them safe. *)
  let suspicious (a : Dataflow.access) (b : Dataflow.access) =
    a.Dataflow.a_site <> b.Dataflow.a_site
    && (a.Dataflow.a_kind = Binary.Store || b.Dataflow.a_kind = Binary.Store)
    && (not (Dataflow.Regions.is_empty (Dataflow.Regions.inter a.Dataflow.a_regions b.Dataflow.a_regions)))
    && (not (Dataflow.Intset.is_empty (Dataflow.Intset.inter a.Dataflow.a_phases b.Dataflow.a_phases)))
    && Dataflow.Intset.is_empty (Dataflow.Intset.inter a.Dataflow.a_locks b.Dataflow.a_locks)
    && Dataflow.Intset.is_empty a.Dataflow.a_locks
       <> Dataflow.Intset.is_empty b.Dataflow.a_locks
  in
  let warnings = ref [] in
  let seen = Hashtbl.create 16 in
  let emit (a : Dataflow.access) (b : Dataflow.access) =
    let region =
      Dataflow.Regions.min_elt (Dataflow.Regions.inter a.Dataflow.a_regions b.Dataflow.a_regions)
    in
    let key = (a.Dataflow.a_site, b.Dataflow.a_site, region) in
    if not (Hashtbl.mem seen key) then begin
      Hashtbl.replace seen key ();
      warnings :=
        {
          w_proc = a.Dataflow.a_proc;
          w_site = a.Dataflow.a_site;
          w_kind = a.Dataflow.a_kind;
          w_region = region;
          w_other_site = b.Dataflow.a_site;
          w_other_locks = locks_to_list b.Dataflow.a_locks;
        }
        :: !warnings
    end
  in
  let rec pairs = function
    | [] -> ()
    | a :: rest ->
        List.iter
          (fun b ->
            if suspicious a b then begin
              (* report the access(es) whose static lockset is empty; if
                 both hold (disjoint) locks, report the first *)
              let a_empty = Dataflow.Intset.is_empty a.Dataflow.a_locks in
              let b_empty = Dataflow.Intset.is_empty b.Dataflow.a_locks in
              if a_empty || not b_empty then emit a b;
              if b_empty && not a_empty then emit b a
            end)
          rest;
        pairs rest
  in
  pairs shared;
  List.rev !warnings

(* ------------------------------------------------------------------ *)
(* Whole-binary analysis                                               *)

let analyze (binary : Binary.t) =
  let c = ref empty in
  let sites = ref [] in
  List.iter
    (fun (i : Binary.instruction) ->
      let bucket = classify_section_instruction i in
      c := bump !c 1 bucket;
      if bucket = `Instrumented then sites := i.Binary.site :: !sites)
    binary.Binary.sections;
  let batched = ref 0 in
  List.iter
    (fun proc ->
      List.iter
        (fun (a : Dataflow.access) ->
          let bucket = classify_access a in
          c := bump !c a.Dataflow.a_count bucket;
          if bucket = `Instrumented then begin
            batched := !batched + a.Dataflow.a_batched;
            if a.Dataflow.a_count = 1 then sites := a.Dataflow.a_site :: !sites
            else
              for k = a.Dataflow.a_count - 1 downto 0 do
                sites := Printf.sprintf "%s#%d" a.Dataflow.a_site k :: !sites
              done
          end)
        (Dataflow.analyze proc))
    binary.Binary.procs;
  let classification = !c in
  let scale =
    if classification.instrumented = 0 then 1.0
    else
      let inst = float_of_int classification.instrumented in
      let b = float_of_int !batched in
      ((inst -. b) +. (b *. batched_check_cost)) /. inst
  in
  { classification; sites = List.rev !sites; batched_checks = !batched; check_cost_scale = scale }

let lint (binary : Binary.t) =
  List.concat_map (fun proc -> lint_warnings (Dataflow.analyze proc))
    binary.Binary.procs
  (* deterministic report order regardless of CFG discovery order, so
     warning lists diff cleanly in CI *)
  |> List.stable_sort (fun a b ->
         compare
           (a.w_proc, a.w_site, a.w_other_site, a.w_region)
           (b.w_proc, b.w_site, b.w_other_site, b.w_region))

let classify binary = (analyze binary).classification

let total c = c.stack + c.static_data + c.proven_private + c.library + c.cvm + c.instrumented

let eliminated_fraction c =
  let n = total c in
  if n = 0 then 0.0 else float_of_int (n - c.instrumented) /. float_of_int n

let instrumented_sites binary = (analyze binary).sites

let pp ppf c =
  Format.fprintf ppf
    "stack=%d static=%d private=%d library=%d cvm=%d instrumented=%d (%.2f%% eliminated)"
    c.stack c.static_data c.proven_private c.library c.cvm c.instrumented
    (100.0 *. eliminated_fraction c)

let pp_warning ppf w =
  let kind = match w.w_kind with Binary.Load -> "load" | Binary.Store -> "store" in
  let locks =
    match w.w_other_locks with
    | [] -> "no locks"
    | ls -> Printf.sprintf "locks {%s}" (String.concat "," (List.map string_of_int ls))
  in
  Format.fprintf ppf
    "%s: %s at %s reaches shared region %s with an empty static lockset (conflicts with %s holding %s)"
    w.w_proc kind w.w_site w.w_region w.w_other_site locks
