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

   Origin alone settles the library and runtime cases, so the image
   only counts those accesses and the pass starts from the two counts;
   the application text is classified access by access.

   Everything else is instrumented: ATOM inserts a procedure call to the
   analysis routine before it. A by-product of the same fixpoint is
   redundant-check batching: an access dominated in its block by a prior
   check of the same base register and page shares that check, so it
   pays only [batched_check_cost] of the full discrimination charge
   ({!check_cost_scale} feeds the driver's cost model).

   Static race suspicion is not this pass's business: the result keeps
   each procedure's accesses, and {!Mhp.of_analysis} pairs them. *)

type classification = {
  stack : int;
  static_data : int;
  proven_private : int;  (* computed addresses the data-flow proved private *)
  library : int;
  cvm : int;
  instrumented : int;
}

type result = {
  classification : classification;
  sites : string list;  (* surviving (instrumented) sites, program order *)
  batched_checks : int;  (* checks eliminated by in-block batching *)
  check_cost_scale : float;  (* average per-check charge relative to full *)
  accesses : (string * Dataflow.access list) list;  (* per procedure, for Mhp *)
}

let batched_check_cost = 0.25
(* a batched access still sets its bitmap bit but skips the page lookup;
   calibrated share of the full 200 ns discrimination *)

let classify_access (a : Dataflow.access) =
  match a.Dataflow.a_base with
  | Ir.Fp _ -> `Stack
  | Ir.Gp _ -> `Static
  | Ir.Reg _ -> if Dataflow.proven_private a then `Proven_private else `Instrumented

let bump c n = function
  | `Stack -> { c with stack = c.stack + n }
  | `Static -> { c with static_data = c.static_data + n }
  | `Proven_private -> { c with proven_private = c.proven_private + n }
  | `Instrumented -> { c with instrumented = c.instrumented + n }

(* ------------------------------------------------------------------ *)
(* Whole-binary analysis                                               *)

let analyze (binary : Binary.t) =
  let c =
    ref
      {
        stack = 0;
        static_data = 0;
        proven_private = 0;
        library = binary.Binary.library;
        cvm = binary.Binary.cvm;
        instrumented = 0;
      }
  in
  let sites = ref [] in
  let batched = ref 0 in
  let accesses =
    List.map
      (fun (proc : Ir.proc) ->
        let accesses = Dataflow.analyze proc in
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
          accesses;
        (proc.Ir.proc_name, accesses))
      binary.Binary.procs
  in
  let classification = !c in
  let scale =
    if classification.instrumented = 0 then 1.0
    else
      let inst = float_of_int classification.instrumented in
      let b = float_of_int !batched in
      ((inst -. b) +. (b *. batched_check_cost)) /. inst
  in
  {
    classification;
    sites = List.rev !sites;
    batched_checks = !batched;
    check_cost_scale = scale;
    accesses;
  }

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
