(* Seeded random program generator. The .mli documents the role system
   and the by-construction race/race-freedom arguments; the emission
   rules here are the proof obligations:

   - body ops never touch a racy word;
   - a racy word's two accesses are the last ops of their processors'
     phase segments (in particular, after every lock op), so no
     release can follow either access within the phase and no
     happens-before path orders the pair;
   - nested lock acquisition is always in ascending lock-id order and
     never spans a barrier, so no deadlock;
   - read-only words are written only by processor 0 in phase 0 and
     read only in phases >= 1, so the write is barrier-ordered before
     every read. *)

(* Inclusive draw ranges: small enough that a failing program is
   readable, varied enough to cover the role space. Every program has at
   least the two processors a racy word needs; nesting bounds the locks
   held around one locked access. *)
let nprocs_range = (2, 4)
let phases_range = (1, 3)  (* barriers per stream *)
let ops_per_phase_range = (2, 6)  (* per-processor accesses per phase, before sync ops *)
let private_words_range = (2, 4)
let readonly_words_range = (1, 2)
let locked_words_range = (1, 3)
let racy_words_range = (0, 2)
let nesting_range = (1, 3)

type generated = { program : Program.t; racy : int list; role : string array }

let range rng (lo, hi) = lo + Sim.Rng.int rng (hi - lo + 1)

(* [k] distinct draws from [0, n); k <= n *)
let distinct rng k n =
  let pool = Array.init n Fun.id in
  Sim.Rng.shuffle_in_place rng pool;
  Array.to_list (Array.sub pool 0 k)

type racy_plan = {
  rp_word : int;
  rp_pair : int * int;
  rp_phase : int;  (** 0-based barrier epoch, [0, phases] inclusive *)
  rp_both_write : bool;  (** false: first writes, second reads *)
}

let generate ~rng ~name =
  let nprocs = range rng nprocs_range in
  let phases = range rng phases_range in
  let n_priv = range rng private_words_range in
  let n_ro = range rng readonly_words_range in
  let n_locked = range rng locked_words_range in
  let n_racy = range rng racy_words_range in
  (* word layout: [private | readonly | locked | racy]; locked word j
     is protected by lock id j *)
  let priv_base = 0 in
  let ro_base = priv_base + n_priv in
  let locked_base = ro_base + n_ro in
  let racy_base = locked_base + n_locked in
  let words = max 1 (racy_base + n_racy) in
  let owner = Array.init n_priv (fun i -> i mod nprocs) in
  let role = Array.make words "private" in
  Array.iteri (fun i p -> role.(priv_base + i) <- Printf.sprintf "private(p%d)" p) owner;
  for i = 0 to n_ro - 1 do
    role.(ro_base + i) <- "readonly"
  done;
  for i = 0 to n_locked - 1 do
    role.(locked_base + i) <- Printf.sprintf "locked(l%d)" i
  done;
  let racy_plans =
    List.init n_racy (fun i ->
        let pair = match distinct rng 2 nprocs with [ a; b ] -> (a, b) | _ -> assert false in
        let plan =
          {
            rp_word = racy_base + i;
            rp_pair = pair;
            rp_phase = Sim.Rng.int rng (phases + 1);
            rp_both_write = Sim.Rng.bool rng;
          }
        in
        let a, b = plan.rp_pair in
        role.(plan.rp_word) <-
          Printf.sprintf "racy(p%d %s p%d, phase %d)" a
            (if plan.rp_both_write then "w/w" else "w/r")
            b plan.rp_phase;
        plan)
  in
  let my_private rng p =
    let mine = ref [] in
    Array.iteri (fun i o -> if o = p then mine := (priv_base + i) :: !mine) owner;
    match !mine with
    | [] -> None
    | mine -> Some (List.nth mine (Sim.Rng.int rng (List.length mine)))
  in
  (* one random body op for processor [p] in epoch [phase], as a
     reversed op list fragment *)
  let body_op rng p phase =
    let choices =
      (match my_private rng p with
      | Some w -> [ (fun () -> [ (if Sim.Rng.bool rng then Program.Read w else Program.Write w) ]) ]
      | None -> [])
      @ (if n_ro > 0 && phase >= 1 then
           [ (fun () -> [ Program.Read (ro_base + Sim.Rng.int rng n_ro) ]) ]
         else [])
      @
      if n_locked > 0 then
        [
          (fun () ->
            let depth = min n_locked (range rng nesting_range) in
            let locks = List.sort compare (distinct rng depth n_locked) in
            List.map (fun l -> Program.Lock l) locks
            @ List.map
                (fun l ->
                  let w = locked_base + l in
                  if Sim.Rng.bool rng then Program.Read w else Program.Write w)
                locks
            @ List.rev_map (fun l -> Program.Unlock l) locks);
        ]
      else []
    in
    match choices with
    | [] -> []
    | cs -> (List.nth cs (Sim.Rng.int rng (List.length cs))) ()
  in
  let streams =
    Array.init nprocs (fun p ->
        let ops = ref [] in
        let emit op = ops := op :: !ops in
        for phase = 0 to phases do
          (* phase 0: processor 0 initializes every read-only word
             before anyone may read them (reads start in phase 1) *)
          if phase = 0 && p = 0 then
            for i = 0 to n_ro - 1 do
              emit (Program.Write (ro_base + i))
            done;
          let n_ops = range rng ops_per_phase_range in
          for _ = 1 to n_ops do
            List.iter emit (body_op rng p phase)
          done;
          (* racy tail: after every lock op of this segment *)
          List.iter
            (fun plan ->
              if plan.rp_phase = phase then begin
                let a, b = plan.rp_pair in
                if p = a then emit (Program.Write plan.rp_word)
                else if p = b then
                  emit
                    (if plan.rp_both_write then Program.Write plan.rp_word
                     else Program.Read plan.rp_word)
              end)
            racy_plans;
          if phase < phases then emit Program.Barrier
        done;
        List.rev !ops)
  in
  let program = { Program.name; nprocs; words; streams } in
  Program.validate program;
  {
    program;
    racy = List.sort compare (List.map (fun plan -> plan.rp_word) racy_plans);
    role;
  }

let generate_seeded ~seed ~index () =
  (* SplitMix-style mix so nearby (seed, index) pairs land on
     unrelated streams *)
  let mixed = (seed * 0x2545F491) lxor (index * 0x9E3779B9) lxor (index lsl 17) in
  let rng = Sim.Rng.create ~seed:mixed in
  generate ~rng ~name:(Printf.sprintf "gen-%d-%d" seed index)
