(* Differential fuzzing harness: detector vs oracle vs ground truth,
   across backends, with and without elision; greedy shrinking of
   internal mismatches. *)

type result = { detected : int list; oracle : int list; checksum : int }
type runner = backend:string -> elide:bool -> Program.t -> result

let driver_runner ~backend ~elide (program : Program.t) =
  let base = ref 0 in
  let app = Program.to_app ~base program in
  let cfg =
    {
      Coherence.Config.default with
      Coherence.Config.backend;
      detect = true;
      record_trace = true;
      elide_sites = (if elide then Some [] else None);
    }
  in
  let outcome = Core.Driver.run ~cfg ~app ~nprocs:program.Program.nprocs () in
  (* SPMD malloc determinism: every processor computed the same base,
     so the one left in [base] maps any racy address to a word index.
     The mapping is applied to detector and oracle alike, so a stray
     out-of-array address still surfaces as a set difference. *)
  let to_words addrs =
    List.sort_uniq compare (List.map (fun a -> (a - !base) / Mem.Page.word_size) addrs)
  in
  {
    detected = to_words (Core.Driver.racy_addrs outcome);
    oracle = to_words (Core.Driver.oracle_addrs outcome);
    checksum = outcome.Core.Driver.mem_checksum;
  }

type kind =
  | Detector_vs_oracle of { backend : string; elide : bool }
  | Elide_dependent of { backend : string }
  | Backend_dependent of { backend_a : string; backend_b : string }
  | Ground_truth of { backend : string }

type mismatch = { program : Program.t; kind : kind; detail : string }

let kind_name = function
  | Detector_vs_oracle _ -> "detector-vs-oracle"
  | Elide_dependent _ -> "elide-dependent"
  | Backend_dependent _ -> "backend-dependent"
  | Ground_truth _ -> "ground-truth"

let shrinkable = function Ground_truth _ -> false | _ -> true
let pp_set ws = "{" ^ String.concat "," (List.map string_of_int ws) ^ "}"

let check ?(backends = Backends.all) ~runner ?ground_truth program =
  if backends = [] then invalid_arg "Harness.check: no backend to check";
  let exception Found of mismatch in
  let fail kind detail = raise (Found { program; kind; detail }) in
  try
    let results =
      List.map
        (fun backend ->
          let plain = runner ~backend ~elide:false program in
          if plain.detected <> plain.oracle then
            fail
              (Detector_vs_oracle { backend; elide = false })
              (Printf.sprintf "%s: detected %s but oracle says %s" backend
                 (pp_set plain.detected) (pp_set plain.oracle));
          let elided = runner ~backend ~elide:true program in
          if elided.detected <> elided.oracle then
            fail
              (Detector_vs_oracle { backend; elide = true })
              (Printf.sprintf "%s --elide: detected %s but oracle says %s" backend
                 (pp_set elided.detected) (pp_set elided.oracle));
          if elided.detected <> plain.detected then
            fail
              (Elide_dependent { backend })
              (Printf.sprintf "%s: elision changed the detected set %s -> %s" backend
                 (pp_set plain.detected) (pp_set elided.detected));
          (backend, plain))
        backends
    in
    let backend_a, reference = List.hd results in
    List.iter
      (fun (backend_b, r) ->
        if r.detected <> reference.detected then
          fail
            (Backend_dependent { backend_a; backend_b })
            (Printf.sprintf "%s detected %s but %s detected %s" backend_a
               (pp_set reference.detected) backend_b (pp_set r.detected)))
      results;
    (match ground_truth with
    | Some gt when reference.detected <> gt ->
        fail (Ground_truth { backend = backend_a })
          (Printf.sprintf "planted races %s but every backend detected %s" (pp_set gt)
             (pp_set reference.detected))
    | _ -> ());
    None
  with Found m -> Some m

(* ------------------------------------------------------------------ *)
(* Shrinking *)

(* split a stream into its barrier-delimited segments; length = phases+1 *)
let segments stream =
  List.fold_left
    (fun acc op ->
      match (op, acc) with
      | Program.Barrier, _ -> [] :: acc
      | op, seg :: tl -> (op :: seg) :: tl
      | _, [] -> assert false)
    [ [] ] stream
  |> List.rev_map List.rev

let join_segments segs =
  match segs with
  | [] -> []
  | first :: rest -> first @ List.concat_map (fun s -> Program.Barrier :: s) rest

let drop_nth l n = List.filteri (fun i _ -> i <> n) l

let drop_proc (t : Program.t) p =
  {
    t with
    Program.nprocs = t.Program.nprocs - 1;
    streams =
      Array.of_list (drop_nth (Array.to_list t.Program.streams) p);
  }

let drop_phase (t : Program.t) k =
  { t with Program.streams = Array.map (fun s -> join_segments (drop_nth (segments s) k)) t.Program.streams }

let merge_phase (t : Program.t) k =
  (* remove the k-th barrier from every stream, fusing segments k and k+1 *)
  let fuse s =
    match segments s with
    | segs when List.length segs > k + 1 ->
        let before = List.filteri (fun i _ -> i < k) segs in
        let a = List.nth segs k and b = List.nth segs (k + 1) in
        let after = List.filteri (fun i _ -> i > k + 1) segs in
        join_segments (before @ [ a @ b ] @ after)
    | _ -> s
  in
  { t with Program.streams = Array.map fuse t.Program.streams }

let drop_op (t : Program.t) p i =
  let stream = t.Program.streams.(p) in
  let remove indices =
    List.filteri (fun j _ -> not (List.mem j indices)) stream
  in
  let nth = List.nth stream in
  let stream' =
    match nth i with
    | Program.Read _ | Program.Write _ -> Some (remove [ i ])
    | Program.Lock l ->
        (* partner = first Unlock l after i (no re-acquire while held) *)
        let rec find j = function
          | [] -> None
          | Program.Unlock l' :: _ when l' = l && j > i -> Some j
          | _ :: tl -> find (j + 1) tl
        in
        Option.map (fun j -> remove [ i; j ]) (find 0 stream)
    | Program.Unlock l ->
        (* partner = last Lock l before i *)
        let rec find j best = function
          | [] -> best
          | Program.Lock l' :: tl when l' = l && j < i -> find (j + 1) (Some j) tl
          | _ :: tl -> find (j + 1) best tl
        in
        Option.map (fun j -> remove [ i; j ]) (find 0 None stream)
    | Program.Barrier -> None (* global: handled by merge_phase *)
  in
  Option.map
    (fun s ->
      let streams = Array.copy t.Program.streams in
      streams.(p) <- s;
      { t with Program.streams })
    stream'

let candidates (t : Program.t) =
  let nphases = Program.phases t in
  let procs =
    if t.Program.nprocs > 1 then List.init t.Program.nprocs (fun p () -> Some (drop_proc t p))
    else []
  in
  let phases = List.init (nphases + 1) (fun k () -> Some (drop_phase t k)) in
  let merges = List.init nphases (fun k () -> Some (merge_phase t k)) in
  let ops =
    List.concat
      (List.init t.Program.nprocs (fun p ->
           List.init (List.length t.Program.streams.(p)) (fun i () -> drop_op t p i)))
  in
  procs @ phases @ merges @ ops

(* Greedy minimization to a fixpoint: repeatedly try dropping a whole
   processor, a whole phase, a barrier (merging adjacent phases), or a
   single operation (with its matching lock partner), keeping any
   candidate on which [check] still reports an internal mismatch.
   Returns the minimized program and the number of successful shrink
   steps. Bounded by an evaluation budget, so it terminates even on
   pathological inputs. *)
let shrink ?backends ~runner (m : mismatch) =
  let still_fails p =
    try
      Program.validate p;
      match check ?backends ~runner p with Some mm -> shrinkable mm.kind | None -> false
    with Program.Invalid _ -> false
  in
  let budget = ref 500 in
  let current = ref m.program and steps = ref 0 in
  let progress = ref true in
  while !progress && !budget > 0 do
    progress := false;
    (try
       List.iter
         (fun cand ->
           if !budget > 0 then
             match cand () with
             | Some c when Program.size c < Program.size !current ->
                 decr budget;
                 if still_fails c then begin
                   current := c;
                   incr steps;
                   progress := true;
                   raise Exit
                 end
             | _ -> ())
         (candidates !current)
     with Exit -> ())
  done;
  (!current, !steps)

(* ------------------------------------------------------------------ *)
(* Fuzz loop *)

type report = {
  programs : int;
  events : int;
  planted : int;
  found : int;
  clean_programs : int;
  shrink_steps : int;
  mismatches : mismatch list;
  repro_files : string list;
}

let rec mkdir_p dir =
  if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ -> ()
  end

let fuzz ?(backends = Backends.all) ?(runner = driver_runner) ?repro_dir ~seed ~count
    ~shrink:do_shrink () =
  if backends = [] then invalid_arg "Harness.fuzz: no backend to check";
  let events = ref 0 and planted = ref 0 and found = ref 0 in
  let clean = ref 0 and shrink_steps = ref 0 in
  let mismatches = ref [] and repro_files = ref [] in
  for index = 0 to count - 1 do
    let g = Generator.generate_seeded ~seed ~index () in
    events := !events + Program.size g.Generator.program;
    planted := !planted + List.length g.Generator.racy;
    if g.Generator.racy = [] then incr clean;
    match check ~backends ~runner ~ground_truth:g.Generator.racy g.Generator.program with
    | None -> found := !found + List.length g.Generator.racy
    | Some m ->
        let m =
          if do_shrink && shrinkable m.kind then begin
            let minimized, steps = shrink ~backends ~runner m in
            shrink_steps := !shrink_steps + steps;
            { m with program = minimized }
          end
          else m
        in
        (match repro_dir with
        | Some dir ->
            mkdir_p dir;
            let path =
              Filename.concat dir
                (Printf.sprintf "%s-%s.trace" m.program.Program.name (kind_name m.kind))
            in
            Trace_file.write_file path m.program;
            repro_files := path :: !repro_files
        | None -> ());
        mismatches := m :: !mismatches
  done;
  {
    programs = count;
    events = !events;
    planted = !planted;
    found = !found;
    clean_programs = !clean;
    shrink_steps = !shrink_steps;
    mismatches = List.rev !mismatches;
    repro_files = List.rev !repro_files;
  }
