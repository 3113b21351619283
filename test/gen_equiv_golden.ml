(* Golden-file generator for the differential performance-equivalence
   suite. Runs every combo in [Equiv_combos.all] against the CURRENT
   library and records the observable outcome. The checked-in golden file
   (test/golden/perf_equiv.json) was generated from the pre-optimization
   protocol core, so the suite proves the optimized hot paths behaviorally
   identical to the implementation they replaced.

     dune exec test/gen_equiv_golden.exe -- [--jobs N] [OUT.json]

   Combos are independent simulation runs, so they fan out with
   Parallel.map ([--jobs], from 1 to Parallel.max_jobs); results come
   back and are written in combo order, so the file is identical
   whatever [--jobs] is (make check cmps a --jobs 1 and a --jobs 4 run
   against the checked-in golden).

   Regenerate only when a combo definition or an intended behavior change
   makes the old goldens stale — never to paper over a mismatch. *)

let () =
  let usage () =
    Printf.eprintf "usage: gen_equiv_golden.exe [--jobs N] [OUT.json], N from 1 to %d\n"
      Parallel.max_jobs;
    exit 2
  in
  let jobs = ref (Parallel.default_jobs ()) in
  let rec parse out = function
    | "--jobs" :: n :: rest ->
        (match int_of_string_opt n with
        | Some n when n >= 1 && n <= Parallel.max_jobs -> jobs := n
        | _ -> usage ());
        parse out rest
    | "--jobs" :: [] -> usage ()
    | path :: rest -> (
        match out with None -> parse (Some path) rest | Some _ -> usage ())
    | [] -> out
  in
  let out =
    match parse None (List.tl (Array.to_list Sys.argv)) with
    | None -> Equiv_combos.golden_path
    | Some path -> path
  in
  let combos = Equiv_combos.all in
  Printf.printf "running %d combos on %d domain(s)...\n%!" (List.length combos) !jobs;
  let results = Parallel.map ~jobs:!jobs Equiv_combos.run combos in
  let entries =
    List.map2
      (fun (combo : Equiv_combos.combo) (result : Equiv_combos.result) ->
        Printf.printf "  %-24s %d race(s), checksum %d\n%!" combo.Equiv_combos.label
          (List.length result.Equiv_combos.races)
          result.Equiv_combos.mem_checksum;
        Bench_json.Obj
          [
            ("label", Bench_json.String combo.Equiv_combos.label);
            ("result", Equiv_combos.result_to_json result);
          ])
      combos results
  in
  Bench_json.to_file out
    (Bench_json.Obj
       [
         ("schema", Bench_json.String "cvm-race-equiv/1");
         ("combos", Bench_json.List entries);
       ]);
  Printf.printf "wrote %s\n" out
