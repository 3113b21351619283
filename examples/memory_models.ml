(* Explore the memory model itself: classic litmus tests over the DSM.

   The same five shapes run under lazy release consistency (the paper's
   model) and on the mesi snooping bus, a sequentially consistent
   machine; the difference in observable outcomes is exactly the
   section 6.4 story — LRC admits outcomes SC forbids whenever
   synchronization is missing, and proper locking makes them vanish.

     dune exec examples/memory_models.exe
*)

let show label ?backend ?protocol () =
  Format.printf "--- %s ---@." label;
  List.iter
    (fun test ->
      let outcomes = Litmus.explore ?backend ?protocol test in
      Format.printf "  %-16s %s@." test.Litmus.name
        (String.concat "  |  "
           (List.map
              (fun registers ->
                String.concat ","
                  (List.map (fun (r, v) -> Printf.sprintf "%s=%d" r v) registers))
              outcomes)))
    Litmus.all;
  Format.printf "@."

let () =
  show "single-writer" ~protocol:Coherence.Config.Single_writer ();
  show "sequential-consistency" ~backend:"mesi" ();
  Format.printf "Note how MP+late-publish shows r1=1,r2=0 only under LRC: the x-write@.";
  Format.printf "travelled with no write notice, so the reader's cached page stayed@.";
  Format.printf "stale — the same mechanism behind the paper's Figure 5.@."
