(* False sharing versus true sharing — why the detector needs word-level
   bitmaps and how the page-overlap check winnows the work.

   Four processors update *different* words of the same page (false
   sharing at page granularity: the single-writer protocol ping-pongs the
   page like mad, yet there is no race). A fifth word is then updated by
   two processors without a lock (true sharing: a real race).

   The run shows the detector's funnel, as in the paper's Table 3:
   intervals compared -> concurrent pairs -> page-overlapping pairs ->
   bitmaps fetched -> races. Only the truly shared word survives the
   final bitmap comparison.

     dune exec examples/false_sharing.exe
*)

let () =
  let cluster = Backends.create ~nprocs:4 ~pages:4 () in
  let stripe = cluster.Coherence.Backend.alloc (4 * Mem.Page.word_size) in
  let hot = cluster.Coherence.Backend.alloc Mem.Page.word_size in
  let body node =
    let open Lrc.Dsm in
    barrier node;
    (* false sharing: disjoint words, same page, concurrent intervals *)
    for round = 1 to 3 do
      write_int_at node stripe (pid node) round ~site:"stripe"
    done;
    (* true sharing: processors 1 and 2 hit the same word, no lock *)
    if pid node = 1 || pid node = 2 then write_int node hot (pid node) ~site:"hot";
    barrier node
  in
  cluster.Coherence.Backend.run body;
  let stats = cluster.Coherence.Backend.stats in
  Format.printf "page ping-pong: %d ownership/copy fetches (false sharing is expensive!)@."
    stats.Sim.Stats.pages_fetched;
  Format.printf "detector funnel:@.";
  Format.printf "  version-vector comparisons . %d@." stats.Sim.Stats.interval_comparisons;
  Format.printf "  concurrent interval pairs .. %d@." stats.Sim.Stats.concurrent_pairs;
  Format.printf "  pairs with page overlap .... %d@." stats.Sim.Stats.overlapping_pairs;
  Format.printf "  bitmaps fetched ............ %d of %d@." stats.Sim.Stats.bitmaps_requested
    stats.Sim.Stats.bitmaps_total;
  Format.printf "  races ...................... %d@.@." stats.Sim.Stats.races_reported;
  List.iter (fun race -> Format.printf "  %a@." Proto.Race.pp race)
    (cluster.Coherence.Backend.races ());
  Format.printf "@.The striped words never appear: overlapping pages, disjoint bits.@."
