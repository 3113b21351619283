(* The TSP story from the paper, end to end.

   TSP deliberately reads the global tour bound without a lock: a stale
   bound only causes redundant search work, never a wrong answer, so the
   original authors left the read unsynchronized for speed. The detector
   flags it — dozens of read-write races, all on one word.

   This example then runs the paper's section 6.1 two-run identification:
   the first (detection) run is recorded; the second replays its log with
   a watch on the racy address, mapping the races back to source sites.
   The simulation is deterministic and a watch costs no simulated time,
   so the replay repeats the first run event for event; the replay
   verifier checks that it did.

     dune exec examples/tsp_hunt.exe
*)

let () =
  Format.printf "run 1: TSP on 4 processors with online detection@.";
  let run1, run2 = Core.Trace_run.hunt ~app_name:"tsp" ~scale:Apps.Registry.Small ~nprocs:4 () in
  let racy = Core.Driver.racy_addrs run1 in
  Format.printf "  %d race reports, all on %d distinct word(s)@."
    (List.length run1.Core.Driver.races)
    (List.length racy);
  List.iter (fun addr -> Format.printf "  racy word: 0x%08x (the global bound)@." addr) racy;

  (* Every report pairs an unsynchronized READ with a locked WRITE: *)
  let write_write = List.filter Proto.Race.is_write_write run1.Core.Driver.races in
  Format.printf "  write-write races: %d (bound updates themselves are locked)@."
    (List.length write_write);

  Format.printf "@.run 2: re-run with a watch on the bound@.";
  let run2 = Option.get run2 in
  if not (Core.Trace_run.clean run2) then begin
    Format.printf "run 2 did not replay run 1@.";
    exit 1
  end;
  Format.printf "  identified source sites:@.";
  List.iter
    (fun hit -> Format.printf "    %a@." Instrument.Watch.pp_hit hit)
    run2.Core.Trace_run.rr_outcome.Core.Driver.watch_hits;
  Format.printf
    "@.The culprit is the unlocked pruning read (tsp:bound_prune) racing with@.";
  Format.printf "the locked update (tsp:bound_update) — benign by design.@."
