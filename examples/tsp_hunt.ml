(* The TSP story from the paper, end to end.

   TSP deliberately reads the global tour bound without a lock: a stale
   bound only causes redundant search work, never a wrong answer, so the
   original authors left the read unsynchronized for speed. The detector
   flags it — dozens of read-write races, all on one word.

   This example then runs the paper's section 6.1 two-run identification:
   the first (detection) run records the lock-grant order; the second run
   repeats it with a watch on the racy address, mapping the races back to
   source sites. The simulation is deterministic and a watch costs no
   simulated time, so the second run grants every lock in the same order
   as the first; the example checks that it did.

     dune exec examples/tsp_hunt.exe
*)

let () =
  let app = Apps.Tsp.make Apps.Tsp.small_params in

  Format.printf "run 1: TSP on 4 processors with online detection@.";
  let cfg1 = { Coherence.Config.default with record_sync = true } in
  let run1 = Core.Driver.run ~cfg:cfg1 ~app ~nprocs:4 () in
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
  let run2 = Core.Driver.run ~cfg:cfg1 ~app ~nprocs:4 ~watch_addrs:racy () in
  if run2.Core.Driver.sync_trace <> run1.Core.Driver.sync_trace then begin
    Format.printf "run 2 left run 1's synchronization order@.";
    exit 1
  end;
  Format.printf "  identified source sites:@.";
  List.iter
    (fun hit -> Format.printf "    %a@." Instrument.Watch.pp_hit hit)
    run2.Core.Driver.watch_hits;
  Format.printf
    "@.The culprit is the unlocked pruning read (tsp:bound_prune) racing with@.";
  Format.printf "the locked update (tsp:bound_update) — benign by design.@."
