(* Figure 5 of the paper, live: races that only occur on a weak memory
   system.

   P1 fills a queue slot and updates qPtr and qEmpty — but the release is
   missing. P2 polls qEmpty, then reads qPtr and writes into "its" slots.
   P3 concurrently writes slots 37..40.

   Under LRC, nothing invalidates P2's cached copy of qPtr's page, so P2
   reads the STALE pointer (37) and its writes collide with P3's: races
   on slot[37] and slot[38] that a sequentially consistent machine could
   never produce (if qEmpty's new value reached P2, qPtr's must have
   too). Run the same program on the mesi snooping bus, a sequentially
   consistent machine, and the slot races vanish.

     dune exec examples/weak_memory.exe
*)

let describe (result : Core.Experiments.figure5_result) =
  Format.printf "%s:@." result.Core.Experiments.f5_protocol;
  Format.printf "  P2 dequeued through qPtr = %d@." result.Core.Experiments.f5_qptr_seen_by_p2;
  Format.printf "  racy words: %s@.@."
    (String.concat ", " (List.map snd result.Core.Experiments.f5_racy_words))

let () =
  Format.printf "--- the missing-release queue of section 6.4 ---@.@.";
  describe (Core.Experiments.figure5 ());
  describe (Core.Experiments.figure5 ~backend:"mesi" ());
  Format.printf "Both runs race on qPtr and qEmpty (the missing synchronization).@.";
  Format.printf "Only the weak-memory run races on the slots: P2 acted on a stale@.";
  Format.printf "pointer that a sequentially consistent system could never show it.@."
