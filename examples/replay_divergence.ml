(* Record a lossy run, verify the pristine log replays cleanly, then
   flip a single wire-frame fate inside the log and watch the replay
   verifier pinpoint the first divergence — event index, expected vs.
   actual, and what every processor was last doing.

     dune exec examples/replay_divergence.exe
*)

let lossy =
  {
    Coherence.Config.default with
    Coherence.Config.fault = { Sim.Fault.none with Sim.Fault.drop = 0.2 };
    transport = Some Sim.Transport.default_config;
  }

let () =
  Format.printf "recording sor on 4 processors over a 20%%-drop wire...@.";
  let outcome, log =
    Core.Trace_run.record ~cfg:lossy ~app_name:"sor" ~scale:Apps.Registry.Small ~nprocs:4 ()
  in
  let decoded = Trace.Codec.decode log in
  Format.printf "  %d events, %d bytes, checksum %x@.@." decoded.Trace.Codec.count
    (String.length log) outcome.Core.Driver.mem_checksum;

  Format.printf "replaying the pristine log...@.";
  let clean = Core.Trace_run.replay log in
  Format.printf "  %s@.@."
    (if Core.Trace_run.clean clean then "verified: identical execution"
     else "UNEXPECTED divergence");

  (* Corrupt the log: find a frame the wire dropped and pretend it was
     delivered. The re-execution still drops it (the fault RNG is part
     of the replayed configuration), so the streams split right there.
     A decoded log keeps only bytes, so editing it starts from an array
     of its (time, event) records. *)
  let r = Trace.Codec.reader decoded in
  let events =
    Array.init decoded.Trace.Codec.count (fun _ ->
        let e = Trace.Codec.next r in
        (Trace.Codec.time r, e))
  in
  let mutated = ref None in
  Array.iteri
    (fun i (time, e) ->
      match (e, !mutated) with
      | Trace.Event.Fault f, None when f.outcome = Trace.Event.Dropped ->
          events.(i) <-
            ( time,
              Trace.Event.Fault
                { f with outcome = Trace.Event.Passed { copies = 1; extra_delay_ns = 0 } } );
          mutated := Some i
      | _ -> ())
    events;
  let k = match !mutated with Some k -> k | None -> failwith "no dropped frame in the log?" in
  Format.printf "flipping event %d from Dropped to Passed and replaying...@." k;
  let r = Core.Trace_run.replay (Trace.Codec.encode decoded.Trace.Codec.meta events) in
  match r.Core.Trace_run.rr_divergence with
  | Some d -> Format.printf "@.%a@." Trace.Replay.pp_divergence d
  | None -> Format.printf "UNEXPECTED: the edit went unnoticed@."
