(* Render a run's synchronization structure as a text timeline — the
   executable version of the paper's Figure 2: intervals are the spans
   between synchronization events, and the detector's whole job is
   deciding which of them are concurrent.

     dune exec examples/timeline.exe
*)

let () =
  let cfg = { Coherence.Config.default with Coherence.Config.record_trace = true } in
  let cluster = Backends.create ~cfg ~nprocs:3 ~pages:4 () in
  let x = cluster.Coherence.Backend.alloc 8 ~name:"x" in
  let sum = cluster.Coherence.Backend.alloc 8 ~name:"sum" in
  let body node =
    let open Lrc.Dsm in
    barrier node;
    (* a small lock-structured phase, like Figure 2's execution *)
    for _ = 1 to 2 do
      with_lock node 1 (fun () ->
          let v = read_int node sum in
          compute node 40_000.0;
          write_int node sum (v + 1))
    done;
    if pid node = 0 then write_int node x 7 (* unsynchronized *);
    if pid node = 2 then ignore (read_int node x) (* races with p0 *);
    barrier node
  in
  cluster.Coherence.Backend.run body;
  Core.Timeline.render Format.std_formatter ~nprocs:3
    (cluster.Coherence.Backend.timed_trace ());
  Format.printf "@.";
  Core.Report.races ~symtab:cluster.Coherence.Backend.symtab Format.std_formatter
    (cluster.Coherence.Backend.races ())
