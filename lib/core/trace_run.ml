(* Record/replay orchestration.

   [record] runs an application with a trace recorder plugged into the
   cluster and returns the outcome together with the binary log.
   [replay] rebuilds the exact configuration from a log's metadata, runs
   the application again with a verifier sink, and reports either a
   clean match or the first divergence. Because the whole simulation is
   deterministic given (app, scale, nprocs, config, seeds), a pristine
   log must verify cleanly; any mismatch means the log was edited, the
   code changed, or determinism broke — all three are exactly what this
   exists to catch. *)

let scale_of_name = Apps.Registry.scale_of_name

let meta_of ~app_name ~scale ~nprocs (cfg : Coherence.Config.t) : Trace.Codec.meta =
  let fault = cfg.Coherence.Config.fault in
  {
    Trace.Codec.m_app = app_name;
    m_scale = Apps.Registry.scale_name scale;
    m_nprocs = nprocs;
    m_protocol = Coherence.Config.protocol_name cfg.Coherence.Config.protocol;
    m_detect = cfg.Coherence.Config.detect;
    m_first_race_only = cfg.Coherence.Config.first_race_only;
    m_stores_from_diffs = cfg.Coherence.Config.stores_from_diffs;
    m_seed = cfg.Coherence.Config.seed;
    m_drop = fault.Sim.Fault.drop;
    m_dup = fault.Sim.Fault.duplicate;
    m_reorder = fault.Sim.Fault.reorder;
    m_partitions =
      List.map
        (fun (p : Sim.Fault.partition) ->
          (p.Sim.Fault.p_a, p.Sim.Fault.p_b, p.Sim.Fault.p_from_ns, p.Sim.Fault.p_until_ns))
        fault.Sim.Fault.partitions;
    m_transport =
      Option.map
        (fun (tc : Sim.Transport.config) -> tc.Sim.Transport.max_retries)
        cfg.Coherence.Config.transport;
    m_gc_epochs = cfg.Coherence.Config.gc_epochs;
    (* only the flag travels in the log; the site set is re-derived from
       the app's binary at replay (it is a pure function of the binary) *)
    m_elide = cfg.Coherence.Config.elide_sites <> None;
    m_backend = cfg.Coherence.Config.backend;
  }

(* A log's metadata is checked before anything is built from it: a
   forged field ends in [Corrupt] (exit 3) instead of an exception from
   deep inside a constructor, or an allocation sized by a forged
   processor count. The names are checked here; the configuration they
   describe, by Coherence.Config.check. *)
let config_of_meta (m : Trace.Codec.meta) : Coherence.Config.t =
  let bad fmt = Printf.ksprintf (fun s -> raise (Trace.Codec.Corrupt ("metadata: " ^ s))) fmt in
  let known what names name = if not (List.mem name names) then bad "unknown %s %S" what name in
  known "application" Apps.Registry.extended_names (String.lowercase_ascii m.m_app);
  known "scale" Apps.Registry.(List.map scale_name [ Paper; Small; Large ]) m.m_scale;
  known "protocol"
    Coherence.Config.(List.map protocol_name [ Single_writer; Multi_writer; Home_based ])
    m.m_protocol;
  known "backend" Backends.all m.m_backend;
  let cfg =
    {
      Coherence.Config.default with
      Coherence.Config.protocol = Coherence.Config.protocol_of_name m.m_protocol;
      detect = m.m_detect;
      first_race_only = m.m_first_race_only;
      stores_from_diffs = m.m_stores_from_diffs;
      seed = m.m_seed;
      fault =
        {
          Sim.Fault.drop = m.m_drop;
          duplicate = m.m_dup;
          reorder = m.m_reorder;
          partitions =
            List.map
              (fun (p_a, p_b, p_from_ns, p_until_ns) ->
                { Sim.Fault.p_a; p_b; p_from_ns; p_until_ns })
              m.m_partitions;
        };
      transport = Option.map (fun max_retries -> { Sim.Transport.max_retries }) m.m_transport;
      gc_epochs = m.m_gc_epochs;
      elide_sites = (if m.m_elide then Some [] else None);
      backend = m.m_backend;
    }
  in
  match Coherence.Config.check ~nprocs:m.m_nprocs cfg with
  | cfg -> cfg
  | exception Invalid_argument msg -> bad "%s" msg

let decode log =
  let decoded = Trace.Codec.decode log in
  (decoded, config_of_meta decoded.Trace.Codec.meta)

let run_recorded ?(cfg = Coherence.Config.default) ~app_name ~scale ~nprocs () =
  let app = Apps.Registry.make ~scale app_name in
  let meta = meta_of ~app_name ~scale ~nprocs cfg in
  let recorder = Trace.Sink.recorder meta in
  let cfg = { cfg with Coherence.Config.tracer = Some (Trace.Sink.sink recorder) } in
  (Driver.run ~cfg ~app ~nprocs (), recorder)

let record ?cfg ~app_name ~scale ~nprocs () =
  let outcome, recorder = run_recorded ?cfg ~app_name ~scale ~nprocs () in
  (outcome, Trace.Sink.contents recorder)

type replay_result = {
  rr_meta : Trace.Codec.meta;
  rr_outcome : Driver.outcome;
  rr_divergence : Trace.Replay.divergence option;
  rr_races_match : bool;  (* live race set = the log's Race events *)
  rr_checksum_match : bool;  (* live memory checksum = the log's Run_end *)
}

let clean r = r.rr_divergence = None && r.rr_races_match && r.rr_checksum_match

let replay ?watch_addrs log =
  let decoded, cfg = decode log in
  let m = decoded.Trace.Codec.meta in
  let app = Apps.Registry.make ~scale:(scale_of_name m.Trace.Codec.m_scale) m.Trace.Codec.m_app in
  let verifier = Trace.Replay.create decoded in
  let cfg = { cfg with Coherence.Config.tracer = Some (Trace.Replay.sink verifier) } in
  let outcome = Driver.run ~cfg ?watch_addrs ~app ~nprocs:m.Trace.Codec.m_nprocs () in
  let divergence = Trace.Replay.finish verifier in
  let log_races = Trace.Replay.races_of_log decoded in
  let races_match =
    List.length log_races = List.length outcome.Driver.races
    && List.for_all2 Proto.Race.equal log_races
         (Proto.Race.dedup outcome.Driver.races)
  in
  let checksum_match =
    match Trace.Replay.checksum_of_log decoded with
    | Some c -> c = outcome.Driver.mem_checksum
    | None -> false
  in
  {
    rr_meta = m;
    rr_outcome = outcome;
    rr_divergence = divergence;
    rr_races_match = races_match;
    rr_checksum_match = checksum_match;
  }

let hunt ~app_name ~scale ~nprocs () =
  let run1, log = record ~app_name ~scale ~nprocs () in
  match Driver.racy_addrs run1 with
  | [] -> (run1, None)
  | racy -> (run1, Some (replay ~watch_addrs:racy log))

(* Opening names the path in its error; reading (a directory, say) does
   not. *)
let load path =
  In_channel.with_open_bin path (fun ic ->
      try In_channel.input_all ic with Sys_error msg -> raise (Sys_error (path ^ ": " ^ msg)))
