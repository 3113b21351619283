(* The deterministic combo space behind the differential performance-
   equivalence suite.

   [all] enumerates (app, nprocs, protocol, detection flags, fault plan,
   seed) combinations, each cheap at the Small input scale. The golden
   generator ([gen_equiv_golden.exe]) runs every combo and records the
   observable outcome; the test suite ([suite_perf_equiv.ml]) re-runs
   randomly sampled combos and compares. Because both sides resolve a
   combo by its [label], the combo list can grow without invalidating old
   goldens — but editing an existing combo's definition requires
   regenerating the golden file (see docs/BENCH.md).

   The recorded outcome is everything the optimization must not change:
   the full race set (canonically ordered), the final memory checksum,
   simulated time, and the wire byte/message totals; bus combos also
   record their bus and cache counters. *)

type combo = { label : string; app : string; nprocs : int; cfg : Coherence.Config.t }

let protocols =
  [
    ("sw", Coherence.Config.Single_writer);
    ("mw", Coherence.Config.Multi_writer);
    ("hb", Coherence.Config.Home_based);
  ]

let faulty drop =
  {
    Sim.Fault.none with
    Sim.Fault.drop;
    duplicate = drop /. 4.0;
    reorder = drop /. 2.0;
  }

let all : combo list =
  let base =
    (* every app under every protocol at two system sizes, default flags *)
    List.concat_map
      (fun app ->
        List.concat_map
          (fun (ptag, protocol) ->
            List.map
              (fun nprocs ->
                {
                  label = Printf.sprintf "%s-%s-p%d" app ptag nprocs;
                  app;
                  nprocs;
                  cfg = { Coherence.Config.default with Coherence.Config.protocol };
                })
              [ 4; 8 ])
          protocols)
      Apps.Registry.extended_names
  in
  let flag_variants =
    (* detection-mode switches the optimization touches *)
    List.concat_map
      (fun app ->
        [
          {
            label = Printf.sprintf "%s-mw-diffs-p4" app;
            app;
            nprocs = 4;
            cfg =
              {
                Coherence.Config.default with
                Coherence.Config.protocol = Coherence.Config.Multi_writer;
                stores_from_diffs = true;
              };
          };
          {
            label = Printf.sprintf "%s-first-race-p4" app;
            app;
            nprocs = 4;
            cfg = { Coherence.Config.default with Coherence.Config.first_race_only = true };
          };
          {
            label = Printf.sprintf "%s-sites-p4" app;
            app;
            nprocs = 4;
            cfg = { Coherence.Config.default with Coherence.Config.retain_sites = true };
          };
          {
            label = Printf.sprintf "%s-nodetect-p4" app;
            app;
            nprocs = 4;
            cfg = { Coherence.Config.default with Coherence.Config.detect = false };
          };
        ])
      Apps.Registry.all_names
  in
  let fault_variants =
    (* lossy wire behind the reliable transport, two loss rates, two
       network seeds: exercises retransmission interleavings *)
    List.concat_map
      (fun app ->
        List.concat_map
          (fun (dtag, drop) ->
            List.map
              (fun net_seed ->
                {
                  label = Printf.sprintf "%s-%s-net%d-p4" app dtag net_seed;
                  app;
                  nprocs = 4;
                  cfg =
                    {
                      Coherence.Config.default with
                      Coherence.Config.fault = faulty drop;
                      transport = Some Sim.Transport.default_config;
                      seed = net_seed;
                    };
                })
              [ 7; 1312 ])
          [ ("drop05", 0.05); ("drop20", 0.2) ])
      [ "sor"; "water"; "tsp" ]
  in
  let seed_variants =
    (* the seed roots only the fault plan's RNG, so with no faults it is
       inert: these combos pin each lock-heavy app's outcome equal to its
       default-seed twin (tsp-sw-p8, water-sw-p8) *)
    List.concat_map
      (fun app ->
        List.map
          (fun seed ->
            {
              label = Printf.sprintf "%s-seed%d-p8" app seed;
              app;
              nprocs = 8;
              cfg = { Coherence.Config.default with Coherence.Config.seed };
            })
          [ 1; 99 ])
      [ "tsp"; "water" ]
  in
  let wide_variants =
    (* wide barriers: the master's detection work (check list, bitmap
       requests to every process) grows with the processor count, so the
       p4/p8 grid alone under-covers it *)
    let combo app ptag protocol nprocs =
      {
        label = Printf.sprintf "%s-%s-p%d" app ptag nprocs;
        app;
        nprocs;
        cfg = { Coherence.Config.default with Coherence.Config.protocol };
      }
    in
    List.concat_map
      (fun app ->
        List.map (combo app "sw" Coherence.Config.Single_writer) [ 16; 32 ])
      [ "water"; "tsp"; "lu" ]
    @ [
        combo "water" "mw" Coherence.Config.Multi_writer 32;
        combo "water" "hb" Coherence.Config.Home_based 32;
      ]
  in
  let bus_variants =
    (* the snooping-bus machine: both protocols on every app at two
       sizes (at the one cache geometry water evicts and writes back
       dirty lines by the hundred; only tsp p8 evicts otherwise, a few
       lines), and the detection switches *)
    let combo ?(tag = "") ?(nprocs = 4) app backend cfg =
      {
        label = Printf.sprintf "%s-%s%s-p%d" app backend tag nprocs;
        app;
        nprocs;
        cfg = { cfg with Coherence.Config.backend };
      }
    in
    let default = Coherence.Config.default in
    List.concat_map
      (fun backend ->
        List.concat_map
          (fun app ->
            [ combo app backend default; combo ~nprocs:8 app backend default ])
          Apps.Registry.extended_names
        @ [
            combo ~tag:"-nodetect" "water" backend
              { default with Coherence.Config.detect = false };
            combo ~tag:"-elide" "water" backend
              { default with Coherence.Config.elide_sites = Some [] };
          ])
      [ "mesi"; "dragon" ]
  in
  base @ flag_variants @ fault_variants @ seed_variants @ wide_variants @ bus_variants

let find label = List.find_opt (fun c -> c.label = label) all

(* ------------------------------------------------------------------ *)

type cc_counts = {
  bus_transactions : int;
  bus_words : int;
  cache_hits : int;
  cache_misses : int;
  cache_evictions : int;
  invalidations : int;
  updates_applied : int;
}

type result = {
  races : string list;  (* canonical race strings, sorted *)
  mem_checksum : int;
  sim_time_ns : int;
  messages : int;
  bytes : int;
  read_notice_bytes : int;
  bitmap_round_bytes : int;
  cc : cc_counts option;  (* bus combos only, so LRC entries keep their shape *)
}

let race_string (r : Proto.Race.t) =
  let id_string (id : Proto.Interval.id) =
    Printf.sprintf "%d.%d" id.Proto.Interval.proc id.Proto.Interval.index
  in
  let kind_string = function Proto.Race.Read -> "r" | Proto.Race.Write -> "w" in
  Printf.sprintf "0x%x@e%d:%s%s-%s%s" r.Proto.Race.addr r.Proto.Race.epoch
    (id_string (fst r.Proto.Race.first))
    (kind_string (snd r.Proto.Race.first))
    (id_string (fst r.Proto.Race.second))
    (kind_string (snd r.Proto.Race.second))

let run (combo : combo) : result =
  let app = Apps.Registry.make ~scale:Apps.Registry.Small combo.app in
  let outcome = Core.Driver.run ~cfg:combo.cfg ~app ~nprocs:combo.nprocs () in
  let stats = outcome.Core.Driver.stats in
  {
    races =
      Proto.Race.dedup outcome.Core.Driver.races |> List.map race_string |> List.sort compare;
    mem_checksum = outcome.Core.Driver.mem_checksum;
    sim_time_ns = outcome.Core.Driver.sim_time_ns;
    messages = stats.Sim.Stats.messages;
    bytes = stats.Sim.Stats.bytes;
    read_notice_bytes = stats.Sim.Stats.read_notice_bytes;
    bitmap_round_bytes = stats.Sim.Stats.bitmap_round_bytes;
    cc =
      (if combo.cfg.Coherence.Config.backend = "lrc" then None
       else
         Some
           {
             bus_transactions = stats.Sim.Stats.bus_transactions;
             bus_words = stats.Sim.Stats.bus_words;
             cache_hits = stats.Sim.Stats.cache_hits;
             cache_misses = stats.Sim.Stats.cache_misses;
             cache_evictions = stats.Sim.Stats.cache_evictions;
             invalidations = stats.Sim.Stats.invalidations;
             updates_applied = stats.Sim.Stats.updates_applied;
           });
  }

let cc_fields (c : cc_counts) =
  [
    ("bus_transactions", c.bus_transactions);
    ("bus_words", c.bus_words);
    ("cache_hits", c.cache_hits);
    ("cache_misses", c.cache_misses);
    ("cache_evictions", c.cache_evictions);
    ("invalidations", c.invalidations);
    ("updates_applied", c.updates_applied);
  ]

let result_to_json (r : result) =
  let open Bench_json in
  Obj
    ([
       ("races", List (List.map (fun s -> String s) r.races));
       ("mem_checksum", Int r.mem_checksum);
       ("sim_time_ns", Int r.sim_time_ns);
       ("messages", Int r.messages);
       ("bytes", Int r.bytes);
       ("read_notice_bytes", Int r.read_notice_bytes);
       ("bitmap_round_bytes", Int r.bitmap_round_bytes);
     ]
    @
    match r.cc with
    | None -> []
    | Some c -> List.map (fun (name, n) -> (name, Int n)) (cc_fields c))

let result_of_json v =
  let open Bench_json in
  let int name = to_int_exn (member name v) in
  {
    races = to_list_exn (member "races" v) |> List.map to_string_exn;
    mem_checksum = int "mem_checksum";
    sim_time_ns = int "sim_time_ns";
    messages = int "messages";
    bytes = int "bytes";
    read_notice_bytes = int "read_notice_bytes";
    bitmap_round_bytes = int "bitmap_round_bytes";
    cc =
      (match member "bus_transactions" v with
      | Null -> None
      | _ ->
          Some
            {
              bus_transactions = int "bus_transactions";
              bus_words = int "bus_words";
              cache_hits = int "cache_hits";
              cache_misses = int "cache_misses";
              cache_evictions = int "cache_evictions";
              invalidations = int "invalidations";
              updates_applied = int "updates_applied";
            });
  }

let pp_result ppf (r : result) =
  Format.fprintf ppf
    "@[<v>races: [%s]@ mem_checksum: %d@ sim_time_ns: %d@ messages: %d@ bytes: %d@ \
     read_notice_bytes: %d@ bitmap_round_bytes: %d"
    (String.concat "; " r.races)
    r.mem_checksum r.sim_time_ns r.messages r.bytes r.read_notice_bytes r.bitmap_round_bytes;
  Option.iter
    (fun c -> List.iter (fun (name, n) -> Format.fprintf ppf "@ %s: %d" name n) (cc_fields c))
    r.cc;
  Format.fprintf ppf "@]"

let golden_path = "test/golden/perf_equiv.json"

let load_golden path =
  let v = Bench_json.of_file path in
  (match Bench_json.member "schema" v with
  | Bench_json.String "cvm-race-equiv/1" -> ()
  | _ -> failwith (Printf.sprintf "%s: not a cvm-race-equiv/1 file" path));
  Bench_json.to_list_exn (Bench_json.member "combos" v)
  |> List.map (fun entry ->
         ( Bench_json.to_string_exn (Bench_json.member "label" entry),
           result_of_json (Bench_json.member "result" entry) ))
