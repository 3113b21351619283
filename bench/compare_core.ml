(* The benchmark regression gate's decision logic, split from the CLI so
   the unit suite can drive it on synthetic runs.

   Sweep entries are matched on (app, scale, nprocs, detect, elide,
   protocol, backend) — [elide] defaults to false and [backend] to
   "lrc" when the field is absent, so baselines recorded before
   instrumentation elision or the cache-coherent backends existed still
   match; for every pair the gate checks that

     - wall-clock has not regressed by more than the threshold (default
       15%) — small absolute drifts under the noise floor (50 ms) never
       fail, so CI-sized runs are not flaky; [ignore_wall] skips this
       check entirely, for comparing two runs of the same build (e.g.
       --jobs 1 vs --jobs N, where wall-clock legitimately differs);
     - the run's observable outcome is unchanged: race count, memory
       checksum, simulated time and wire bytes must be equal, because
       the simulation is deterministic and any drift there is a behavior
       change, not noise.

   An entry present only in the current run is fine (the suite grew).
   An entry present only in the baseline FAILS the gate: a sweep point
   that silently disappears is exactly how a regression hides — the
   baseline must be regenerated deliberately, not eroded. *)

let noise_floor_s = 0.050

(* every further deterministic integer field a sweep entry may carry;
   compared exactly, but only when present in BOTH runs, so baselines
   recorded before a counter existed still gate the fields they have *)
let extra_fields =
  [
    "messages";
    "fragments";
    "read_notice_bytes";
    "bitmap_round_bytes";
    "diffs_created";
    "diffs_gced";
    "pages_fetched";
    "intervals_created";
    "interval_comparisons";
    "bitmaps_requested";
    "shared_reads";
    "shared_writes";
    "private_accesses";
    "lock_acquires";
    "barriers";
    "elided_checks";
    "bus_transactions";
    "bus_reads";
    "bus_read_x";
    "bus_upgrades";
    "bus_updates";
    "bus_writebacks";
    "bus_syncs";
    "bus_words";
    "cache_hits";
    "cache_misses";
    "cache_evictions";
    "invalidations";
    "updates_applied";
  ]

type entry = {
  key : string * string * int * bool * bool * string * string;
      (* app, scale, nprocs, detect, elide, protocol, backend *)
  wall_s : float;
  sim_time_ns : int;
  races : int;
  mem_checksum : int;
  bytes : int;
  extras : (string * int) list;
}

let entry_of_json v =
  let open Bench_json in
  {
    key =
      ( to_string_exn (member "app" v),
        to_string_exn (member "scale" v),
        to_int_exn (member "nprocs" v),
        to_bool_exn (member "detect" v),
        (match member "elide" v with Bool b -> b | _ -> false),
        to_string_exn (member "protocol" v),
        (match member "backend" v with String s -> s | _ -> "lrc") );
    wall_s = to_float_exn (member "wall_s" v);
    sim_time_ns = to_int_exn (member "sim_time_ns" v);
    races = to_int_exn (member "races" v);
    mem_checksum = to_int_exn (member "mem_checksum" v);
    bytes = to_int_exn (member "bytes" v);
    extras =
      List.filter_map
        (fun name ->
          match member name v with Int n -> Some (name, n) | _ -> None)
        extra_fields;
  }

let entries_of_json v =
  (match Bench_json.member "schema" v with
  | Bench_json.String "cvm-race-bench/1" -> ()
  | _ -> failwith "not a cvm-race-bench/1 file");
  Bench_json.to_list_exn (Bench_json.member "entries" v) |> List.map entry_of_json

let load path =
  try entries_of_json (Bench_json.of_file path) with
  | Failure msg -> failwith (Printf.sprintf "%s: %s" path msg)
  | Bench_json.Parse_error msg -> failwith (Printf.sprintf "%s: %s" path msg)
  | Sys_error msg -> failwith msg

let key_string (app, scale, nprocs, detect, elide, protocol, backend) =
  Printf.sprintf "%s/%s p=%d %s%s %s%s" app scale nprocs
    (if detect then "detect" else "no-detect")
    (if elide then "+elide" else "")
    protocol
    (if backend = "lrc" then "" else " " ^ backend)

type report = { lines : string list; compared : int; failures : int }

let passed r = r.compared > 0 && r.failures = 0

let compare_runs ?(threshold_pct = 15.0) ?(ignore_wall = false) ~baseline ~current () =
  let lines = ref [] and failures = ref 0 and compared = ref 0 in
  let emit fmt = Printf.ksprintf (fun s -> lines := s :: !lines) fmt in
  let fail fmt =
    Printf.ksprintf
      (fun s ->
        incr failures;
        lines := ("FAIL " ^ s) :: !lines)
      fmt
  in
  List.iter
    (fun cur ->
      match List.find_opt (fun b -> b.key = cur.key) baseline with
      | None -> emit "new  %s (not in baseline, skipped)" (key_string cur.key)
      | Some base ->
          incr compared;
          let name = key_string cur.key in
          if ignore_wall then
            emit "ok   %s: wall ignored (%.3fs -> %.3fs)" name base.wall_s cur.wall_s
          else begin
            let ratio = cur.wall_s /. Float.max base.wall_s 1e-9 in
            let regressed =
              cur.wall_s -. base.wall_s > noise_floor_s
              && ratio > 1.0 +. (threshold_pct /. 100.0)
            in
            if regressed then
              fail "%s: wall %.3fs -> %.3fs (%.0f%% > %.0f%% threshold)" name base.wall_s
                cur.wall_s
                ((ratio -. 1.0) *. 100.0)
                threshold_pct
            else
              emit "ok   %s: wall %.3fs -> %.3fs (%+.0f%%)" name base.wall_s cur.wall_s
                ((ratio -. 1.0) *. 100.0)
          end;
          if cur.races <> base.races then fail "%s: race count %d -> %d" name base.races cur.races;
          if cur.mem_checksum <> base.mem_checksum then
            fail "%s: memory checksum %d -> %d" name base.mem_checksum cur.mem_checksum;
          if cur.sim_time_ns <> base.sim_time_ns then
            fail "%s: simulated time %d -> %d ns" name base.sim_time_ns cur.sim_time_ns;
          if cur.bytes <> base.bytes then fail "%s: wire bytes %d -> %d" name base.bytes cur.bytes;
          (* every drifted counter gets its own line — one run of the
             gate should name the full extent of a divergence, not just
             its first symptom *)
          List.iter
            (fun (field, b) ->
              match List.assoc_opt field cur.extras with
              | Some c when c <> b -> fail "%s: %s %d -> %d" name field b c
              | _ -> ())
            base.extras)
    current;
  List.iter
    (fun base ->
      if not (List.exists (fun c -> c.key = base.key) current) then
        fail "%s: in baseline but missing from current run" (key_string base.key))
    baseline;
  { lines = List.rev !lines; compared = !compared; failures = !failures }
