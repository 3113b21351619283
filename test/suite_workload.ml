(* The adversarial workload frontier: trace-file frontend, seeded
   generator with by-construction ground truth, and the differential
   fuzzing harness (detector vs oracle vs ground truth, across every
   backend, with and without elision).

   The checked-in regression corpus under corpus/ replays on every
   `dune runtest`: each file must be internally consistent on every
   backend AND match its pinned racy set, so a detector regression a
   past fuzz run caught can never come back silently. *)

let check = Alcotest.check

let word_list = Alcotest.list Alcotest.int

let program name nprocs words streams =
  { Workload.Program.name; nprocs; words; streams = Array.of_list streams }

let roundtrips p =
  Workload.Program.equal p
    (Workload.Trace_file.parse_string (Workload.Trace_file.to_string p))

(* ------------------------------------------------------------------ *)
(* Program representation and validation *)

let test_validate_rejects () =
  let open Workload.Program in
  let expect_invalid label p =
    match validate p with
    | () -> Alcotest.failf "%s: validate accepted an invalid program" label
    | exception Invalid _ -> ()
  in
  expect_invalid "stream count" (program "t" 2 1 [ [ Read 0 ] ]);
  expect_invalid "word range" (program "t" 1 2 [ [ Write 2 ] ]);
  expect_invalid "unbalanced barriers" (program "t" 2 1 [ [ Barrier ]; [] ]);
  expect_invalid "re-acquire" (program "t" 1 1 [ [ Lock 0; Lock 0; Unlock 0; Unlock 0 ] ]);
  expect_invalid "unlock not held" (program "t" 1 1 [ [ Unlock 0 ] ]);
  expect_invalid "lock across barrier" (program "t" 1 1 [ [ Lock 0; Barrier; Unlock 0 ] ]);
  expect_invalid "lock past stream end" (program "t" 1 1 [ [ Lock 0 ] ]);
  expect_invalid "too many procs" (program "t" (Coherence.Config.max_procs + 1) 1 []);
  expect_invalid "too many words" (program "t" 1 (max_words + 1) [ [] ]);
  (* and the well-formed shapes pass *)
  validate (program "t" 2 2 [ [ Lock 0; Write 0; Unlock 0; Barrier ]; [ Read 1; Barrier ] ])

let test_program_measures () =
  let open Workload.Program in
  let p =
    program "t" 2 2 [ [ Lock 0; Write 0; Unlock 0; Barrier; Read 1 ]; [ Barrier; Write 1 ] ]
  in
  check Alcotest.int "size counts every event" 7 (size p);
  check Alcotest.int "phases = barriers per stream" 1 (phases p);
  check
    Alcotest.(list (pair int int))
    "accesses in stream order"
    [ (0, 1); (0, 4); (1, 1) ]
    (List.map (fun (p, i, _, _) -> (p, i)) (accesses p))

(* ------------------------------------------------------------------ *)
(* Trace-file frontend *)

let test_trace_parse_basic () =
  let p =
    Workload.Trace_file.parse_string
      "# comment\nname demo\nprocs 2\nwords 3\n0 w 0\n1 r 2\nb\n0 l 1\n0 w 1\n0 u 1\n"
  in
  check Alcotest.string "name directive" "demo" p.Workload.Program.name;
  check Alcotest.int "procs" 2 p.Workload.Program.nprocs;
  check Alcotest.int "words" 3 p.Workload.Program.words;
  check Alcotest.int "bare b reaches every stream" 1 (Workload.Program.phases p);
  check Alcotest.int "events" 7 (Workload.Program.size p)

let test_trace_parse_errors () =
  let expect_error label ~line text =
    match Workload.Trace_file.parse_string text with
    | _ -> Alcotest.failf "%s: parse accepted bad input" label
    | exception Workload.Trace_file.Parse_error e ->
        check Alcotest.int (label ^ ": error line") line e.line
  in
  expect_error "event before procs" ~line:1 "0 w 0\n";
  expect_error "missing words" ~line:2 "procs 2\n0 w 0\n";
  expect_error "bad op" ~line:3 "procs 2\nwords 1\n0 x 0\n";
  expect_error "proc out of range" ~line:3 "procs 2\nwords 1\n2 w 0\n";
  expect_error "non-integer" ~line:3 "procs 2\nwords 1\n0 w zero\n";
  expect_error "malformed line" ~line:3 "procs 2\nwords 1\n0 w\n";
  expect_error "duplicate procs" ~line:2 "procs 2\nprocs 2\n";
  (* whole-file failures blame the last line carrying a token, never a
     nonexistent "line 0" *)
  expect_error "lock discipline" ~line:3 "procs 1\nwords 1\n0 u 0\n";
  expect_error "missing procs entirely" ~line:1 "words 1\n";
  expect_error "missing words, trailing blanks skipped" ~line:1 "procs 2\n\n\n";
  expect_error "empty file" ~line:1 "";
  (* a validation failure names the program it rejects *)
  (match Workload.Trace_file.parse_string ~name:"fallback" "name held\nprocs 1\nwords 1\n0 l 0\n" with
  | _ -> Alcotest.fail "lock held past stream end accepted"
  | exception Workload.Trace_file.Parse_error e ->
      check Alcotest.int "validation failure blames the last line" 4 e.line;
      check Alcotest.bool
        (Printf.sprintf "validation message %S names the program" e.msg)
        true
        (String.length e.msg >= 4 && String.sub e.msg 0 4 = "held"))

let test_trace_name_forms () =
  let parse = Workload.Trace_file.parse_string in
  let name_of text = (parse text).Workload.Program.name in
  let header = "procs 1\nwords 1\n" in
  check Alcotest.string "unquoted name takes the rest of the line" "two words"
    (name_of ("name two words\n" ^ header));
  check Alcotest.string "unquoted name stops at a comment" "demo"
    (name_of ("name demo # the demo trace\n" ^ header));
  check Alcotest.string "quoted name keeps a hash" "demo #3"
    (name_of ("name \"demo #3\"\n" ^ header));
  check Alcotest.string "quoted name keeps boundary spaces" " padded "
    (name_of ("name \" padded \"\n" ^ header));
  check Alcotest.string "quoted escapes decode" "a\"b\\c\nd\te"
    (name_of ("name \"a\\\"b\\\\c\\nd\\te\"\n" ^ header));
  check Alcotest.string "comment allowed after quoted name" "q"
    (name_of ("name \"q\" # ok\n" ^ header));
  let expect_error label text =
    match parse text with
    | _ -> Alcotest.failf "%s: parse accepted bad input" label
    | exception Workload.Trace_file.Parse_error e ->
        check Alcotest.int (label ^ ": error on the name line") 1 e.line
  in
  expect_error "bare name directive" ("name\n" ^ header);
  expect_error "comment-only name" ("name # nothing\n" ^ header);
  expect_error "unterminated quote" ("name \"open\n" ^ header);
  expect_error "dangling escape" ("name \"tail\\\n" ^ header);
  expect_error "unknown escape" ("name \"a\\qb\"\n" ^ header);
  expect_error "junk after quoted name" ("name \"q\" junk\n" ^ header)

(* The procs/words limits are checked on the directive line itself, so a
   huge count ends in a line-numbered Parse_error before anything is
   allocated for it. *)
let test_trace_directive_limits () =
  let expect_error label ~line text =
    match Workload.Trace_file.parse_string text with
    | _ -> Alcotest.failf "%s: parse accepted %S" label text
    | exception Workload.Trace_file.Parse_error e ->
        check Alcotest.int (label ^ ": error line") line e.line
  in
  expect_error "procs max_int" ~line:1 "procs 4611686018427387903\nwords 1\n0 w 0\n";
  expect_error "procs 10^8" ~line:1 "procs 100000000\nwords 1\n0 w 0\n";
  expect_error "words max_int" ~line:2 "procs 1\nwords 4611686018427387903\n0 w 0\n";
  expect_error "one past the procs limit" ~line:1
    (Printf.sprintf "procs %d\nwords 1\n" (Coherence.Config.max_procs + 1));
  expect_error "one past the words limit" ~line:2
    (Printf.sprintf "procs 1\nwords %d\n" (Workload.Program.max_words + 1));
  let p =
    Workload.Trace_file.parse_string
      (Printf.sprintf "procs %d\nwords %d\n0 w 0\n" Coherence.Config.max_procs
         Workload.Program.max_words)
  in
  check Alcotest.int "both limits themselves parse" Coherence.Config.max_procs
    p.Workload.Program.nprocs

let corpus_dir () = if Sys.file_exists "corpus" then "corpus" else "test/corpus"

let corpus_texts =
  lazy
    (let dir = corpus_dir () in
     Sys.readdir dir |> Array.to_list
     |> List.filter (fun f -> Filename.check_suffix f ".trace")
     |> List.sort compare
     |> List.map (fun f -> In_channel.with_open_bin (Filename.concat dir f) In_channel.input_all))

let prop_damaged_trace_parses_or_fails_cleanly =
  (* damage a corpus file: truncate it, flip bits of one byte, or append
     random bytes — parsing succeeds or raises Parse_error, never
     anything else *)
  let damage =
    QCheck.Gen.(
      oneof
        [
          map (fun at -> `Truncate at) (int_bound 1_000_000);
          map2 (fun at bits -> `Flip (at, bits)) (int_bound 1_000_000) (int_range 1 255);
          map (fun tail -> `Tail tail) (string_size ~gen:char (int_range 1 40));
        ])
  in
  let print_damage = function
    | `Truncate at -> Printf.sprintf "truncate at %d" at
    | `Flip (at, bits) -> Printf.sprintf "xor byte %d with %d" at bits
    | `Tail tail -> Printf.sprintf "append %S" tail
  in
  QCheck.Test.make ~name:"trace file: a damaged corpus file parses or raises Parse_error"
    ~count:1000
    (QCheck.pair (QCheck.int_bound 1000) (QCheck.make ~print:print_damage damage))
    (fun (file, damage) ->
      let texts = Lazy.force corpus_texts in
      let text = List.nth texts (file mod List.length texts) in
      let n = String.length text in
      let damaged =
        match damage with
        | `Truncate at -> String.sub text 0 (at mod (n + 1))
        | `Flip (at, bits) ->
            let b = Bytes.of_string text in
            let at = at mod n in
            Bytes.set b at (Char.chr (Char.code (Bytes.get b at) lxor bits));
            Bytes.to_string b
        | `Tail tail -> text ^ tail
      in
      match Workload.Trace_file.parse_string damaged with
      | _ -> true
      | exception Workload.Trace_file.Parse_error _ -> true)

(* The round-trip property the writer must uphold for ANY name: quote
   or escape whatever the unquoted reader would truncate or trim. The
   alphabet concentrates on the hostile characters — hash, quote,
   backslash, whitespace — far past their natural frequency. *)
let prop_name_roundtrips =
  let gen_name =
    QCheck.Gen.(
      string_size ~gen:(oneofl [ '#'; '"'; '\\'; ' '; '\t'; '\n'; '\r'; 'a'; 'Z'; '7'; '_' ])
        (int_bound 12))
  in
  QCheck.Test.make ~name:"trace-file name round-trips (adversarial)" ~count:500
    (QCheck.make ~print:(Printf.sprintf "%S") gen_name)
    (fun name ->
      let p =
        program name 2 2
          [ [ Workload.Program.Write 0; Workload.Program.Barrier ];
            [ Workload.Program.Read 1; Workload.Program.Barrier ] ]
      in
      roundtrips p)

let test_trace_roundtrip_handwritten () =
  let open Workload.Program in
  let p =
    program "rt" 3 4
      [
        [ Write 0; Barrier; Lock 0; Read 1; Unlock 0; Barrier ];
        [ Barrier; Read 0; Barrier; Write 3 ];
        [ Lock 1; Write 2; Unlock 1; Barrier; Barrier ];
      ]
  in
  validate p;
  check Alcotest.bool "hand-written program round-trips" true (roundtrips p)

let test_trace_roundtrip_generated () =
  for index = 0 to 19 do
    let g = Workload.Generator.generate_seeded ~seed:42 ~index () in
    if not (roundtrips g.Workload.Generator.program) then
      Alcotest.failf "generated program %d does not round-trip:@.%a" index
        Workload.Program.pp g.Workload.Generator.program
  done

(* ------------------------------------------------------------------ *)
(* Generator *)

let test_generator_deterministic () =
  let a = Workload.Generator.generate_seeded ~seed:9 ~index:4 () in
  let b = Workload.Generator.generate_seeded ~seed:9 ~index:4 () in
  check Alcotest.bool "same (seed, index) draws the same program" true
    (Workload.Program.equal a.Workload.Generator.program b.Workload.Generator.program);
  check word_list "and the same ground truth" a.Workload.Generator.racy
    b.Workload.Generator.racy;
  let c = Workload.Generator.generate_seeded ~seed:9 ~index:5 () in
  check Alcotest.bool "a different index draws a different program" false
    (Workload.Program.equal a.Workload.Generator.program c.Workload.Generator.program)

let test_generator_valid_and_labeled () =
  for index = 0 to 19 do
    let g = Workload.Generator.generate_seeded ~seed:7 ~index () in
    let p = g.Workload.Generator.program in
    Workload.Program.validate p;
    check Alcotest.int
      (Printf.sprintf "program %d: one role per word" index)
      p.Workload.Program.words
      (Array.length g.Workload.Generator.role);
    List.iter
      (fun w ->
        check Alcotest.bool
          (Printf.sprintf "program %d: racy word %d labeled racy" index w)
          true
          (String.length g.Workload.Generator.role.(w) >= 4
          && String.sub g.Workload.Generator.role.(w) 0 4 = "racy"))
      g.Workload.Generator.racy
  done

(* The tentpole property: for every generated program, the online
   detector, the offline oracle and the by-construction ground truth
   agree exactly, on every backend, with and without elision. *)
let test_generator_differential () =
  for index = 0 to 7 do
    let g = Workload.Generator.generate_seeded ~seed:2026 ~index () in
    match
      Workload.Harness.check ~runner:Workload.Harness.driver_runner
        ~ground_truth:g.Workload.Generator.racy g.Workload.Generator.program
    with
    | None -> ()
    | Some m ->
        Alcotest.failf "program %d: %s mismatch: %s@.%a" index
          (Workload.Harness.kind_name m.Workload.Harness.kind)
          m.Workload.Harness.detail Workload.Program.pp g.Workload.Generator.program
  done

(* The same property on the lrc DSM over a lossy wire: the reliable
   transport must hide 20% drop, 5% duplication and 10% reordering, so
   detected = oracle = ground truth still holds, plain and elided. At
   50% drop a few programs exhaust the transport's retry cap and end in
   the documented Deadlock, so the rates stay here. *)
let test_generator_differential_lossy () =
  let retransmits = ref 0 in
  let lossy_runner ~backend ~elide (program : Workload.Program.t) =
    let base = ref 0 in
    let app = Workload.Program.to_app ~base program in
    let cfg =
      {
        Coherence.Config.default with
        Coherence.Config.backend;
        detect = true;
        record_trace = true;
        elide_sites = (if elide then Some [] else None);
        fault = { Sim.Fault.none with Sim.Fault.drop = 0.2; duplicate = 0.05; reorder = 0.1 };
        transport = Some Sim.Transport.default_config;
      }
    in
    let outcome = Core.Driver.run ~cfg ~app ~nprocs:program.Workload.Program.nprocs () in
    retransmits := !retransmits + outcome.Core.Driver.stats.Sim.Stats.retransmits;
    let to_words addrs = List.sort_uniq compare (List.map (fun a -> (a - !base) / 8) addrs) in
    {
      Workload.Harness.detected = to_words (Core.Driver.racy_addrs outcome);
      oracle = to_words (Core.Driver.oracle_addrs outcome);
      checksum = outcome.Core.Driver.mem_checksum;
    }
  in
  List.iter
    (fun seed ->
      for index = 0 to 199 do
        let g = Workload.Generator.generate_seeded ~seed ~index () in
        match
          Workload.Harness.check ~backends:[ "lrc" ] ~runner:lossy_runner
            ~ground_truth:g.Workload.Generator.racy g.Workload.Generator.program
        with
        | None -> ()
        | Some m ->
            Alcotest.failf "seed %d program %d: %s mismatch: %s@.%a" seed index
              (Workload.Harness.kind_name m.Workload.Harness.kind)
              m.Workload.Harness.detail Workload.Program.pp g.Workload.Generator.program
      done)
    [ 1; 2; 3 ];
  check Alcotest.bool "the wire lost frames the transport had to resend" true
    (!retransmits > 0)

(* ------------------------------------------------------------------ *)
(* Harness: a deliberately planted detector bug must be caught, shrunk
   to a tiny repro, and that repro must replay clean under the real
   detector once written out and parsed back — the full corpus cycle. *)

let buggy_runner ~backend ~elide p =
  let r = Workload.Harness.driver_runner ~backend ~elide p in
  if backend = "mesi" then
    {
      r with
      Workload.Harness.detected =
        (match r.Workload.Harness.detected with _ :: tl -> tl | [] -> []);
    }
  else r

let test_planted_bug_caught_and_shrunk () =
  let report =
    Workload.Harness.fuzz ~runner:buggy_runner ~seed:1 ~count:4 ~shrink:true ()
  in
  check Alcotest.bool "the planted bug is caught" true
    (report.Workload.Harness.mismatches <> []);
  List.iter
    (fun (m : Workload.Harness.mismatch) ->
      check Alcotest.bool "internal (shrinkable) mismatch kind" true
        (Workload.Harness.shrinkable m.Workload.Harness.kind);
      let size = Workload.Program.size m.Workload.Harness.program in
      if size > 10 then
        Alcotest.failf "repro not minimized: %d events@.%a" size Workload.Program.pp
          m.Workload.Harness.program;
      (* corpus cycle: write as a trace file, parse back, and require
         the real detector to pass on the minimized repro *)
      let text = Workload.Trace_file.to_string m.Workload.Harness.program in
      let replayed = Workload.Trace_file.parse_string text in
      check Alcotest.bool "repro round-trips" true
        (Workload.Program.equal m.Workload.Harness.program replayed);
      match Workload.Harness.check ~runner:Workload.Harness.driver_runner replayed with
      | None -> ()
      | Some mm ->
          Alcotest.failf "minimized repro fails under the real detector: %s"
            mm.Workload.Harness.detail)
    report.Workload.Harness.mismatches;
  check Alcotest.bool "shrinking did real work" true
    (report.Workload.Harness.shrink_steps > 0)

let test_clean_fuzz_run () =
  let report = Workload.Harness.fuzz ~seed:11 ~count:5 ~shrink:true () in
  check Alcotest.int "no mismatches" 0 (List.length report.Workload.Harness.mismatches);
  check Alcotest.int "every planted race found" report.Workload.Harness.planted
    report.Workload.Harness.found;
  check Alcotest.int "all programs checked" 5 report.Workload.Harness.programs

(* With no backend the matrix runs nothing, so every program would pass
   and every planted race would count as found. *)
let test_no_backend_rejected () =
  let p = (Workload.Generator.generate_seeded ~seed:1 ~index:0 ()).Workload.Generator.program in
  let runner ~backend:_ ~elide:_ _ = Alcotest.fail "no configuration should run" in
  Alcotest.check_raises "check" (Invalid_argument "Harness.check: no backend to check")
    (fun () -> ignore (Workload.Harness.check ~backends:[] ~runner p));
  Alcotest.check_raises "fuzz, even of no program"
    (Invalid_argument "Harness.fuzz: no backend to check") (fun () ->
      ignore (Workload.Harness.fuzz ~backends:[] ~runner ~seed:1 ~count:0 ~shrink:false ()))

(* ------------------------------------------------------------------ *)
(* Static passes on generated programs: the MHP analysis now sees
   multi-processor, lock-nested, multi-phase programs (not just the
   straight-line 2-proc enumeration of suite_mhp), and its elision
   verdicts must stay sound: no site it calls race-free may dynamically
   race. *)

let test_mhp_sound_on_generated () =
  for index = 0 to 11 do
    let g = Workload.Generator.generate_seeded ~seed:31 ~index () in
    let p = g.Workload.Generator.program in
    let race_free = Instrument.Mhp.race_free_sites (Workload.Program.binary p) in
    (* sites whose word is racy by construction *)
    let racy_sites =
      List.filter_map
        (fun (proc, i, _, w) ->
          if List.mem w g.Workload.Generator.racy then
            Some (Workload.Program.site ~proc ~index:i)
          else None)
        (Workload.Program.accesses p)
    in
    List.iter
      (fun site ->
        if List.mem site race_free then
          Alcotest.failf
            "program %d: MHP calls site %s race-free but its word races by \
             construction@.%a"
            index site Workload.Program.pp p)
      racy_sites
  done

(* ------------------------------------------------------------------ *)
(* Regression corpus: every checked-in trace replays with full internal
   consistency AND matches its pinned racy set. When a fuzz run finds a
   bug, its minimized repro joins corpus/ and this table. *)

let corpus_expectations =
  [
    ("mp-unsync", [ 0; 1 ]);
    ("locked-counter", []);
    ("false-sharing", []);
    ("min-repro-ww", [ 0 ]);
  ]

let test_corpus_replays_clean () =
  (* cwd is test/ under `dune runtest`, the repo root under `dune exec` *)
  let dir = corpus_dir () in
  let files =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".trace")
    |> List.sort compare
  in
  check Alcotest.bool "corpus is not empty" true (files <> []);
  List.iter
    (fun file ->
      let p = Workload.Trace_file.parse_file (Filename.concat dir file) in
      (* every corpus file must have a pinned expectation *)
      let expected =
        match List.assoc_opt p.Workload.Program.name corpus_expectations with
        | Some e -> e
        | None ->
            Alcotest.failf
              "corpus file %s (program %S) has no entry in corpus_expectations — pin \
               its racy set"
              file p.Workload.Program.name
      in
      (match Workload.Harness.check ~runner:Workload.Harness.driver_runner ~ground_truth:expected p with
      | None -> ()
      | Some m ->
          Alcotest.failf "corpus %s: %s: %s" file
            (Workload.Harness.kind_name m.Workload.Harness.kind)
            m.Workload.Harness.detail);
      check Alcotest.bool (file ^ " round-trips") true (roundtrips p))
    files

let suite =
  [
    ( "workload:program",
      [
        Alcotest.test_case "validate rejects bad programs" `Quick test_validate_rejects;
        Alcotest.test_case "size / phases / accesses" `Quick test_program_measures;
      ] );
    ( "workload:trace",
      [
        Alcotest.test_case "parse basics" `Quick test_trace_parse_basic;
        Alcotest.test_case "parse errors carry line numbers" `Quick test_trace_parse_errors;
        Alcotest.test_case "procs/words limits on the directive line" `Quick
          test_trace_directive_limits;
        QCheck_alcotest.to_alcotest prop_damaged_trace_parses_or_fails_cleanly;
        Alcotest.test_case "name directive forms" `Quick test_trace_name_forms;
        QCheck_alcotest.to_alcotest prop_name_roundtrips;
        Alcotest.test_case "hand-written round-trip" `Quick test_trace_roundtrip_handwritten;
        Alcotest.test_case "generated round-trip (20 seeds)" `Quick
          test_trace_roundtrip_generated;
      ] );
    ( "workload:generator",
      [
        Alcotest.test_case "deterministic in (seed, index)" `Quick
          test_generator_deterministic;
        Alcotest.test_case "valid and role-labeled (20 seeds)" `Quick
          test_generator_valid_and_labeled;
        Alcotest.test_case "detector = oracle = ground truth, all backends" `Slow
          test_generator_differential;
        Alcotest.test_case "lossy wire (lrc): detector = oracle = ground truth" `Slow
          test_generator_differential_lossy;
      ] );
    ( "workload:harness",
      [
        Alcotest.test_case "planted detector bug caught, shrunk to <= 10 events" `Slow
          test_planted_bug_caught_and_shrunk;
        Alcotest.test_case "clean fuzz run finds every planted race" `Slow
          test_clean_fuzz_run;
        Alcotest.test_case "MHP elision sound on generated programs" `Quick
          test_mhp_sound_on_generated;
        Alcotest.test_case "an empty backend list is rejected" `Quick test_no_backend_rejected;
      ] );
    ( "workload:corpus",
      [ Alcotest.test_case "regression corpus replays clean" `Quick test_corpus_replays_clean ] );
  ]
