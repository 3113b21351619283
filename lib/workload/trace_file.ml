(* Trace-file frontend: per-processor access/sync streams as text.
   See the .mli for the grammar. *)

exception Parse_error of { line : int; msg : string }

let fail line fmt = Printf.ksprintf (fun msg -> raise (Parse_error { line; msg })) fmt

let is_space c = c = ' ' || c = '\t' || c = '\r'

let tokens line =
  (* strip comments, split on blanks *)
  let line = match String.index_opt line '#' with Some i -> String.sub line 0 i | None -> line in
  String.split_on_char ' ' (String.map (fun c -> if is_space c then ' ' else c) line)
  |> List.filter (fun s -> s <> "")

let int_of ~line what s =
  match int_of_string_opt s with
  | Some n -> n
  | None -> fail line "expected an integer %s, got %S" what s

(* The name directive takes the raw remainder of its line, because
   program names may contain spaces (generated corpora routinely use
   "app phase 2"-style names). Unquoted, the name ends at a '#' comment
   and boundary whitespace is trimmed; the double-quoted form — with
   backslash escapes for backslash, double quote, and the n/t/r control
   characters — covers names containing quotes, '#', newlines or
   significant boundary whitespace. *)
let parse_name ~line raw =
  let raw = String.trim raw in
  if String.length raw > 0 && raw.[0] = '"' then begin
    let n = String.length raw in
    let buf = Buffer.create n in
    let rec go i =
      if i >= n then fail line "unterminated quoted name"
      else
        match raw.[i] with
        | '"' -> i + 1
        | '\\' ->
            if i + 1 >= n then fail line "unterminated quoted name";
            let c =
              match raw.[i + 1] with
              | '\\' -> '\\'
              | '"' -> '"'
              | 'n' -> '\n'
              | 't' -> '\t'
              | 'r' -> '\r'
              | c -> fail line "unknown escape \\%c in quoted name" c
            in
            Buffer.add_char buf c;
            go (i + 2)
        | c ->
            Buffer.add_char buf c;
            go (i + 1)
    in
    let stop = go 1 in
    let rest = String.trim (String.sub raw stop (n - stop)) in
    if rest <> "" && rest.[0] <> '#' then
      fail line "unexpected %S after quoted name" rest;
    Buffer.contents buf
  end
  else
    let raw =
      match String.index_opt raw '#' with Some i -> String.sub raw 0 i | None -> raw
    in
    let name = String.trim raw in
    if name = "" then fail line "name directive needs a name";
    name

let parse_string ?name text =
  let lines = String.split_on_char '\n' text in
  let directive_name = ref None in
  let procs = ref None and words = ref None in
  (* built lazily once [procs] is known *)
  let streams = ref [||] in
  let events_seen = ref false in
  (* last line carrying any token: whole-file failures (missing
     directives, validation) point here instead of a made-up line 0 *)
  let last_line = ref 0 in
  let push p op =
    match !procs with
    | None -> assert false
    | Some n ->
        if p < 0 || p >= n then raise Exit;
        !streams.(p) <- op :: !streams.(p)
  in
  List.iteri
    (fun i line ->
      let lineno = i + 1 in
      match tokens line with
      | [] -> ()
      | "name" :: _ ->
          last_line := lineno;
          (* re-read from the raw line: tokenizing already ate any [#],
             and the name may contain spaces *)
          let raw = String.trim line in
          let rest = String.sub raw 4 (String.length raw - 4) in
          directive_name := Some (parse_name ~line:lineno rest)
      | [ "procs"; n ] ->
          last_line := lineno;
          if !events_seen then fail lineno "procs directive must precede events";
          if !procs <> None then fail lineno "duplicate procs directive";
          let n = int_of ~line:lineno "processor count" n in
          if n < 1 || n > Coherence.Config.max_procs then
            fail lineno "procs must be in [1, %d], got %d" Coherence.Config.max_procs n;
          procs := Some n;
          streams := Array.make n []
      | [ "words"; n ] ->
          last_line := lineno;
          if !events_seen then fail lineno "words directive must precede events";
          if !words <> None then fail lineno "duplicate words directive";
          let n = int_of ~line:lineno "word count" n in
          if n < 1 || n > Program.max_words then
            fail lineno "words must be in [1, %d], got %d" Program.max_words n;
          words := Some n
      | toks -> (
          last_line := lineno;
          (match (!procs, !words) with
          | None, _ -> fail lineno "event before the procs directive"
          | _, None -> fail lineno "event before the words directive"
          | Some _, Some _ -> ());
          events_seen := true;
          match toks with
          | [ "b" ] -> Array.iteri (fun p _ -> push p Program.Barrier) !streams
          | [ p; op; arg ] -> (
              let pid = int_of ~line:lineno "processor id" p in
              let arg_kind = if op = "l" || op = "u" then "lock id" else "word index" in
              let arg = int_of ~line:lineno arg_kind arg in
              let ev =
                match op with
                | "r" -> Program.Read arg
                | "w" -> Program.Write arg
                | "l" -> Program.Lock arg
                | "u" -> Program.Unlock arg
                | _ -> fail lineno "unknown event %S (expected r, w, l or u)" op
              in
              try push pid ev
              with Exit ->
                fail lineno "processor id %d out of range [0, %d)" pid
                  (match !procs with Some n -> n | None -> 0))
          | _ ->
              fail lineno
                "malformed line %S (expected \"<proc> r|w|l|u <n>\" or a bare \"b\")"
                (String.trim line)))
    lines;
  (* whole-file failures: blame the last line that carried a token, or
     line 1 for an empty file — never a nonexistent "line 0" *)
  let eof = max 1 !last_line in
  let nprocs = match !procs with Some n -> n | None -> fail eof "missing procs directive" in
  let words = match !words with Some n -> n | None -> fail eof "missing words directive" in
  let name =
    match (!directive_name, name) with Some n, _ -> n | None, Some n -> n | None, None -> "trace"
  in
  let t = { Program.name; nprocs; words; streams = Array.map List.rev !streams } in
  (try Program.validate t with Program.Invalid msg -> fail eof "%s: %s" name msg);
  t

let parse_file path =
  parse_string ~name:(Filename.remove_extension (Filename.basename path)) (Core.Trace_run.load path)

(* Phase-by-phase rendering: within a phase, each processor's segment in
   stream order, then one global [b]. Any interleaving parses back to
   the same streams, so round-tripping is structural. *)
(* A name needing the quoted form: one the unquoted reader would
   truncate (hash, newline), trim away (boundary whitespace, empty) or
   misread (double quote and backslash look like the quoted form's own
   syntax). Plain interior spaces survive unquoted, but any whitespace
   subtlety beyond that is cheaper to quote than to reason about. *)
let needs_quoting name =
  name = ""
  || name.[0] = ' '
  || name.[String.length name - 1] = ' '
  || String.exists
       (fun c -> c = '"' || c = '\\' || c = '#' || c = '\n' || c = '\t' || c = '\r')
       name

let quoted_name name =
  let buf = Buffer.create (String.length name + 2) in
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c -> Buffer.add_char buf c)
    name;
  Buffer.add_char buf '"';
  Buffer.contents buf

let to_string (t : Program.t) =
  let buf = Buffer.create 256 in
  let name =
    if needs_quoting t.Program.name then quoted_name t.Program.name else t.Program.name
  in
  Printf.bprintf buf "name %s\nprocs %d\nwords %d\n" name t.Program.nprocs
    t.Program.words;
  let rests = Array.map (fun s -> ref s) t.Program.streams in
  let nphases = Program.phases t + 1 in
  for phase = 0 to nphases - 1 do
    Array.iteri
      (fun p rest ->
        let continue = ref true in
        while !continue do
          match !rest with
          | [] | Program.Barrier :: _ -> continue := false
          | op :: tl ->
              rest := tl;
              let line =
                match op with
                | Program.Read w -> Printf.sprintf "%d r %d" p w
                | Program.Write w -> Printf.sprintf "%d w %d" p w
                | Program.Lock l -> Printf.sprintf "%d l %d" p l
                | Program.Unlock l -> Printf.sprintf "%d u %d" p l
                | Program.Barrier -> assert false
              in
              Buffer.add_string buf line;
              Buffer.add_char buf '\n'
        done)
      rests;
    if phase < nphases - 1 then begin
      (* consume each stream's barrier and emit one global b *)
      Array.iter
        (fun rest ->
          match !rest with
          | Program.Barrier :: tl -> rest := tl
          | _ -> assert false)
        rests;
      Buffer.add_string buf "b\n"
    end
  done;
  Buffer.contents buf

let write_file path t =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (to_string t))
