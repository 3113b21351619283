(* Pinned outcomes: each deterministic operation's observable result
   (race set, memory checksum, simulated time, wire and bus totals),
   recorded once and checked on every later run. A drift makes that
   operation fail.

   File format: one line per operation, the operation's name followed
   by space-separated key=value pairs; lines starting with '#' are
   comments. *)

type outcome = (string * string) list

let load path : (string, outcome) Hashtbl.t =
  let tbl = Hashtbl.create 32 in
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      try
        while true do
          match String.split_on_char ' ' (String.trim (input_line ic)) with
          | [] | [ "" ] -> ()
          | name :: _ when name.[0] = '#' -> ()
          | name :: fields ->
              let pair field =
                match String.index_opt field '=' with
                | Some i ->
                    (String.sub field 0 i, String.sub field (i + 1) (String.length field - i - 1))
                | None -> failwith (Printf.sprintf "%s: malformed pin %S" path field)
              in
              Hashtbl.replace tbl name (List.map pair fields)
        done
      with End_of_file -> ());
  tbl

let save path ~header entries =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter (fun line -> Printf.fprintf oc "# %s\n" line) header;
      List.iter
        (fun (name, outcome) ->
          output_string oc name;
          List.iter (fun (k, v) -> Printf.fprintf oc " %s=%s" k v) outcome;
          output_char oc '\n')
        entries)

(* [None] when [actual] equals the pin, else the first difference. *)
let diff ~expected actual =
  match expected with
  | None -> Some "no pinned outcome"
  | Some expected ->
      let field (k, v) =
        match List.assoc_opt k actual with
        | Some v' when v' = v -> None
        | Some v' -> Some (Printf.sprintf "%s: pinned %s, got %s" k v v')
        | None -> Some (Printf.sprintf "%s: pinned %s, not observed" k v)
      in
      (match List.find_map field expected with
      | Some d -> Some d
      | None when List.length actual <> List.length expected -> Some "outcome has unpinned fields"
      | None -> None)
