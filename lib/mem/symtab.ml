(* Symbol table over the shared segment.

   The paper prints raw shared-segment addresses and notes that "in
   combination with symbol tables, this information can be used to
   identify the exact variable" (section 6.1). Applications register each
   allocation under a name; race reports then resolve to
   "variable[+offset]" instead of hex. *)

type entry = { name : string; base : int; bytes : int }

type t = { mutable entries : entry list (* kept sorted by base *) }

let create () = { entries = [] }

let register t ~name ~base ~bytes =
  if bytes < 0 then invalid_arg "Symtab.register";
  let entry = { name; base; bytes } in
  let rec insert = function
    | [] -> [ entry ]
    | e :: rest when e.base > base -> entry :: e :: rest
    | e :: rest ->
        if base < e.base + e.bytes && e.base < base + bytes then
          invalid_arg
            (Printf.sprintf "Symtab.register: %s overlaps %s" name e.name)
        else e :: insert rest
  in
  t.entries <- insert t.entries

let resolve t addr =
  List.find_opt (fun e -> addr >= e.base && addr < e.base + e.bytes) t.entries

let name_of t addr =
  match resolve t addr with
  | None -> Printf.sprintf "0x%08x" addr
  | Some e ->
      let offset = addr - e.base in
      if offset = 0 then e.name
      else if e.bytes > Page.word_size && offset mod Page.word_size = 0 then
        Printf.sprintf "%s[%d]" e.name (offset / Page.word_size)
      else Printf.sprintf "%s+%d" e.name offset
