(* Workload programs: explicit per-processor access/sync streams.

   The shared currency of the adversarial-workload frontier: trace
   files parse into one of these, the seeded generator emits one, and
   the differential harness runs one under every coherence backend.
   Packaging as an [Apps.App.t] means the whole existing stack — the
   driver, elision, record/replay, the oracle trace — applies without a
   special path. *)

type op =
  | Read of int
  | Write of int
  | Lock of int
  | Unlock of int
  | Barrier

type t = {
  name : string;
  nprocs : int;
  words : int;
  streams : op list array;
}

exception Invalid of string

let invalid fmt = Printf.ksprintf (fun s -> raise (Invalid s)) fmt

(* Every backend allocates per-processor state that grows with both
   counts, so an unchecked count from a file or a flag can exhaust
   memory before the run starts: 256 processors x 2^20 words runs in a
   few seconds, 1024 x 2^20 does not finish. *)
let max_words = 1 lsl 20

let validate t =
  if t.nprocs < 1 || t.nprocs > Coherence.Config.max_procs then
    invalid "nprocs must be in [1, %d] (got %d)" Coherence.Config.max_procs t.nprocs;
  if t.words < 1 || t.words > max_words then
    invalid "words must be in [1, %d] (got %d)" max_words t.words;
  if Array.length t.streams <> t.nprocs then
    invalid "expected %d streams, got %d" t.nprocs (Array.length t.streams);
  let barrier_counts =
    Array.mapi
      (fun p stream ->
        let held = ref [] and barriers = ref 0 in
        List.iteri
          (fun i op ->
            match op with
            | Read w | Write w ->
                if w < 0 || w >= t.words then
                  invalid "proc %d op %d: word %d out of range [0, %d)" p i w t.words
            | Lock l ->
                if l < 0 then invalid "proc %d op %d: negative lock id %d" p i l;
                if List.mem l !held then
                  invalid "proc %d op %d: lock %d acquired while held" p i l;
                held := l :: !held
            | Unlock l ->
                if not (List.mem l !held) then
                  invalid "proc %d op %d: lock %d released but not held" p i l;
                held := List.filter (fun h -> h <> l) !held
            | Barrier ->
                if !held <> [] then
                  invalid "proc %d op %d: barrier while holding lock(s) %s" p i
                    (String.concat "," (List.map string_of_int (List.sort compare !held)));
                incr barriers)
          stream;
        if !held <> [] then
          invalid "proc %d: stream ends holding lock(s) %s" p
            (String.concat "," (List.map string_of_int (List.sort compare !held)));
        !barriers)
      t.streams
  in
  Array.iteri
    (fun p n ->
      if n <> barrier_counts.(0) then
        invalid "barriers are global: proc 0 has %d, proc %d has %d" barrier_counts.(0) p n)
    barrier_counts

let size t = Array.fold_left (fun acc s -> acc + List.length s) 0 t.streams

let phases t =
  match t.streams with
  | [||] -> 0
  | streams ->
      List.fold_left
        (fun acc op -> match op with Barrier -> acc + 1 | _ -> acc)
        0 streams.(0)

let site ~proc ~index = Printf.sprintf "p%d:%d" proc index

let accesses t =
  let out = ref [] in
  Array.iteri
    (fun p stream ->
      List.iteri
        (fun i op ->
          match op with
          | Read w -> out := (p, i, Instrument.Binary.Load, w) :: !out
          | Write w -> out := (p, i, Instrument.Binary.Store, w) :: !out
          | Lock _ | Unlock _ | Barrier -> ())
        stream)
    t.streams;
  List.rev !out

(* ------------------------------------------------------------------ *)
(* Synthetic SPMD binary: per-phase union of every processor's
   accesses, each wrapped in acquire/release of exactly the locks its
   processor holds at that point. Wrapping per access (instead of
   emitting the stream's own lock ops) keeps the straight line
   lock-balanced whatever the interleaving of processors' segments, so
   the must-hold lockset the dataflow computes at each access is the
   access's true dynamic lockset. *)

let binary t =
  let open Instrument.Ir in
  let nphases = phases t + 1 in
  (* per_phase.(k) collects ops in processor order, reversed *)
  let per_phase = Array.make nphases [] in
  Array.iteri
    (fun p stream ->
      let phase = ref 0 and held = ref [] in
      List.iteri
        (fun i op ->
          let access mk =
            let locks = List.sort compare !held in
            let ops =
              List.map (fun l -> acquire l) locks
              @ [ mk ~site:(site ~proc:p ~index:i) ]
              @ List.rev_map (fun l -> release l) locks
            in
            per_phase.(!phase) <- List.rev_append ops per_phase.(!phase)
          in
          match op with
          | Read w -> access (fun ~site -> load ~offset:(w * Mem.Page.word_size) ~site (Reg 0))
          | Write w -> access (fun ~site -> store ~offset:(w * Mem.Page.word_size) ~site (Reg 0))
          | Lock l -> held := l :: !held
          | Unlock l -> held := List.filter (fun h -> h <> l) !held
          | Barrier -> incr phase)
        stream)
    t.streams;
  let ops =
    List.concat_map
      (fun k -> List.rev (barrier :: per_phase.(k)))
      (List.init nphases Fun.id)
  in
  Instrument.Binary.make ~name:t.name
    ~procs:
      [
        proc ~name:t.name ~entry:"entry"
          [ block "entry" (malloc_shared ~dst:0 (t.name ^ ".mem") :: ops) ];
      ]
    ()

(* ------------------------------------------------------------------ *)

(* deterministic written values: distinct per (proc, op index) so the
   final memory image exercises real data movement *)
let value pid index = ((pid + 1) * 1_000_003) + index

let run_body t base node =
  let open Lrc.Dsm in
  if nprocs node <> t.nprocs then
    failwith
      (Printf.sprintf "workload %s expects %d processors, run with %d" t.name t.nprocs
         (nprocs node));
  let b = malloc node ~name:(t.name ^ ".mem") (t.words * Mem.Page.word_size) in
  (match base with Some r -> r := b | None -> ());
  let pid = pid node in
  List.iteri
    (fun i op ->
      match op with
      | Read w -> ignore (read_int_at node ~site:(site ~proc:pid ~index:i) b w)
      | Write w -> write_int_at node ~site:(site ~proc:pid ~index:i) b w (value pid i)
      | Lock l -> lock node l
      | Unlock l -> unlock node l
      | Barrier -> barrier node)
    t.streams.(pid);
  (* implicit final barrier: the last epoch's accesses get their
     detection pass before the run ends *)
  barrier node

let to_app ?base t =
  validate t;
  {
    Apps.App.name = t.name;
    input_description =
      Printf.sprintf "%d proc(s), %d shared word(s), %d event(s)" t.nprocs t.words (size t);
    synchronization = "locks and barriers (explicit streams)";
    memory_bytes = t.words * Mem.Page.word_size;
    binary = (fun () -> binary t);
    body = run_body t base;
  }

let equal a b =
  a.name = b.name && a.nprocs = b.nprocs && a.words = b.words && a.streams = b.streams

let pp_op ppf = function
  | Read w -> Format.fprintf ppf "r%d" w
  | Write w -> Format.fprintf ppf "w%d" w
  | Lock l -> Format.fprintf ppf "l%d" l
  | Unlock l -> Format.fprintf ppf "u%d" l
  | Barrier -> Format.fprintf ppf "b"

let pp ppf t =
  Format.fprintf ppf "@[<v>%s: %d proc(s), %d word(s)" t.name t.nprocs t.words;
  Array.iteri
    (fun p stream ->
      Format.fprintf ppf "@ p%d: %a" p
        (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf " ") pp_op)
        stream)
    t.streams;
  Format.fprintf ppf "@]"
