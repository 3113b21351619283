(* Replay verification: run the same configuration again and check the
   live event stream against the recorded one, event by event. The
   verifier is itself a {!Sink.t}, so the cluster needs no special replay
   mode — it just emits into a sink that compares instead of appending.

   The verifier holds the decoded log, which keeps the log's bytes, and a
   reader over them: each live event is compared with the next recorded
   one, decoded only then. The first mismatch is latched: index into the
   recorded stream, expected and actual events, and the last recorded
   activity of every processor at that point (a cheap "where was
   everyone" summary). For that summary a match stores its record's byte
   offset and time under its processor, and the latch decodes those
   records: a matched live event equals its recorded one, time included,
   so the verifier keeps no copy of the stream. *)

type divergence = {
  d_index : int;  (* 0-based position in the recorded stream *)
  d_time : int;  (* simulated time of the live event (or expected, at stream end) *)
  d_expected : (int * Event.t) option;  (* None: live run produced extra events *)
  d_actual : (int * Event.t) option;  (* None: live run ended short *)
  d_proc_state : (int * string) list;  (* last recorded activity per processor *)
}

type verifier = {
  log : Codec.decoded;
  reader : Codec.reader;
  mutable next : int;  (* index of the next expected event *)
  last_start : int array;  (* per processor: its last match's event offset, or -1 *)
  last_time : int array;  (* per processor: its last match's time *)
  mutable divergence : divergence option;
}

(* The processor an event belongs to, or -1 *)
let proc_of (e : Event.t) =
  match e with
  | Event.Proc_block { proc; _ }
  | Event.Proc_resume { proc }
  | Event.Proc_finish { proc }
  | Event.Page_fault { proc; _ }
  | Event.Diff_fetch { proc; _ }
  | Event.Diff_apply { proc; _ }
  | Event.Lock_acquire { proc; _ }
  | Event.Lock_release { proc; _ }
  | Event.Barrier_enter { proc; _ }
  | Event.Barrier_leave { proc; _ }
  | Event.Interval_open { proc; _ }
  | Event.Interval_close { proc; _ }
  | Event.Bus { proc; _ } ->
      proc
  | Event.Msg_send { src; _ } -> src
  | Event.Msg_deliver { dst; _ } -> dst
  | _ -> -1

let create (decoded : Codec.decoded) =
  let nprocs = max 1 decoded.Codec.meta.Codec.m_nprocs in
  {
    log = decoded;
    reader = Codec.reader decoded;
    next = 0;
    last_start = Array.make nprocs (-1);
    last_time = Array.make nprocs 0;
    divergence = None;
  }

(* Each processor's last matched event, decoded from the log *)
let proc_state t =
  List.filter_map
    (fun p ->
      let start = t.last_start.(p) in
      if start < 0 then None
      else
        Some
          ( p,
            Printf.sprintf "%s @ %d ns"
              (Event.to_string (Codec.event_at t.log start))
              t.last_time.(p) ))
    (List.init (Array.length t.last_start) Fun.id)

let diverge t ~time ~expected ~actual =
  if t.divergence = None then
    t.divergence <-
      Some
        {
          d_index = t.next;
          d_time = time;
          d_expected = expected;
          d_actual = actual;
          d_proc_state = proc_state t;
        }

let check t ~time event =
  if t.divergence = None then begin
    if not (Codec.more t.reader) then
      diverge t ~time ~expected:None ~actual:(Some (time, event))
    else begin
      let expected = Codec.next t.reader in
      let exp_time = Codec.time t.reader in
      if exp_time = time && Event.equal expected event then begin
        t.next <- t.next + 1;
        let p = proc_of event in
        if p >= 0 && p < Array.length t.last_start then begin
          t.last_start.(p) <- Codec.event_start t.reader;
          t.last_time.(p) <- time
        end
      end
      else diverge t ~time ~expected:(Some (exp_time, expected)) ~actual:(Some (time, event))
    end
  end

let sink t = { Sink.emit = (fun ~time event -> check t ~time event) }

let divergence t = t.divergence

(* Declare the stream over: any recorded events not yet matched are a
   divergence of their own (the live run ended short). *)
let finish t =
  (match t.divergence with
  | Some _ -> ()
  | None ->
      if Codec.more t.reader then begin
        let expected = Codec.next t.reader in
        let exp_time = Codec.time t.reader in
        diverge t ~time:exp_time ~expected:(Some (exp_time, expected)) ~actual:None
      end);
  t.divergence

let pp_stream_item ppf = function
  | Some (time, event) -> Format.fprintf ppf "%a @@ %d ns" Event.pp event time
  | None -> Format.pp_print_string ppf "(end of stream)"

let pp_divergence ppf d =
  Format.fprintf ppf "@[<v>first divergence at event %d (sim time %d ns):" d.d_index
    d.d_time;
  Format.fprintf ppf "@,  expected: %a" pp_stream_item d.d_expected;
  Format.fprintf ppf "@,  actual:   %a" pp_stream_item d.d_actual;
  (match d.d_proc_state with
  | [] -> ()
  | procs ->
      Format.fprintf ppf "@,  last recorded activity per processor:";
      List.iter
        (fun (p, s) -> Format.fprintf ppf "@,    p%d: %s" p s)
        procs);
  Format.fprintf ppf "@]"

(* --- log-only reconstruction --- *)

(* [decode] gathered the Race records and the last Run_end in its
   checking pass *)
let races_of_log (decoded : Codec.decoded) = Proto.Race.dedup decoded.Codec.races
let checksum_of_log (decoded : Codec.decoded) = Option.map fst decoded.Codec.run_end
let sim_time_of_log (decoded : Codec.decoded) = Option.map snd decoded.Codec.run_end

type tag_stats = { ts_tag : string; ts_count : int; ts_bytes : int }

(* A record's size, less its time delta, is the span of its event *)
let tags_of_log (decoded : Codec.decoded) =
  let tbl = Hashtbl.create 24 in
  let r = Codec.reader decoded in
  while Codec.more r do
    let tag = Event.tag (Codec.next r) in
    let count, bytes =
      match Hashtbl.find_opt tbl tag with Some cb -> cb | None -> (0, 0)
    in
    Hashtbl.replace tbl tag (count + 1, bytes + Codec.event_end r - Codec.event_start r)
  done;
  Hashtbl.fold (fun ts_tag (ts_count, ts_bytes) acc ->
      { ts_tag; ts_count; ts_bytes } :: acc)
    tbl []
  |> List.sort (fun a b ->
         match compare b.ts_bytes a.ts_bytes with
         | 0 -> compare a.ts_tag b.ts_tag
         | n -> n)
