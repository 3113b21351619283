(* Compact binary trace log.

   Layout: a 5-byte header (magic "CVMT" + format version), the run
   metadata, then one record per event: a tag byte, the time *delta*
   since the previous event as a varint, and the tag-specific fields.
   Integers use zigzag LEB128 (times are monotone so deltas are small;
   zigzag keeps the odd negative — an ack's cumulative -1 — cheap).
   Floats (fault probabilities) are 8 fixed little-endian bytes.

   This build reads and writes format v8 only; a log of another format
   is refused with a message naming its version. The v8 metadata holds
   exactly what a run can set. *)

let magic = "CVMT"
let version = 8

type meta = {
  m_app : string;
  m_scale : string;
  m_nprocs : int;
  m_protocol : string;
  m_detect : bool;
  m_first_race_only : bool;
  m_stores_from_diffs : bool;
  m_seed : int;
  m_drop : float;
  m_dup : float;
  m_reorder : float;
  m_partitions : (int * int * int * int) list;  (* a, b, from_ns, until_ns *)
  m_transport : int option;  (* the transport's retry cap, when it runs *)
  m_gc_epochs : int option;
  m_elide : bool;  (* elide checks at statically race-free sites *)
  m_backend : string;  (* coherence backend id *)
}

(* --- primitive writers --- *)

(* The writers and readers are top-level functions that take the buffer
   or cursor as an argument: a local recursion or partial application
   that captured it would allocate a closure per integer coded. *)

let rec put_leb128 buf u =
  if u land lnot 0x7f = 0 then Buffer.add_char buf (Char.chr u)
  else begin
    Buffer.add_char buf (Char.chr (0x80 lor (u land 0x7f)));
    put_leb128 buf (u lsr 7)
  end

(* zigzag then LEB128 *)
let put_varint buf n = put_leb128 buf ((n lsl 1) lxor (n asr (Sys.int_size - 1)))

let put_bool buf b = Buffer.add_char buf (if b then '\001' else '\000')
let put_string buf s =
  put_varint buf (String.length s);
  Buffer.add_string buf s

let put_float buf f = Buffer.add_int64_le buf (Int64.bits_of_float f)

let put_opt buf put = function
  | None -> put_bool buf false
  | Some v ->
      put_bool buf true;
      put buf v

let rec put_items buf put = function
  | [] -> ()
  | x :: xs ->
      put buf x;
      put_items buf put xs

let put_list buf put xs =
  put_varint buf (List.length xs);
  put_items buf put xs

let put_vc buf (vc : Proto.Vclock.t) =
  put_varint buf (Array.length vc);
  for i = 0 to Array.length vc - 1 do
    put_varint buf vc.(i)
  done

let put_iid buf (id : Proto.Interval.id) =
  put_varint buf id.Proto.Interval.proc;
  put_varint buf id.Proto.Interval.index

let put_kind buf (k : Proto.Race.access_kind) =
  Buffer.add_char buf (match k with Proto.Race.Read -> '\000' | Write -> '\001')

(* --- primitive readers --- *)

type cursor = { src : string; mutable pos : int }

exception Corrupt of string

let fail fmt = Printf.ksprintf (fun s -> raise (Corrupt s)) fmt

let byte c =
  if c.pos >= String.length c.src then fail "truncated log at byte %d" c.pos;
  let b = Char.code c.src.[c.pos] in
  c.pos <- c.pos + 1;
  b

let rec get_leb128 c shift acc =
  let b = byte c in
  let acc = acc lor ((b land 0x7f) lsl shift) in
  if b land 0x80 = 0 then acc else get_leb128 c (shift + 7) acc

let get_varint c =
  let u = get_leb128 c 0 0 in
  (u lsr 1) lxor (-(u land 1))

let get_bool c = byte c <> 0

(* A length prefix. Every element it counts takes at least one byte, so a
   count larger than the bytes left is corrupt; rejecting it here keeps a
   damaged prefix from driving a huge allocation. *)
let get_length c what =
  let n = get_varint c in
  if n < 0 || n > String.length c.src - c.pos then
    fail "bad %s length %d at byte %d" what n c.pos;
  n

let get_string c =
  let len = get_length c "string" in
  let s = String.sub c.src c.pos len in
  c.pos <- c.pos + len;
  s

let get_float c =
  if c.pos + 8 > String.length c.src then fail "truncated float at byte %d" c.pos;
  let bits = String.get_int64_le c.src c.pos in
  c.pos <- c.pos + 8;
  Int64.float_of_bits bits

let get_opt c get = if get_bool c then Some (get c) else None

let get_list c get =
  let n = get_length c "list" in
  List.init n (fun _ -> get c)

let get_vc c : Proto.Vclock.t =
  let n = get_length c "vclock" in
  let vc = Array.make n 0 in
  for i = 0 to n - 1 do
    vc.(i) <- get_varint c
  done;
  vc

let get_iid c : Proto.Interval.id =
  let proc = get_varint c in
  let index = get_varint c in
  { Proto.Interval.proc; index }

let get_kind c : Proto.Race.access_kind =
  match byte c with
  | 0 -> Proto.Race.Read
  | 1 -> Proto.Race.Write
  | k -> fail "bad access kind %d at byte %d" k c.pos

(* --- metadata --- *)

let put_meta buf m =
  put_string buf m.m_app;
  put_string buf m.m_scale;
  put_varint buf m.m_nprocs;
  put_string buf m.m_protocol;
  put_bool buf m.m_detect;
  put_bool buf m.m_first_race_only;
  put_bool buf m.m_stores_from_diffs;
  put_varint buf m.m_seed;
  put_float buf m.m_drop;
  put_float buf m.m_dup;
  put_float buf m.m_reorder;
  put_list buf
    (fun buf (a, b, from_ns, until_ns) ->
      put_varint buf a;
      put_varint buf b;
      put_varint buf from_ns;
      put_varint buf until_ns)
    m.m_partitions;
  put_opt buf put_varint m.m_transport;
  put_opt buf put_varint m.m_gc_epochs;
  put_bool buf m.m_elide;
  put_string buf m.m_backend

let get_meta c =
  let m_app = get_string c in
  let m_scale = get_string c in
  let m_nprocs = get_varint c in
  let m_protocol = get_string c in
  let m_detect = get_bool c in
  let m_first_race_only = get_bool c in
  let m_stores_from_diffs = get_bool c in
  let m_seed = get_varint c in
  let m_drop = get_float c in
  let m_dup = get_float c in
  let m_reorder = get_float c in
  let m_partitions =
    get_list c (fun c ->
        let a = get_varint c in
        let b = get_varint c in
        let from_ns = get_varint c in
        let until_ns = get_varint c in
        (a, b, from_ns, until_ns))
  in
  let m_transport = get_opt c get_varint in
  let m_gc_epochs = get_opt c get_varint in
  let m_elide = get_bool c in
  let m_backend = get_string c in
  {
    m_app;
    m_scale;
    m_nprocs;
    m_protocol;
    m_detect;
    m_first_race_only;
    m_stores_from_diffs;
    m_seed;
    m_drop;
    m_dup;
    m_reorder;
    m_partitions;
    m_transport;
    m_gc_epochs;
    m_elide;
    m_backend;
  }

(* --- events --- *)

let put_tag buf n = Buffer.add_char buf (Char.chr n)

let put_event buf (e : Event.t) =
  match e with
  | Event.Msg_send { src; dst; kind; bytes } ->
      put_tag buf 0;
      put_varint buf src;
      put_varint buf dst;
      put_string buf kind;
      put_varint buf bytes
  | Event.Msg_deliver { src; dst; kind; bytes } ->
      put_tag buf 1;
      put_varint buf src;
      put_varint buf dst;
      put_string buf kind;
      put_varint buf bytes
  | Event.Fault { src; dst; outcome } ->
      put_tag buf 2;
      put_varint buf src;
      put_varint buf dst;
      (match outcome with
      | Event.Passed { copies; extra_delay_ns } ->
          Buffer.add_char buf '\000';
          put_varint buf copies;
          put_varint buf extra_delay_ns
      | Event.Dropped -> Buffer.add_char buf '\001'
      | Event.Blackholed -> Buffer.add_char buf '\002')
  | Event.Partition { a; b; up } ->
      put_tag buf 3;
      put_varint buf a;
      put_varint buf b;
      put_bool buf up
  | Event.Retransmit { src; dst; seq } ->
      put_tag buf 4;
      put_varint buf src;
      put_varint buf dst;
      put_varint buf seq
  | Event.Ack { src; dst; cum } ->
      put_tag buf 5;
      put_varint buf src;
      put_varint buf dst;
      put_varint buf cum
  | Event.Link_failure { src; dst } ->
      put_tag buf 6;
      put_varint buf src;
      put_varint buf dst
  | Event.Proc_block { proc; label } ->
      put_tag buf 7;
      put_varint buf proc;
      put_string buf label
  | Event.Proc_resume { proc } ->
      put_tag buf 8;
      put_varint buf proc
  | Event.Proc_finish { proc } ->
      put_tag buf 9;
      put_varint buf proc
  | Event.Page_fault { proc; page; kind } ->
      put_tag buf 10;
      put_varint buf proc;
      put_varint buf page;
      put_kind buf kind
  | Event.Diff_fetch { proc; page; count } ->
      put_tag buf 11;
      put_varint buf proc;
      put_varint buf page;
      put_varint buf count
  | Event.Diff_apply { proc; page; words } ->
      put_tag buf 12;
      put_varint buf proc;
      put_varint buf page;
      put_varint buf words
  | Event.Lock_acquire { proc; lock; vc } ->
      put_tag buf 13;
      put_varint buf proc;
      put_varint buf lock;
      put_vc buf vc
  | Event.Lock_release { proc; lock; vc } ->
      put_tag buf 14;
      put_varint buf proc;
      put_varint buf lock;
      put_vc buf vc
  | Event.Barrier_enter { proc; epoch } ->
      put_tag buf 15;
      put_varint buf proc;
      put_varint buf epoch
  | Event.Barrier_leave { proc; epoch; vc } ->
      put_tag buf 16;
      put_varint buf proc;
      put_varint buf epoch;
      put_vc buf vc
  | Event.Interval_open { proc; index; epoch } ->
      put_tag buf 17;
      put_varint buf proc;
      put_varint buf index;
      put_varint buf epoch
  | Event.Interval_close { proc; index; epoch; write_pages; read_pages } ->
      put_tag buf 18;
      put_varint buf proc;
      put_varint buf index;
      put_varint buf epoch;
      put_list buf put_varint write_pages;
      put_list buf put_varint read_pages
  | Event.Check_entry { a; b; pages } ->
      put_tag buf 19;
      put_iid buf a;
      put_iid buf b;
      put_list buf put_varint pages
  | Event.Race r ->
      put_tag buf 20;
      put_varint buf r.Proto.Race.addr;
      put_varint buf r.Proto.Race.page;
      put_varint buf r.Proto.Race.word;
      let fid, fk = r.Proto.Race.first in
      put_iid buf fid;
      put_kind buf fk;
      let sid, sk = r.Proto.Race.second in
      put_iid buf sid;
      put_kind buf sk;
      put_varint buf r.Proto.Race.epoch
  | Event.Run_end { checksum; sim_time_ns; races } ->
      put_tag buf 21;
      put_varint buf checksum;
      put_varint buf sim_time_ns;
      put_varint buf races
  | Event.Bus { proc; kind; line } ->
      put_tag buf 22;
      put_varint buf proc;
      Buffer.add_char buf
        (match kind with
        | Event.Bus_rd -> '\000'
        | Event.Bus_rdx -> '\001'
        | Event.Bus_upgr -> '\002'
        | Event.Bus_upd -> '\003'
        | Event.Bus_wb -> '\004'
        | Event.Bus_sync -> '\005');
      put_varint buf line

let get_event c : Event.t =
  match byte c with
  | 0 ->
      let src = get_varint c in
      let dst = get_varint c in
      let kind = get_string c in
      let bytes = get_varint c in
      Event.Msg_send { src; dst; kind; bytes }
  | 1 ->
      let src = get_varint c in
      let dst = get_varint c in
      let kind = get_string c in
      let bytes = get_varint c in
      Event.Msg_deliver { src; dst; kind; bytes }
  | 2 ->
      let src = get_varint c in
      let dst = get_varint c in
      let outcome =
        match byte c with
        | 0 ->
            let copies = get_varint c in
            let extra_delay_ns = get_varint c in
            Event.Passed { copies; extra_delay_ns }
        | 1 -> Event.Dropped
        | 2 -> Event.Blackholed
        | k -> fail "bad fault outcome %d at byte %d" k c.pos
      in
      Event.Fault { src; dst; outcome }
  | 3 ->
      let a = get_varint c in
      let b = get_varint c in
      let up = get_bool c in
      Event.Partition { a; b; up }
  | 4 ->
      let src = get_varint c in
      let dst = get_varint c in
      let seq = get_varint c in
      Event.Retransmit { src; dst; seq }
  | 5 ->
      let src = get_varint c in
      let dst = get_varint c in
      let cum = get_varint c in
      Event.Ack { src; dst; cum }
  | 6 ->
      let src = get_varint c in
      let dst = get_varint c in
      Event.Link_failure { src; dst }
  | 7 ->
      let proc = get_varint c in
      let label = get_string c in
      Event.Proc_block { proc; label }
  | 8 -> Event.Proc_resume { proc = get_varint c }
  | 9 -> Event.Proc_finish { proc = get_varint c }
  | 10 ->
      let proc = get_varint c in
      let page = get_varint c in
      let kind = get_kind c in
      Event.Page_fault { proc; page; kind }
  | 11 ->
      let proc = get_varint c in
      let page = get_varint c in
      let count = get_varint c in
      Event.Diff_fetch { proc; page; count }
  | 12 ->
      let proc = get_varint c in
      let page = get_varint c in
      let words = get_varint c in
      Event.Diff_apply { proc; page; words }
  | 13 ->
      let proc = get_varint c in
      let lock = get_varint c in
      let vc = get_vc c in
      Event.Lock_acquire { proc; lock; vc }
  | 14 ->
      let proc = get_varint c in
      let lock = get_varint c in
      let vc = get_vc c in
      Event.Lock_release { proc; lock; vc }
  | 15 ->
      let proc = get_varint c in
      let epoch = get_varint c in
      Event.Barrier_enter { proc; epoch }
  | 16 ->
      let proc = get_varint c in
      let epoch = get_varint c in
      let vc = get_vc c in
      Event.Barrier_leave { proc; epoch; vc }
  | 17 ->
      let proc = get_varint c in
      let index = get_varint c in
      let epoch = get_varint c in
      Event.Interval_open { proc; index; epoch }
  | 18 ->
      let proc = get_varint c in
      let index = get_varint c in
      let epoch = get_varint c in
      let write_pages = get_list c get_varint in
      let read_pages = get_list c get_varint in
      Event.Interval_close { proc; index; epoch; write_pages; read_pages }
  | 19 ->
      let a = get_iid c in
      let b = get_iid c in
      let pages = get_list c get_varint in
      Event.Check_entry { a; b; pages }
  | 20 ->
      let addr = get_varint c in
      let page = get_varint c in
      let word = get_varint c in
      let fid = get_iid c in
      let fk = get_kind c in
      let sid = get_iid c in
      let sk = get_kind c in
      let epoch = get_varint c in
      Event.Race
        { Proto.Race.addr; page; word; first = (fid, fk); second = (sid, sk); epoch }
  | 21 ->
      let checksum = get_varint c in
      let sim_time_ns = get_varint c in
      let races = get_varint c in
      Event.Run_end { checksum; sim_time_ns; races }
  | 22 ->
      let proc = get_varint c in
      let kind =
        match byte c with
        | 0 -> Event.Bus_rd
        | 1 -> Event.Bus_rdx
        | 2 -> Event.Bus_upgr
        | 3 -> Event.Bus_upd
        | 4 -> Event.Bus_wb
        | 5 -> Event.Bus_sync
        | k -> fail "bad bus kind %d at byte %d" k c.pos
      in
      let line = get_varint c in
      Event.Bus { proc; kind; line }
  | k -> fail "unknown event tag %d at byte %d" k (c.pos - 1)

(* --- incremental encoder --- *)

type encoder = { buf : Buffer.t; mutable last_time : int; mutable count : int }

let encoder meta =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf magic;
  Buffer.add_char buf (Char.chr version);
  put_meta buf meta;
  { buf; last_time = 0; count = 0 }

let add enc ~time event =
  put_varint enc.buf (time - enc.last_time);
  enc.last_time <- time;
  put_event enc.buf event;
  enc.count <- enc.count + 1

let count enc = enc.count
let contents enc = Buffer.contents enc.buf

let encode meta events =
  let enc = encoder meta in
  Array.iter (fun (time, event) -> add enc ~time event) events;
  contents enc

(* --- decoder --- *)

(* A decoded log keeps the log's bytes, not its events: [decode] checks
   every record once, and a {!reader} decodes them again, one at a time,
   for whoever walks the log. *)
type decoded = {
  meta : meta;
  log : string;
  first : int;  (* byte offset of the first record *)
  count : int;
  races : Proto.Race.t list;  (* the Race records, in log order *)
  run_end : (int * int) option;  (* checksum and sim time of the last Run_end *)
}

let decode s =
  if String.length s < 5 || String.sub s 0 4 <> magic then
    raise (Corrupt "not a CVM trace log (bad magic)");
  let log_version = Char.code s.[4] in
  if log_version > version then
    fail
      "trace log format v%d is newer than this build supports (max v%d) — replay it with \
       the build that recorded it, or re-record"
      log_version version;
  if log_version < version then
    fail
      "trace log format v%d is older than the minimum this build supports (v%d) — replay \
       it with the build that recorded it"
      log_version version;
  let c = { src = s; pos = 5 } in
  let meta = get_meta c in
  let first = c.pos in
  let count = ref 0 and races = ref [] and run_end = ref None in
  while c.pos < String.length s do
    (* the time delta: only a reader needs it *)
    ignore (get_varint c : int);
    (match get_event c with
    | Event.Race r -> races := r :: !races
    | Event.Run_end { checksum; sim_time_ns; _ } -> run_end := Some (checksum, sim_time_ns)
    | _ -> ());
    incr count
  done;
  { meta; log = s; first; count = !count; races = List.rev !races; run_end = !run_end }

(* --- reader --- *)

type reader = { cur : cursor; mutable time : int; mutable start : int }

let reader d = { cur = { src = d.log; pos = d.first }; time = 0; start = d.first }
let more r = r.cur.pos < String.length r.cur.src

let next r =
  r.time <- r.time + get_varint r.cur;
  r.start <- r.cur.pos;
  get_event r.cur

let time r = r.time
let event_start r = r.start
let event_end r = r.cur.pos
let event_at d start = get_event { src = d.log; pos = start }
