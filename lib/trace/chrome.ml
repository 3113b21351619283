(* Chrome trace-event export: one JSON object per event in the "trace
   event format" that chrome://tracing and Perfetto load directly. The
   events come from a reader over the log's bytes, one at a time, and
   each object goes to the output channel as it is made.

   Track layout (all under pid 0): one tid per processor, then one tid
   per directed link that ever carried traffic. Blocked stretches render
   as slices (ph B/E) on the processor tracks; everything else is an
   instant with its fields in [args]. *)

let escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun ch ->
      match ch with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

type emitter = {
  oc : out_channel;
  mutable first : bool;
  nprocs : int;
  link_tids : (int * int, int) Hashtbl.t;  (* (src, dst) -> tid *)
  mutable next_tid : int;
  mutable open_block : bool array;  (* per proc: a B slice awaits its E *)
}

let obj e fields =
  if e.first then e.first <- false else output_string e.oc ",\n";
  output_char e.oc '{';
  List.iteri
    (fun i (k, v) ->
      if i > 0 then output_char e.oc ',';
      Printf.fprintf e.oc "\"%s\":%s" k v)
    fields;
  output_char e.oc '}'

let str s = Printf.sprintf "\"%s\"" (escape s)
let ts_us ns = Printf.sprintf "%.3f" (float_of_int ns /. 1000.)

let thread_name e ~tid name =
  obj e
    [
      ("name", str "thread_name");
      ("ph", str "M");
      ("pid", "0");
      ("tid", string_of_int tid);
      ("args", Printf.sprintf "{\"name\":%s}" (str name));
    ]

let link_tid e ~src ~dst =
  match Hashtbl.find_opt e.link_tids (src, dst) with
  | Some tid -> tid
  | None ->
      let tid = e.next_tid in
      e.next_tid <- tid + 1;
      Hashtbl.add e.link_tids (src, dst) tid;
      thread_name e ~tid (Printf.sprintf "link %d->%d" src dst);
      tid

let instant e ~tid ~time ~name args =
  obj e
    [
      ("name", str name);
      ("ph", str "i");
      ("s", str "t");
      ("ts", ts_us time);
      ("pid", "0");
      ("tid", string_of_int tid);
      ("args", args);
    ]

let slice e ~tid ~time ~ph ~name =
  obj e
    [
      ("name", str name);
      ("ph", str ph);
      ("ts", ts_us time);
      ("pid", "0");
      ("tid", string_of_int tid);
    ]

let args fmt = Printf.ksprintf (fun s -> s) fmt

let emit_event e ~time (event : Event.t) =
  match event with
  | Event.Proc_block { proc; label } ->
      if proc < e.nprocs then begin
        (* close a dangling slice before opening the next: Engine wakes can
           race handler-side blocks in the raw stream *)
        if e.open_block.(proc) then slice e ~tid:proc ~time ~ph:"E" ~name:"";
        e.open_block.(proc) <- true;
        slice e ~tid:proc ~time ~ph:"B" ~name:(Printf.sprintf "blocked: %s" label)
      end
  | Event.Proc_resume { proc } ->
      if proc < e.nprocs && e.open_block.(proc) then begin
        e.open_block.(proc) <- false;
        slice e ~tid:proc ~time ~ph:"E" ~name:""
      end
  | Event.Proc_finish { proc } ->
      if proc < e.nprocs then begin
        if e.open_block.(proc) then begin
          e.open_block.(proc) <- false;
          slice e ~tid:proc ~time ~ph:"E" ~name:""
        end;
        instant e ~tid:proc ~time ~name:"finish" "{}"
      end
  | Event.Msg_send { src; dst; kind; bytes } ->
      instant e ~tid:(link_tid e ~src ~dst) ~time ~name:(Printf.sprintf "send %s" kind)
        (args "{\"bytes\":%d}" bytes)
  | Event.Msg_deliver { src; dst; kind; bytes } ->
      instant e ~tid:(link_tid e ~src ~dst) ~time
        ~name:(Printf.sprintf "deliver %s" kind)
        (args "{\"bytes\":%d}" bytes)
  | Event.Fault { src; dst; outcome } ->
      let name =
        match outcome with
        | Event.Passed _ -> "fault: delayed/duplicated"
        | Event.Dropped -> "fault: dropped"
        | Event.Blackholed -> "fault: blackholed"
      in
      instant e ~tid:(link_tid e ~src ~dst) ~time ~name "{}"
  | Event.Partition { a; b; up } ->
      instant e
        ~tid:(link_tid e ~src:a ~dst:b)
        ~time
        ~name:(if up then "partition healed" else "partition cut")
        "{}"
  | Event.Retransmit { src; dst; seq } ->
      instant e ~tid:(link_tid e ~src ~dst) ~time ~name:"retransmit"
        (args "{\"seq\":%d}" seq)
  | Event.Ack { src; dst; cum } ->
      instant e ~tid:(link_tid e ~src ~dst) ~time ~name:"ack"
        (args "{\"cum\":%d}" cum)
  | Event.Link_failure { src; dst } ->
      instant e ~tid:(link_tid e ~src ~dst) ~time ~name:"link failure" "{}"
  | Event.Page_fault { proc; page; kind } ->
      if proc < e.nprocs then
        instant e ~tid:proc ~time
          ~name:
            (Printf.sprintf "%s fault"
               (match kind with Proto.Race.Read -> "read" | Write -> "write"))
          (args "{\"page\":%d}" page)
  | Event.Diff_fetch { proc; page; count } ->
      if proc < e.nprocs then
        instant e ~tid:proc ~time ~name:"diff fetch"
          (args "{\"page\":%d,\"writers\":%d}" page count)
  | Event.Diff_apply { proc; page; words } ->
      if proc < e.nprocs then
        instant e ~tid:proc ~time ~name:"diff apply"
          (args "{\"page\":%d,\"words\":%d}" page words)
  | Event.Lock_acquire { proc; lock; _ } ->
      if proc < e.nprocs then
        instant e ~tid:proc ~time ~name:(Printf.sprintf "acquire lock %d" lock) "{}"
  | Event.Lock_release { proc; lock; _ } ->
      if proc < e.nprocs then
        instant e ~tid:proc ~time ~name:(Printf.sprintf "release lock %d" lock) "{}"
  | Event.Barrier_enter { proc; epoch } ->
      if proc < e.nprocs then
        instant e ~tid:proc ~time ~name:"barrier enter" (args "{\"epoch\":%d}" epoch)
  | Event.Barrier_leave { proc; epoch; _ } ->
      if proc < e.nprocs then
        instant e ~tid:proc ~time ~name:"barrier leave" (args "{\"epoch\":%d}" epoch)
  | Event.Interval_open { proc; index; epoch } ->
      if proc < e.nprocs then
        instant e ~tid:proc ~time ~name:"interval open"
          (args "{\"index\":%d,\"epoch\":%d}" index epoch)
  | Event.Interval_close { proc; index; epoch; write_pages; read_pages } ->
      if proc < e.nprocs then
        instant e ~tid:proc ~time ~name:"interval close"
          (args "{\"index\":%d,\"epoch\":%d,\"writes\":%d,\"reads\":%d}" index epoch
             (List.length write_pages) (List.length read_pages))
  | Event.Bus { proc; kind; line } ->
      if proc < e.nprocs then
        instant e ~tid:proc ~time
          ~name:(Printf.sprintf "bus %s" (Event.bus_kind_name kind))
          (args "{\"line\":%d}" line)
  | Event.Check_entry { a; b; pages } ->
      instant e ~tid:(min a.Proto.Interval.proc (e.nprocs - 1)) ~time ~name:"check"
        (args "{\"a\":\"%d.%d\",\"b\":\"%d.%d\",\"pages\":%d}" a.Proto.Interval.proc
           a.Proto.Interval.index b.Proto.Interval.proc b.Proto.Interval.index
           (List.length pages))
  | Event.Race r ->
      let tid = (fst r.Proto.Race.first).Proto.Interval.proc in
      instant e ~tid:(min tid (e.nprocs - 1)) ~time ~name:"RACE"
        (args "{\"addr\":%d,\"page\":%d,\"word\":%d}" r.Proto.Race.addr
           r.Proto.Race.page r.Proto.Race.word)
  | Event.Run_end { checksum; sim_time_ns; races } ->
      instant e ~tid:0 ~time ~name:"run end"
        (args "{\"checksum\":%d,\"sim_time_ns\":%d,\"races\":%d}" checksum sim_time_ns
           races)

let export oc (decoded : Codec.decoded) =
  let nprocs = max 1 decoded.Codec.meta.Codec.m_nprocs in
  let e =
    {
      oc;
      first = true;
      nprocs;
      link_tids = Hashtbl.create 16;
      next_tid = nprocs;
      open_block = Array.make nprocs false;
    }
  in
  output_string oc "[\n";
  for p = 0 to nprocs - 1 do
    thread_name e ~tid:p (Printf.sprintf "proc %d" p)
  done;
  let r = Codec.reader decoded in
  while Codec.more r do
    let event = Codec.next r in
    emit_event e ~time:(Codec.time r) event
  done;
  (* close any still-open blocked slices at the last timestamp *)
  Array.iteri
    (fun p open_ -> if open_ then slice e ~tid:p ~time:(Codec.time r) ~ph:"E" ~name:"")
    e.open_block;
  output_string oc "\n]\n"
