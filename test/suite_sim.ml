(* Unit and property tests for the simulation substrate: priority queue,
   RNG, engine, and network. *)

let check = Alcotest.check

(* ------------------------------------------------------------------ *)
(* Pqueue                                                              *)

let test_pqueue_ordering () =
  let q = Sim.Pqueue.create () in
  Sim.Pqueue.push q ~time:30 3;
  Sim.Pqueue.push q ~time:10 1;
  Sim.Pqueue.push q ~time:20 2;
  let next () =
    let time = Sim.Pqueue.top_time q in
    (time, Sim.Pqueue.take q)
  in
  check (Alcotest.pair Alcotest.int Alcotest.int) "first" (10, 1) (next ());
  check (Alcotest.pair Alcotest.int Alcotest.int) "second" (20, 2) (next ());
  check (Alcotest.pair Alcotest.int Alcotest.int) "third" (30, 3) (next ());
  check Alcotest.bool "empty" true (Sim.Pqueue.is_empty q);
  Alcotest.check_raises "take from an empty queue"
    (Invalid_argument "Pqueue.take: empty queue") (fun () -> ignore (Sim.Pqueue.take q))

let test_pqueue_tie_break () =
  (* same time: pops in insertion order, the determinism guarantee *)
  let q = Sim.Pqueue.create () in
  List.iter (fun v -> Sim.Pqueue.push q ~time:5 v) [ 1; 2; 3; 4; 5 ];
  let popped = List.init 5 (fun _ -> Sim.Pqueue.take q) in
  check (Alcotest.list Alcotest.int) "fifo at equal time" [ 1; 2; 3; 4; 5 ] popped

let test_pqueue_peek () =
  let q = Sim.Pqueue.create () in
  Alcotest.check_raises "top_time of an empty queue"
    (Invalid_argument "Pqueue.top_time: empty queue") (fun () ->
      ignore (Sim.Pqueue.top_time q));
  Sim.Pqueue.push q ~time:42 0;
  check Alcotest.int "top_time" 42 (Sim.Pqueue.top_time q);
  check Alcotest.int "length" 1 (Sim.Pqueue.length q)

let prop_pqueue_sorted =
  QCheck.Test.make ~name:"pqueue pops sorted by (time, insertion)" ~count:200
    QCheck.(list (int_bound 1000))
    (fun times ->
      let q = Sim.Pqueue.create () in
      List.iteri (fun i time -> Sim.Pqueue.push q ~time i) times;
      let rec drain acc =
        if Sim.Pqueue.is_empty q then List.rev acc
        else
          let time = Sim.Pqueue.top_time q in
          drain ((time, Sim.Pqueue.take q) :: acc)
      in
      let popped = drain [] in
      let sorted = List.stable_sort (fun (t1, s1) (t2, s2) ->
          match compare t1 t2 with 0 -> compare s1 s2 | c -> c)
          (List.mapi (fun i time -> (time, i)) times)
      in
      popped = sorted)

let test_pqueue_no_alloc () =
  (* the engine pushes and takes once per event: neither may allocate
     once the arrays have grown *)
  let q = Sim.Pqueue.create () in
  for i = 0 to 7 do
    Sim.Pqueue.push q ~time:i i
  done;
  let rounds = 10_000 in
  let before = Gc.minor_words () in
  for i = 1 to rounds do
    let time = Sim.Pqueue.top_time q in
    let handle = Sim.Pqueue.take q in
    Sim.Pqueue.push q ~time:(time + 1 + (i land 7)) handle
  done;
  let words = Gc.minor_words () -. before in
  check Alcotest.int "still 8 entries" 8 (Sim.Pqueue.length q);
  if words > 16.0 then
    Alcotest.failf "%d takes and pushes allocated %.0f minor words" rounds words

(* ------------------------------------------------------------------ *)
(* Rng                                                                 *)

let test_rng_deterministic () =
  let a = Sim.Rng.create ~seed:99 and b = Sim.Rng.create ~seed:99 in
  let xs = List.init 50 (fun _ -> Sim.Rng.int a 1000) in
  let ys = List.init 50 (fun _ -> Sim.Rng.int b 1000) in
  check (Alcotest.list Alcotest.int) "same seed, same stream" xs ys

let test_rng_bounds () =
  let rng = Sim.Rng.create ~seed:1 in
  for _ = 1 to 1000 do
    let v = Sim.Rng.int rng 7 in
    if v < 0 || v >= 7 then Alcotest.fail "Rng.int out of bounds"
  done;
  for _ = 1 to 1000 do
    let f = Sim.Rng.float rng 2.5 in
    if f < 0.0 || f >= 2.5 then Alcotest.fail "Rng.float out of bounds"
  done

let test_rng_split_independent () =
  let root = Sim.Rng.create ~seed:5 in
  let a = Sim.Rng.split root and b = Sim.Rng.split root in
  let xs = List.init 20 (fun _ -> Sim.Rng.int a 1_000_000) in
  let ys = List.init 20 (fun _ -> Sim.Rng.int b 1_000_000) in
  check Alcotest.bool "distinct streams" true (xs <> ys)

let test_rng_shuffle_permutes () =
  let rng = Sim.Rng.create ~seed:3 in
  let arr = Array.init 30 Fun.id in
  Sim.Rng.shuffle_in_place rng arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  check (Alcotest.array Alcotest.int) "permutation" (Array.init 30 Fun.id) sorted

(* ------------------------------------------------------------------ *)
(* Engine                                                              *)

let test_engine_advance_interleaves () =
  let engine = Sim.Engine.create () in
  let log = ref [] in
  let mark pid = log := (pid, Sim.Engine.now engine) :: !log in
  let body_a _pid =
    Sim.Engine.advance engine 10;
    mark 0;
    Sim.Engine.advance engine 20;
    mark 0
  in
  let body_b _pid =
    Sim.Engine.advance engine 15;
    mark 1;
    Sim.Engine.advance engine 1;
    mark 1
  in
  ignore (Sim.Engine.spawn engine body_a);
  ignore (Sim.Engine.spawn engine body_b);
  Sim.Engine.run engine;
  check
    (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int))
    "interleaving by virtual time"
    [ (0, 10); (1, 15); (1, 16); (0, 30) ]
    (List.rev !log)

let test_engine_block_wake () =
  let engine = Sim.Engine.create () in
  let woke_at = ref (-1) in
  let sleeper_pid = ref (-1) in
  let sleeper _pid =
    Sim.Engine.block ~label:"test sleep";
    woke_at := Sim.Engine.now engine
  in
  let waker _pid =
    Sim.Engine.advance engine 500;
    Sim.Engine.wake engine !sleeper_pid
  in
  sleeper_pid := Sim.Engine.spawn engine sleeper;
  ignore (Sim.Engine.spawn engine waker);
  Sim.Engine.run engine;
  check Alcotest.int "woken at waker's time" 500 !woke_at

let test_engine_wake_before_block () =
  (* a wakeup that arrives before the block must not be lost *)
  let engine = Sim.Engine.create () in
  let finished = ref false in
  let pid = ref (-1) in
  let sleeper _pid =
    Sim.Engine.advance engine 100;
    Sim.Engine.block ~label:"late block";
    finished := true
  in
  let waker _pid = Sim.Engine.wake engine !pid in
  pid := Sim.Engine.spawn engine sleeper;
  ignore (Sim.Engine.spawn engine waker);
  Sim.Engine.run engine;
  check Alcotest.bool "sticky wakeup" true !finished

let test_engine_deadlock_detected () =
  let engine = Sim.Engine.create () in
  ignore (Sim.Engine.spawn engine (fun _ -> Sim.Engine.block ~label:"forever"));
  match Sim.Engine.run engine with
  | () -> Alcotest.fail "expected Deadlock"
  | exception Sim.Engine.Deadlock diagnosis ->
      check Alcotest.int "one live process" 1 diagnosis.Sim.Engine.diag_live;
      check Alcotest.bool "mentions label" true
        (Testutil.contains (Sim.Engine.diagnosis_to_string diagnosis) "forever")

let test_engine_deadlock_diagnostics () =
  (* registered subsystem reporters contribute lines to the diagnosis *)
  let engine = Sim.Engine.create () in
  Sim.Engine.add_diagnostic engine (fun () -> [ "subsystem: 3 requests stuck" ]);
  ignore (Sim.Engine.spawn engine (fun _ -> Sim.Engine.block ~label:"lost wakeup"));
  match Sim.Engine.run engine with
  | () -> Alcotest.fail "expected Deadlock"
  | exception Sim.Engine.Deadlock diagnosis ->
      check (Alcotest.list Alcotest.string) "reporter lines"
        [ "subsystem: 3 requests stuck" ] diagnosis.Sim.Engine.diag_notes

let test_engine_many_procs () =
  (* the growable process table: spawn far past the initial capacity and
     wake by pid across the whole range *)
  let engine = Sim.Engine.create () in
  let n = 1_000 in
  let woken = Array.make n false in
  let pids =
    Array.init n (fun i ->
        Sim.Engine.spawn engine (fun _ ->
            Sim.Engine.block ~label:"mass";
            woken.(i) <- true))
  in
  ignore
    (Sim.Engine.spawn engine (fun _ ->
         Sim.Engine.advance engine 10;
         Array.iter (fun pid -> Sim.Engine.wake engine pid) pids));
  Sim.Engine.run engine;
  check Alcotest.bool "all woken" true (Array.for_all Fun.id woken)

(* [advance] is performed on every bus transaction: it may allocate
   only the continuation (2 words), plus a fixed start-up per run under
   1,000 words. The 11-word case keeps the ceiling of an advance that
   also allocates its effect payload, [Some k] and a queue entry record. *)
let test_engine_advance_words ~per_call () =
  let procs = 4 and advances = 10_000 in
  let engine = Sim.Engine.create () in
  for _ = 1 to procs do
    ignore
      (Sim.Engine.spawn engine (fun _ ->
           for _ = 1 to advances do
             Sim.Engine.advance engine 3
           done))
  done;
  let before = Gc.minor_words () in
  Sim.Engine.run engine;
  let words = Gc.minor_words () -. before in
  let calls = float_of_int (procs * advances) in
  if words > (per_call *. calls) +. 1000.0 then
    Alcotest.failf "%.0f advances allocated %.0f minor words (%.2f per call)" calls words
      (words /. calls)

let test_engine_exception_propagates () =
  let engine = Sim.Engine.create () in
  ignore (Sim.Engine.spawn engine (fun _ -> failwith "boom"));
  match Sim.Engine.run engine with
  | () -> Alcotest.fail "expected exception"
  | exception Failure m -> check Alcotest.string "payload" "boom" m

let test_engine_schedule_thunk () =
  let engine = Sim.Engine.create () in
  let fired = ref (-1) in
  Sim.Engine.schedule engine ~at:77 (fun () -> fired := Sim.Engine.now engine);
  Sim.Engine.run engine;
  check Alcotest.int "thunk time" 77 !fired

let test_engine_thunk_collectable () =
  (* a thunk that has run must not stay reachable through the engine's
     thunk table: a long run schedules millions of thunks that close
     over messages and pages *)
  let engine = Sim.Engine.create () in
  let w = Weak.create 1 in
  let () =
    (* allocate in a local scope so no stack root survives below *)
    let v = Bytes.make 64 'x' in
    Weak.set w 0 (Some v);
    Sim.Engine.schedule engine ~at:1 (fun () -> ignore (Sys.opaque_identity v))
  in
  let collectable = ref false in
  Sim.Engine.schedule engine ~at:2 (fun () ->
      Gc.full_major ();
      Gc.full_major ();
      collectable := Weak.get w 0 = None);
  Sim.Engine.run engine;
  check Alcotest.bool "a thunk that has run is collectable while the engine lives" true
    !collectable

let test_engine_thunk_table_growth () =
  (* 40 thunks queued at once grow the table past its first capacity,
     and each schedules three more as it runs, into freed and new slots
     alike: all 160 fire once, in (time, schedule order) *)
  let engine = Sim.Engine.create () in
  let fired = ref [] and next_id = ref 0 in
  let rec sched ~at ~children =
    let id = !next_id in
    incr next_id;
    Sim.Engine.schedule engine ~at (fun () ->
        let now = Sim.Engine.now engine in
        fired := (now, id) :: !fired;
        if children then
          for _ = 1 to 3 do
            sched ~at:(now + (!next_id mod 5)) ~children:false
          done)
  in
  for i = 0 to 39 do
    sched ~at:(i * 7 mod 13) ~children:true
  done;
  Sim.Engine.run engine;
  let fired = List.rev !fired in
  check Alcotest.int "every thunk fired" 160 (List.length fired);
  check
    (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int))
    "(time, schedule order)" (List.sort compare fired) fired;
  check (Alcotest.list Alcotest.int) "each once" (List.init 160 Fun.id)
    (List.sort compare (List.map snd fired))

(* A script-driven differential test of the engine. A process runs a
   list of operations; a thunk logs itself and may wake a process. The
   reference below interprets the same scripts without effects, over
   entry records keyed by (time, seq) as the engine's heap kept them
   before its queue held integers, and both must log the same
   (time, who) sequence and end in the same blocked set. *)

type op =
  | Adv of int  (** advance; 0 does not suspend *)
  | Blk
  | Wk of int  (** wake pid [k mod nprocs] *)
  | Sch of int * int option  (** a thunk after a delay, waking [k mod nprocs] *)
  | Spn of op list

let rec pp_op = function
  | Adv n -> Printf.sprintf "adv %d" n
  | Blk -> "block"
  | Wk k -> Printf.sprintf "wake %d" k
  | Sch (d, None) -> Printf.sprintf "sched +%d" d
  | Sch (d, Some k) -> Printf.sprintf "sched +%d wake %d" d k
  | Spn ops -> "spawn [" ^ String.concat "; " (List.map pp_op ops) ^ "]"

let gen_script =
  let open QCheck.Gen in
  let leaf =
    [
      (4, map (fun n -> Adv n) (int_bound 20));
      (2, return Blk);
      (2, map (fun k -> Wk k) (int_bound 7));
      (2, map2 (fun d k -> Sch (d, k)) (int_bound 20) (opt (int_bound 7)));
    ]
  in
  (* a spawned process runs leaf operations only *)
  let spawn = map (fun s -> Spn s) (list_size (int_bound 6) (frequency leaf)) in
  list_size (int_range 1 4) (list_size (int_bound 8) (frequency ((1, spawn) :: leaf)))

(* The engine: each process interprets its script. *)
let engine_log scripts =
  let engine = Sim.Engine.create () in
  let log = ref [] and thunks = ref 0 in
  let nprocs = ref 0 in
  let wake k = Sim.Engine.wake engine (k mod !nprocs) in
  let rec body ops pid =
    List.iteri
      (fun pc op ->
        log := (Sim.Engine.now engine, Printf.sprintf "p%d.%d" pid pc) :: !log;
        match op with
        | Adv n -> Sim.Engine.advance engine n
        | Blk -> Sim.Engine.block ~label:"script"
        | Wk k -> wake k
        | Sch (d, target) ->
            let id = !thunks in
            incr thunks;
            Sim.Engine.schedule_after engine ~delay:d (fun () ->
                log := (Sim.Engine.now engine, Printf.sprintf "t%d" id) :: !log;
                Option.iter wake target)
        | Spn ops -> spawn ops)
      ops
  and spawn ops =
    incr nprocs;
    ignore (Sim.Engine.spawn engine (body ops))
  in
  List.iter spawn scripts;
  let blocked =
    match Sim.Engine.run engine with
    | () -> []
    | exception Sim.Engine.Deadlock d -> List.map fst d.Sim.Engine.diag_blocked
  in
  (List.rev !log, blocked)

(* The reference's queue: a list of entry records whose [take] scans
   for the least (time, seq), so it shares no sifting code with the
   engine's heap. *)
module Entry_heap = struct
  type 'a entry = { time : int; seq : int; value : 'a }
  type 'a t = { mutable data : 'a entry list; mutable next_seq : int }

  let create () = { data = []; next_seq = 0 }
  let before a b = a.time < b.time || (a.time = b.time && a.seq < b.seq)

  let push t ~time value =
    t.data <- { time; seq = t.next_seq; value } :: t.data;
    t.next_seq <- t.next_seq + 1

  let take t =
    match t.data with
    | [] -> None
    | e :: rest ->
        let min = List.fold_left (fun m e -> if before e m then e else m) e rest in
        t.data <- List.filter (fun e -> e != min) t.data;
        Some min
end

type ref_state = R_created | R_running | R_blocked | R_finished

type ref_proc = {
  script : op array;
  mutable pc : int;
  mutable st : ref_state;
  mutable pending_wake : bool;
}

type ref_action = Run of int | Thunk of int * int option

let reference_log scripts =
  let q = Entry_heap.create () in
  let procs = ref [||] and now = ref 0 and log = ref [] and thunks = ref 0 in
  let spawn ops =
    let pid = Array.length !procs in
    procs :=
      Array.append !procs
        [| { script = Array.of_list ops; pc = 0; st = R_created; pending_wake = false } |];
    Entry_heap.push q ~time:!now (Run pid)
  in
  let wake k =
    let pid = k mod Array.length !procs in
    let p = !procs.(pid) in
    match p.st with
    | R_blocked ->
        p.st <- R_running;
        Entry_heap.push q ~time:!now (Run pid)
    | R_created | R_running -> p.pending_wake <- true
    | R_finished -> ()
  in
  (* run [pid] until it suspends or finishes *)
  let rec step pid =
    let p = !procs.(pid) in
    if p.pc >= Array.length p.script then p.st <- R_finished
    else begin
      let pc = p.pc in
      p.pc <- pc + 1;
      log := (!now, Printf.sprintf "p%d.%d" pid pc) :: !log;
      match p.script.(pc) with
      | Adv n when n > 0 -> Entry_heap.push q ~time:(!now + n) (Run pid)
      | Adv _ -> step pid
      | Blk ->
          if p.pending_wake then begin
            p.pending_wake <- false;
            step pid
          end
          else p.st <- R_blocked
      | Wk k ->
          wake k;
          step pid
      | Sch (d, target) ->
          Entry_heap.push q ~time:(!now + d) (Thunk (!thunks, target));
          incr thunks;
          step pid
      | Spn ops ->
          spawn ops;
          step pid
    end
  in
  List.iter spawn scripts;
  let rec loop () =
    match Entry_heap.take q with
    | None -> ()
    | Some { Entry_heap.time; value; _ } ->
        now := time;
        (match value with
        | Run pid ->
            !procs.(pid).st <- R_running;
            step pid
        | Thunk (id, target) ->
            log := (time, Printf.sprintf "t%d" id) :: !log;
            Option.iter wake target);
        loop ()
  in
  loop ();
  let blocked = ref [] in
  Array.iteri (fun pid p -> if p.st = R_blocked then blocked := pid :: !blocked) !procs;
  (List.rev !log, List.rev !blocked)

let prop_engine_matches_reference =
  QCheck.Test.make ~name:"engine = entry-record reference on random scripts" ~count:500
    (QCheck.make
       ~print:(fun scripts ->
         String.concat "\n"
           (List.map (fun ops -> "[" ^ String.concat "; " (List.map pp_op ops) ^ "]") scripts))
       gen_script)
    (fun scripts -> engine_log scripts = reference_log scripts)

(* ------------------------------------------------------------------ *)
(* Net                                                                 *)

let test_net_latency_and_accounting () =
  let engine = Sim.Engine.create () in
  let stats = Sim.Stats.create () in
  let net = Sim.Net.create engine stats ~nodes:2 ~size_of:(fun _ -> 100) in
  let delivered_at = ref (-1) in
  Sim.Net.set_handler net ~node:1 (fun () -> delivered_at := Sim.Engine.now engine);
  ignore
    (Sim.Engine.spawn engine (fun _ ->
         Sim.Engine.advance engine 1000;
         Sim.Net.send net ~src:0 ~dst:1 ()));
  Sim.Engine.run engine;
  check Alcotest.int "latency model" (1000 + Sim.Cost.message_ns ~bytes:100) !delivered_at;
  check Alcotest.int "message counted" 1 stats.Sim.Stats.messages;
  check Alcotest.int "bytes counted" 100 stats.Sim.Stats.bytes

(* messages of the given sizes, sent back to back on one link, arrive in
   send order: after a 4,096-byte page, a 64-byte message would arrive
   221,760 ns earlier without the per-link clamp *)
let test_net_fifo sizes () =
  let engine = Sim.Engine.create () in
  let stats = Sim.Stats.create () in
  let net = Sim.Net.create engine stats ~nodes:2 ~size_of:snd in
  let received = ref [] in
  Sim.Net.set_handler net ~node:1 (fun (i, _) -> received := i :: !received);
  ignore
    (Sim.Engine.spawn engine (fun _ ->
         List.iteri (fun i bytes -> Sim.Net.send net ~src:0 ~dst:1 (i, bytes)) sizes));
  Sim.Engine.run engine;
  check (Alcotest.list Alcotest.int) "fifo"
    (List.init (List.length sizes) Fun.id)
    (List.rev !received)

let test_net_no_handler_raises () =
  let engine = Sim.Engine.create () in
  let net =
    Sim.Net.create engine (Sim.Stats.create ()) ~nodes:2 ~size_of:(fun _ -> 8)
  in
  ignore (Sim.Engine.spawn engine (fun _ -> Sim.Net.send net ~src:0 ~dst:1 42));
  match Sim.Engine.run engine with
  | () -> Alcotest.fail "delivered to a node without a handler"
  | exception Invalid_argument msg ->
      check Alcotest.string "names the node" "Net: no handler at node 1" msg

(* the engine's tracer sees scheduling events, and a network created on
   the engine sees its sends and deliveries, each at its simulated time *)
let test_engine_tracer_events () =
  let engine = Sim.Engine.create () in
  let seen = ref [] in
  Sim.Engine.set_tracer engine
    (Some
       { Trace.Sink.emit = (fun ~time e -> seen := (time, Trace.Event.to_string e) :: !seen) });
  let net =
    Sim.Net.create ~describe:string_of_int engine (Sim.Stats.create ()) ~nodes:2
      ~size_of:(fun _ -> 64)
  in
  Sim.Net.set_handler net ~node:1 (fun _ -> Sim.Engine.wake engine 1);
  ignore (Sim.Engine.spawn engine (fun _ -> Sim.Net.send net ~src:0 ~dst:1 7));
  ignore (Sim.Engine.spawn engine (fun _ -> Sim.Engine.block ~label:"msg"));
  Sim.Engine.run engine;
  let at = Sim.Cost.message_ns ~bytes:64 in
  check
    (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.string))
    "events"
    [
      (0, "send 0->1 7 (64B)");
      (0, "finish p0");
      (0, "block p1 (msg)");
      (at, "deliver 0->1 7 (64B)");
      (at, "resume p1");
      (at, "finish p1");
    ]
    (List.rev !seen)

(* ------------------------------------------------------------------ *)
(* Transport over a lossy wire                                         *)

let lossy_net ?(transport = Sim.Transport.default_config) ~plan ~seed ~nodes () =
  let engine = Sim.Engine.create () in
  let stats = Sim.Stats.create () in
  let root = Sim.Rng.create ~seed in
  (* the fault stream is the root's second split, as in Lrc.Cluster *)
  ignore (Sim.Rng.split root);
  let fault_rng = Sim.Rng.split root in
  let net =
    Sim.Net.create ~fault:plan ~fault_rng ~transport engine stats ~nodes
      ~size_of:(fun _ -> 64)
  in
  (engine, stats, net)

let test_transport_delivers_under_loss () =
  let plan = { Sim.Fault.none with Sim.Fault.drop = 0.3; duplicate = 0.2; reorder = 0.3 } in
  let engine, stats, net = lossy_net ~plan ~seed:7 ~nodes:2 () in
  let received = ref [] in
  Sim.Net.set_handler net ~node:1 (fun v -> received := v :: !received);
  ignore
    (Sim.Engine.spawn engine (fun _ ->
         List.iter (fun v -> Sim.Net.send net ~src:0 ~dst:1 v) (List.init 50 Fun.id)));
  Sim.Engine.run engine;
  check (Alcotest.list Alcotest.int) "exactly once, in order" (List.init 50 Fun.id)
    (List.rev !received);
  check Alcotest.bool "wire actually lossy" true (stats.Sim.Stats.frames_dropped > 0);
  check Alcotest.bool "retransmissions happened" true (stats.Sim.Stats.retransmits > 0)

let test_transport_partition_heals () =
  (* frames sent into a partition are retransmitted through after it lifts *)
  let plan =
    {
      Sim.Fault.none with
      Sim.Fault.partitions =
        [ { Sim.Fault.p_a = 0; p_b = 1; p_from_ns = 0; p_until_ns = 30_000_000 } ];
    }
  in
  let engine, stats, net = lossy_net ~plan ~seed:11 ~nodes:2 () in
  let received = ref [] in
  Sim.Net.set_handler net ~node:1 (fun v -> received := v :: !received);
  ignore
    (Sim.Engine.spawn engine (fun _ ->
         List.iter (fun v -> Sim.Net.send net ~src:0 ~dst:1 v) [ 1; 2; 3 ]));
  Sim.Engine.run engine;
  check (Alcotest.list Alcotest.int) "delivered after heal" [ 1; 2; 3 ] (List.rev !received);
  check Alcotest.bool "heal needed retransmits" true (stats.Sim.Stats.retransmits > 0)

let test_transport_retry_cap_diagnosed () =
  (* a permanently dead link exhausts the retry cap; the blocked receiver
     then surfaces as a structured deadlock diagnosis, not a livelock *)
  let plan =
    {
      Sim.Fault.none with
      Sim.Fault.partitions =
        [ { Sim.Fault.p_a = 0; p_b = 1; p_from_ns = 0; p_until_ns = max_int } ];
    }
  in
  let engine, stats, net = lossy_net ~plan ~seed:13 ~nodes:2 () in
  Sim.Engine.add_diagnostic engine (fun () -> Sim.Net.diagnostics net);
  (* the receiver (pid 0) waits for node 0's handler to wake it *)
  Sim.Net.set_handler net ~node:0 (fun _ -> Sim.Engine.wake engine 0);
  ignore (Sim.Engine.spawn engine (fun _ -> Sim.Engine.block ~label:"net recv at node 0"));
  ignore
    (Sim.Engine.spawn engine (fun _ ->
         Sim.Engine.advance engine 10;
         Sim.Net.send net ~src:1 ~dst:0 42));
  (match Sim.Engine.run engine with
  | () -> Alcotest.fail "expected Deadlock"
  | exception Sim.Engine.Deadlock diagnosis ->
      let text = Sim.Engine.diagnosis_to_string diagnosis in
      check Alcotest.bool "names the blocked receiver" true
        (Testutil.contains text "net recv at node 0");
      check Alcotest.bool "reports the failed link" true (Testutil.contains text "FAILED"));
  check Alcotest.int "link declared failed" 1 stats.Sim.Stats.link_failures;
  (match Sim.Net.transport net with
  | Some transport ->
      check
        (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int))
        "failed link id" [ (1, 0) ]
        (Sim.Transport.failed_links transport)
  | None -> Alcotest.fail "transport expected")

let test_transport_charges_retransmit_bytes () =
  (* the same workload must cost more wire bytes at 30% drop than at 0% *)
  let run plan seed =
    let engine, stats, net = lossy_net ~plan ~seed ~nodes:2 () in
    Sim.Net.set_handler net ~node:1 (fun _ -> ());
    ignore
      (Sim.Engine.spawn engine (fun _ ->
           List.iter (fun v -> Sim.Net.send net ~src:0 ~dst:1 v) (List.init 30 Fun.id)));
    Sim.Engine.run engine;
    stats
  in
  let clean = run Sim.Fault.none 3 in
  let lossy = run { Sim.Fault.none with Sim.Fault.drop = 0.3 } 3 in
  check Alcotest.bool "no retransmits on a clean wire" true
    (clean.Sim.Stats.retransmits = 0);
  check Alcotest.bool "retransmitted bytes charged" true
    (lossy.Sim.Stats.bytes > clean.Sim.Stats.bytes)

let prop_transport_exactly_once_fifo =
  (* the tentpole invariant: under an arbitrary seeded drop/dup/reorder
     plan, every link still delivers exactly once and in order *)
  QCheck.Test.make ~name:"transport: per-link FIFO + exactly-once under faults" ~count:60
    QCheck.(
      quad (int_bound 10_000) (int_bound 45 (* % *)) (int_bound 45) (1 -- 60))
    (fun (seed, drop_pct, dup_pct, n_msgs) ->
      let plan =
        {
          Sim.Fault.none with
          Sim.Fault.drop = float_of_int drop_pct /. 100.0;
          duplicate = float_of_int dup_pct /. 100.0;
          reorder = 0.3;
        }
      in
      let nodes = 3 in
      (* an effectively unbounded retry cap: the property is about the
         FIFO/exactly-once invariant, not the give-up policy, and at 45%
         drop the default cap of 20 is occasionally (and correctly)
         exhausted *)
      let transport = { Sim.Transport.max_retries = max_int } in
      let engine, stats, net = lossy_net ~transport ~plan ~seed ~nodes () in
      let received = Array.make (nodes * nodes) [] in
      for dst = 0 to nodes - 1 do
        Sim.Net.set_handler net ~node:dst (fun (src, v) ->
            let link = (src * nodes) + dst in
            received.(link) <- v :: received.(link))
      done;
      ignore
        (Sim.Engine.spawn engine (fun _ ->
             for v = 1 to n_msgs do
               (* every ordered pair of distinct nodes, interleaved *)
               for src = 0 to nodes - 1 do
                 for dst = 0 to nodes - 1 do
                   if src <> dst then Sim.Net.send net ~src ~dst (src, v)
                 done
               done
             done));
      Sim.Engine.run engine;
      let expected = List.init n_msgs (fun i -> i + 1) in
      let ok = ref (stats.Sim.Stats.link_failures = 0) in
      for src = 0 to nodes - 1 do
        for dst = 0 to nodes - 1 do
          if src <> dst && List.rev received.((src * nodes) + dst) <> expected then ok := false
        done
      done;
      !ok)

let suite =
  [
    ( "sim:pqueue",
      [
        Alcotest.test_case "ordering" `Quick test_pqueue_ordering;
        Alcotest.test_case "tie-break fifo" `Quick test_pqueue_tie_break;
        Alcotest.test_case "peek/length" `Quick test_pqueue_peek;
        QCheck_alcotest.to_alcotest prop_pqueue_sorted;
        Alcotest.test_case "push and take allocate nothing" `Quick test_pqueue_no_alloc;
      ] );
    ( "sim:rng",
      [
        Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
        Alcotest.test_case "bounds" `Quick test_rng_bounds;
        Alcotest.test_case "split independence" `Quick test_rng_split_independent;
        Alcotest.test_case "shuffle permutes" `Quick test_rng_shuffle_permutes;
      ] );
    ( "sim:engine",
      [
        Alcotest.test_case "virtual-time interleaving" `Quick test_engine_advance_interleaves;
        Alcotest.test_case "block/wake" `Quick test_engine_block_wake;
        Alcotest.test_case "wake before block" `Quick test_engine_wake_before_block;
        Alcotest.test_case "deadlock detected" `Quick test_engine_deadlock_detected;
        Alcotest.test_case "deadlock diagnostics" `Quick test_engine_deadlock_diagnostics;
        Alcotest.test_case "growable proc table" `Quick test_engine_many_procs;
        Alcotest.test_case "exception propagates" `Quick test_engine_exception_propagates;
        Alcotest.test_case "scheduled thunk" `Quick test_engine_schedule_thunk;
        Alcotest.test_case "advance allocates 11 words" `Quick
          (test_engine_advance_words ~per_call:11.0);
        Alcotest.test_case "advance allocates 2 words" `Quick
          (test_engine_advance_words ~per_call:2.0);
        Alcotest.test_case "a run thunk is collectable" `Quick test_engine_thunk_collectable;
        Alcotest.test_case "thunk table growth keeps order" `Quick
          test_engine_thunk_table_growth;
        QCheck_alcotest.to_alcotest prop_engine_matches_reference;
      ] );
    ( "sim:net",
      [
        Alcotest.test_case "latency + accounting" `Quick test_net_latency_and_accounting;
        Alcotest.test_case "fifo same-size" `Quick (test_net_fifo [ 64; 64; 64 ]);
        Alcotest.test_case "fifo page then short" `Quick (test_net_fifo [ 4096; 64 ]);
        Alcotest.test_case "no handler raises" `Quick test_net_no_handler_raises;
        Alcotest.test_case "engine tracer sees sends and deliveries" `Quick
          test_engine_tracer_events;
      ] );
    ( "sim:transport",
      [
        Alcotest.test_case "delivers under loss" `Quick test_transport_delivers_under_loss;
        Alcotest.test_case "partition heals" `Quick test_transport_partition_heals;
        Alcotest.test_case "retry cap diagnosed" `Quick test_transport_retry_cap_diagnosed;
        Alcotest.test_case "retransmit bytes charged" `Quick
          test_transport_charges_retransmit_bytes;
        QCheck_alcotest.to_alcotest prop_transport_exactly_once_fifo;
      ] );
  ]
