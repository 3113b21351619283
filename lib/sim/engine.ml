(* Discrete-event simulation engine.

   Each simulated processor is a coroutine implemented with OCaml 5 effect
   handlers. A process runs real OCaml code and interacts with virtual time
   through two effects: [Advance] consumes simulated nanoseconds, and
   [Block] suspends the process until another party calls [wake].

   The scheduler is a single event loop over a deterministic priority queue,
   so a given program and seed always produce the same interleaving. The
   queue holds integers: a process is queued by its pid (it has at most
   one entry, its start or its resume) and a timed thunk by [-1 - slot]
   in a free-listed thunk table, whose slot is cleared when the thunk runs.

   [Advance] is the hot path: every bus transaction and every flush of a
   processor's time debt performs one. The duration passes through the
   engine's [pending] field, the effect is a constant, each process owns
   its [Advance] handler, built once when it starts, and the parked
   continuation goes into the process record's [cont] field, which only
   the [Ready] and [Blocked] states read. What an advance allocates is
   the continuation itself, 2 words.

   One failure detector guards the loop. If the event queue drains while
   processes are still blocked (a lost wakeup, a lock cycle, or a link
   the transport gave up on), [run] raises [Deadlock] carrying a
   structured diagnosis: every blocked process with its label, plus
   whatever lines the registered subsystem reporters (the transport's
   per-link unacked queues, the lock managers' queue depths) contribute.
   The library's events always drain: the only one that reschedules
   itself is the transport's retransmission timer, and the retry cap
   ends every such chain. *)

type pid = int

(* [Created]: its start is queued. [Ready]: parked by [advance], its
   resume queued. [Blocked]: parked by [block], nothing queued. [cont]
   holds the parked continuation in [Ready] and [Blocked] only. *)
type proc_state = Created | Running | Ready | Blocked | Finished

type proc = {
  pid : pid;
  mutable state : proc_state;
  mutable body : pid -> unit;  (* until the process starts *)
  mutable cont : (unit, unit) Effect.Deep.continuation;
  mutable wake_pending : bool;
  mutable blocked_label : string;  (* what the process is waiting for *)
}

type t = {
  mutable now : int;
  queue : Pqueue.t;  (* pids, and [-1 - slot] for timed thunks *)
  mutable procs : proc array;  (* indexed by pid; first [nprocs] slots live *)
  mutable nprocs : int;
  mutable live : int;
  mutable thunks : (unit -> unit) array;  (* queued thunks by slot *)
  mutable next_free : int array;  (* free-list links between thunk slots *)
  mutable free : int;  (* first free thunk slot, -1 when none *)
  mutable pending : int;  (* duration of the [Advance] being performed *)
  mutable diagnostics : (unit -> string list) list;  (* subsystem reporters *)
  mutable tracer : Trace.Sink.t option;  (* the run's record/replay sink *)
}

type diagnosis = {
  diag_time : int;  (* simulated time of the diagnosis *)
  diag_live : int;  (* processes not yet finished *)
  diag_blocked : (pid * string) list;  (* blocked processes and their labels *)
  diag_notes : string list;  (* lines from registered subsystem reporters *)
}

exception Deadlock of diagnosis

let pp_diagnosis ppf d =
  Format.fprintf ppf "@[<v>event queue drained at t=%d ns: %d process(es) live, %d blocked"
    d.diag_time d.diag_live
    (List.length d.diag_blocked);
  List.iter
    (fun (pid, label) -> Format.fprintf ppf "@   p%d waiting on %s" pid label)
    d.diag_blocked;
  List.iter (fun note -> Format.fprintf ppf "@   %s" note) d.diag_notes;
  Format.fprintf ppf "@]"

let diagnosis_to_string d = Format.asprintf "%a" pp_diagnosis d

let create () =
  {
    now = 0;
    queue = Pqueue.create ();
    procs = [||];
    nprocs = 0;
    live = 0;
    thunks = [||];
    next_free = [||];
    free = -1;
    pending = 0;
    diagnostics = [];
    tracer = None;
  }

let now t = t.now

let set_tracer t tracer = t.tracer <- tracer

let tracer t = t.tracer

let add_diagnostic t f = t.diagnostics <- t.diagnostics @ [ f ]

(* Timed thunks. *)

let no_thunk () = ()

let grow_thunks t =
  let used = Array.length t.thunks in
  let capacity = max 16 (2 * used) in
  let thunks = Array.make capacity no_thunk in
  Array.blit t.thunks 0 thunks 0 used;
  t.thunks <- thunks;
  (* every old slot is in use: the new ones form the whole free list *)
  t.next_free <- Array.init capacity (fun i -> if i + 1 < capacity then i + 1 else -1);
  t.free <- used

let schedule t ~at f =
  if at < t.now then invalid_arg "Engine.schedule: cannot schedule in the past";
  if t.free < 0 then grow_thunks t;
  let slot = t.free in
  t.free <- t.next_free.(slot);
  t.thunks.(slot) <- f;
  Pqueue.push t.queue ~time:at (-1 - slot)

let schedule_after t ~delay f = schedule t ~at:(t.now + delay) f

(* Clear and free the slot before the thunk runs, so the thunk is
   collectable once it returns and can reuse its own slot. *)
let run_thunk t slot =
  let f = t.thunks.(slot) in
  t.thunks.(slot) <- no_thunk;
  t.next_free.(slot) <- t.free;
  t.free <- slot;
  f ()

(* Processes. *)

let no_body (_ : pid) = ()

(* Read only in the [Ready] and [Blocked] states, which store a real
   continuation first. *)
let no_cont : (unit, unit) Effect.Deep.continuation = Obj.magic ()

let spawn t body =
  let pid = t.nprocs in
  let proc =
    { pid; state = Created; body; cont = no_cont; wake_pending = false; blocked_label = "" }
  in
  if pid >= Array.length t.procs then begin
    let grown = Array.make (max 8 (2 * Array.length t.procs)) proc in
    Array.blit t.procs 0 grown 0 t.nprocs;
    t.procs <- grown
  end;
  t.procs.(pid) <- proc;
  t.nprocs <- t.nprocs + 1;
  t.live <- t.live + 1;
  Pqueue.push t.queue ~time:t.now pid;
  pid

let find_proc t pid =
  if pid < 0 || pid >= t.nprocs then
    invalid_arg (Printf.sprintf "Engine: unknown pid %d" pid)
  else t.procs.(pid)

(* Effects performed by process bodies. *)

type _ Effect.t +=
  | Advance : unit Effect.t
  | Block : string -> unit Effect.t

let advance t ns =
  if ns < 0 then invalid_arg "Engine.advance: negative duration";
  if ns > 0 then begin
    t.pending <- ns;
    Effect.perform Advance
  end

let advance_f t ns = advance t (int_of_float ns)

let block ~label = Effect.perform (Block label)

let wake t pid =
  let proc = find_proc t pid in
  match proc.state with
  | Blocked ->
      proc.state <- Ready;
      (match t.tracer with
      | Some sink -> Trace.Sink.emit sink ~time:t.now (Trace.Event.Proc_resume { proc = pid })
      | None -> ());
      Pqueue.push t.queue ~time:t.now pid
  | Created | Running | Ready -> proc.wake_pending <- true
  | Finished -> ()

(* The scheduler. *)

let run_fiber t proc =
  let open Effect.Deep in
  let body = proc.body in
  proc.body <- no_body;
  proc.state <- Running;
  let on_advance =
    Some
      (fun (k : (unit, unit) continuation) ->
        proc.cont <- k;
        proc.state <- Ready;
        Pqueue.push t.queue ~time:(t.now + t.pending) proc.pid)
  in
  match_with body proc.pid
    {
      retc =
        (fun () ->
          proc.state <- Finished;
          t.live <- t.live - 1;
          match t.tracer with
          | Some sink ->
              Trace.Sink.emit sink ~time:t.now (Trace.Event.Proc_finish { proc = proc.pid })
          | None -> ());
      exnc = (fun exn -> raise exn);
      effc =
        (fun (type a) (eff : a Effect.t) : ((a, unit) continuation -> unit) option ->
          match eff with
          | Advance -> on_advance
          | Block label ->
              Some
                (fun (k : (a, unit) continuation) ->
                  if proc.wake_pending then begin
                    proc.wake_pending <- false;
                    continue k ()
                  end
                  else begin
                    proc.state <- Blocked;
                    proc.blocked_label <- label;
                    proc.cont <- k;
                    match t.tracer with
                    | Some sink ->
                        Trace.Sink.emit sink ~time:t.now
                          (Trace.Event.Proc_block { proc = proc.pid; label })
                    | None -> ()
                  end)
          | _ -> None);
    }

let blocked_procs t =
  let acc = ref [] in
  for pid = t.nprocs - 1 downto 0 do
    let p = t.procs.(pid) in
    if p.state = Blocked then acc := (p.pid, p.blocked_label) :: !acc
  done;
  !acc

let diagnose t =
  {
    diag_time = t.now;
    diag_live = t.live;
    diag_blocked = blocked_procs t;
    diag_notes = List.concat_map (fun f -> f ()) t.diagnostics;
  }

let run t =
  while not (Pqueue.is_empty t.queue) do
    t.now <- Pqueue.top_time t.queue;
    let handle = Pqueue.take t.queue in
    if handle < 0 then run_thunk t (-1 - handle)
    else begin
      let proc = t.procs.(handle) in
      match proc.state with
      | Created -> run_fiber t proc
      | Ready ->
          proc.state <- Running;
          Effect.Deep.continue proc.cont ()
      | Running | Blocked | Finished ->
          invalid_arg (Printf.sprintf "Engine: p%d queued but not runnable" handle)
    end
  done;
  if t.live > 0 then raise (Deadlock (diagnose t))
