(* Discrete-event simulation engine.

   Each simulated processor is a coroutine implemented with OCaml 5 effect
   handlers. A process runs real OCaml code and interacts with virtual time
   through two effects: [Advance n] consumes [n] simulated nanoseconds, and
   [Block] suspends the process until another party calls [wake].

   The scheduler is a single event loop over a deterministic priority queue,
   so a given program and seed always produce the same interleaving.

   [Advance] is the hot path: every bus transaction and every flush of a
   processor's time debt performs one. Each process therefore owns its
   [Resume] action and its [Advance] handler, built once, with the
   duration passed through [pending]; what an advance still allocates
   is the effect payload, the continuation, [Some k] and the queue
   entry, 11 words in all.

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

type proc_state = Created | Running | Blocked | Finished

type proc = {
  pid : pid;
  mutable state : proc_state;
  mutable cont : (unit, unit) Effect.Deep.continuation option;
  mutable wake_pending : bool;
  mutable blocked_label : string;  (* what the process is waiting for *)
  mutable pending : int;  (* duration of the [Advance] being handled *)
  resume : action;  (* [Resume] of this process, queued on every wakeup *)
}

and action = Start of proc * (pid -> unit) | Resume of proc | Thunk of (unit -> unit)

type t = {
  mutable now : int;
  queue : action Pqueue.t;
  mutable procs : proc array;  (* indexed by pid; first [nprocs] slots live *)
  mutable nprocs : int;
  mutable live : int;
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
    diagnostics = [];
    tracer = None;
  }

let now t = t.now

let set_tracer t tracer = t.tracer <- tracer

let tracer t = t.tracer

let add_diagnostic t f = t.diagnostics <- t.diagnostics @ [ f ]

let schedule t ~at f =
  if at < t.now then invalid_arg "Engine.schedule: cannot schedule in the past";
  Pqueue.push t.queue ~time:at (Thunk f)

let schedule_after t ~delay f = schedule t ~at:(t.now + delay) f

let spawn t body =
  let pid = t.nprocs in
  let rec proc =
    {
      pid;
      state = Created;
      cont = None;
      wake_pending = false;
      blocked_label = "";
      pending = 0;
      resume = Resume proc;
    }
  in
  if pid >= Array.length t.procs then begin
    let grown = Array.make (max 8 (2 * Array.length t.procs)) proc in
    Array.blit t.procs 0 grown 0 t.nprocs;
    t.procs <- grown
  end;
  t.procs.(pid) <- proc;
  t.nprocs <- t.nprocs + 1;
  t.live <- t.live + 1;
  Pqueue.push t.queue ~time:t.now (Start (proc, body));
  pid

let find_proc t pid =
  if pid < 0 || pid >= t.nprocs then
    invalid_arg (Printf.sprintf "Engine: unknown pid %d" pid)
  else t.procs.(pid)

(* Effects performed by process bodies. *)

type _ Effect.t +=
  | Advance : int -> unit Effect.t
  | Block : string -> unit Effect.t

let advance ns =
  if ns < 0 then invalid_arg "Engine.advance: negative duration";
  if ns > 0 then Effect.perform (Advance ns)

let advance_f ns = advance (int_of_float ns)

let block ~label = Effect.perform (Block label)

let wake t pid =
  let proc = find_proc t pid in
  match proc.state with
  | Blocked ->
      proc.state <- Running;
      (match t.tracer with
      | Some sink -> Trace.Sink.emit sink ~time:t.now (Trace.Event.Proc_resume { proc = pid })
      | None -> ());
      Pqueue.push t.queue ~time:t.now proc.resume
  | Created | Running -> proc.wake_pending <- true
  | Finished -> ()

(* The scheduler. *)

let run_fiber t proc body =
  let open Effect.Deep in
  proc.state <- Running;
  let on_advance =
    Some
      (fun (k : (unit, unit) continuation) ->
        proc.cont <- Some k;
        Pqueue.push t.queue ~time:(t.now + proc.pending) proc.resume)
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
          | Advance ns ->
              proc.pending <- ns;
              on_advance
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
                    proc.cont <- Some k;
                    match t.tracer with
                    | Some sink ->
                        Trace.Sink.emit sink ~time:t.now
                          (Trace.Event.Proc_block { proc = proc.pid; label })
                    | None -> ()
                  end)
          | _ -> None);
    }

let resume_fiber proc =
  match proc.cont with
  | Some k ->
      proc.cont <- None;
      proc.state <- Running;
      Effect.Deep.continue k ()
  | None -> invalid_arg "Engine: resume of a process with no continuation"

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
  let rec loop () =
    if Pqueue.is_empty t.queue then begin
      if t.live > 0 then raise (Deadlock (diagnose t))
    end
    else begin
      t.now <- Pqueue.top_time t.queue;
      (match Pqueue.take t.queue with
      | Start (proc, body) -> run_fiber t proc body
      | Resume proc -> resume_fiber proc
      | Thunk f -> f ());
      loop ()
    end
  in
  loop ()
