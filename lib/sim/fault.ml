(* Seeded per-link fault injection: the hostile network CVM's end-to-end
   UDP protocols had to survive. A [plan] describes what the wire may do
   to a frame — drop it, duplicate it, delay it into a reorder, or
   black-hole it during a scheduled partition. Every decision is drawn
   from a per-link SplitMix stream, so a (plan, seed) pair always
   produces the same fault schedule regardless of what any other link
   draws. Coherence.Config.check judges a plan before any run is built
   from it. *)

type partition = {
  p_a : int;  (* link endpoints; faults apply in both directions *)
  p_b : int;
  p_from_ns : int;
  p_until_ns : int;
}

type plan = {
  drop : float;  (* probability a wire frame is lost *)
  duplicate : float;  (* probability a second copy is injected *)
  reorder : float;  (* probability a frame is held back (extra delay) *)
  partitions : partition list;  (* one-shot scheduled link outages *)
}

let reorder_window_ns = 800_000
let none = { drop = 0.0; duplicate = 0.0; reorder = 0.0; partitions = [] }

let active plan =
  plan.drop > 0.0 || plan.duplicate > 0.0 || plan.reorder > 0.0 || plan.partitions <> []

type t = {
  plan : plan;
  links : Rng.t array;  (* one independent stream per (src, dst) link *)
  nodes : int;
}

let create ~nodes ~rng plan =
  { plan; nodes; links = Array.init (nodes * nodes) (fun _ -> Rng.split rng) }

let partitioned t ~src ~dst ~now =
  List.exists
    (fun p ->
      ((p.p_a = src && p.p_b = dst) || (p.p_a = dst && p.p_b = src))
      && now >= p.p_from_ns && now < p.p_until_ns)
    t.plan.partitions

(* The verdict for one wire frame: the extra delivery delays of the
   surviving copies ([] means the frame was lost) plus what happened to
   it, so an observer (the trace recorder) can tell a random drop from a
   partition black-hole from a clean pass. Draw order is fixed (drop,
   duplicate, then per-copy reorder) so a given link stream yields the
   same schedule independent of traffic on other links. *)
type verdict = {
  v_delays : int list;  (* extra delay per surviving copy *)
  v_dropped : bool;  (* lost one copy to the drop probability *)
  v_partitioned : bool;  (* black-holed by a partition window *)
}

let judge_verdict t ~src ~dst ~now =
  if not (active t.plan) then { v_delays = [ 0 ]; v_dropped = false; v_partitioned = false }
  else if partitioned t ~src ~dst ~now then
    { v_delays = []; v_dropped = false; v_partitioned = true }
  else begin
    let rng = t.links.((src * t.nodes) + dst) in
    let dropped = t.plan.drop > 0.0 && Rng.float rng 1.0 < t.plan.drop in
    let copies =
      if t.plan.duplicate > 0.0 && Rng.float rng 1.0 < t.plan.duplicate then 2 else 1
    in
    let extra_delay () =
      if t.plan.reorder > 0.0 && Rng.float rng 1.0 < t.plan.reorder then
        Rng.int rng (reorder_window_ns + 1)
      else 0
    in
    let delays = List.init copies (fun _ -> extra_delay ()) in
    let survivors =
      if dropped then (match delays with [] | [ _ ] -> [] | _ :: rest -> rest)
      else delays
    in
    { v_delays = survivors; v_dropped = dropped; v_partitioned = false }
  end

let describe plan =
  if not (active plan) then "none"
  else
    String.concat ", "
      (List.filter
         (fun s -> s <> "")
         [
           (if plan.drop > 0.0 then Printf.sprintf "drop %.0f%%" (100.0 *. plan.drop) else "");
           (if plan.duplicate > 0.0 then
              Printf.sprintf "dup %.0f%%" (100.0 *. plan.duplicate)
            else "");
           (if plan.reorder > 0.0 then
              Printf.sprintf "reorder %.0f%% (window %d ns)" (100.0 *. plan.reorder)
                reorder_window_ns
            else "");
           (match plan.partitions with
           | [] -> ""
           | ps -> Printf.sprintf "%d partition window(s)" (List.length ps));
         ])
