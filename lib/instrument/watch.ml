(* Runtime watch list for the two-run reference-identification scheme of
   section 6.1.

   Retaining a program counter for every shared access would be
   prohibitive, so the first (detection) run reports only addresses and
   epochs. The second run replays the first run's log (the simulation is
   deterministic and a watch costs no simulated time, so the replay
   verifier sees the same events) with a watch on the racy addresses;
   every instrumented access to a watched address records its site
   ("program counter"), which maps each race back to source locations. *)

type hit = { site : string; addr : int; kind : Proto.Race.access_kind; count : int }

type t = {
  addrs : (int, unit) Hashtbl.t;
  hits : (string * int * Proto.Race.access_kind, int ref) Hashtbl.t;
}

let create ~addrs =
  let table = Hashtbl.create (List.length addrs) in
  List.iter (fun addr -> Hashtbl.replace table addr ()) addrs;
  { addrs = table; hits = Hashtbl.create 16 }

let watched t addr = Hashtbl.mem t.addrs addr

let observe t ~site ~addr kind =
  if watched t addr then begin
    let key = (site, addr, kind) in
    match Hashtbl.find_opt t.hits key with
    | Some counter -> incr counter
    | None -> Hashtbl.add t.hits key (ref 1)
  end

let hits t =
  Hashtbl.fold
    (fun (site, addr, kind) counter acc -> { site; addr; kind; count = !counter } :: acc)
    t.hits []
  |> List.sort (fun a b -> compare (a.addr, a.site, a.kind) (b.addr, b.site, b.kind))

let sites_for t ~addr =
  hits t |> List.filter (fun h -> h.addr = addr) |> List.map (fun h -> (h.site, h.kind))

let pp_hit ppf h =
  Format.fprintf ppf "0x%08x %a at %s (%d times)" h.addr Proto.Race.pp_kind h.kind h.site
    h.count
