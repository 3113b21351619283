(* May-happen-in-parallel analysis over the Dataflow fixpoint: the one
   static race analysis. It reads the accesses Static_analysis keeps per
   procedure, so one fixpoint serves both passes. It answers the
   whole-program question: which *pairs* of static accesses may execute
   in parallel on overlapping shared data without a common ordering
   lock? The model is the SPMD discipline of the paper's applications —
   every processor runs the same CFG, so an access pair (including a
   store paired with itself) may run concurrently on two processors
   whenever:

   - both accesses are shared (computed addresses the provenance pass
     could not prove private), and
   - their static barrier-phase windows overlap (some program point
     reaches both without crossing a barrier), and
   - they may address the same dsm_malloc region, and their static byte
     footprints within that region overlap (offset/stride intervals;
     an unknown displacement widens to the whole region), and
   - at least one is a store, and
   - their must-hold locksets are disjoint (no common lock orders them).

   Pairs split by severity: [Mismatch] (one side locks, the other does
   not — or both lock, but disjointly); [Unlocked] (neither side holds
   a lock) is the barrier-disciplined residue a static pass cannot
   separate from owner-partitioned safety, kept inside the may-race set.

   Everything downstream derives from the pair set:
   - warnings: a pair of two distinct sites where exactly one side
     holds no lock flags that side as insufficiently locked — this
     flags Water's unlocked potential-energy update and TSP's
     unsynchronized bound read without running the simulator;
   - soundness: every dynamically observed race must land on a flagged
     pair (checked against the detector and the happens-before oracle
     in the test suite);
   - elision: a site none of whose shared accesses joins any pair is
     statically race-free, so its runtime check can be skipped. *)

type severity = Mismatch | Unlocked

type side = { s_site : string; s_kind : Binary.kind; s_locks : int list }

type pair = {
  p_proc : string;
  p_severity : severity;
  p_region : string;  (* witness region both sides may address *)
  p_phases : int list;  (* static phases containing both sides *)
  p_a : side;
  p_b : side;  (* sides ordered (site, kind, locks) ascending *)
}

type report = {
  pairs : pair list;  (* deterministic order, most severe first *)
  may_race_sites : string list;  (* sites joining at least one pair *)
  race_free_sites : string list;  (* shared sites joining no pair *)
  shared_sites : string list;  (* every instrumented shared site *)
}

let severity_rank = function Mismatch -> 0 | Unlocked -> 1
let severity_name = function Mismatch -> "lock-mismatch" | Unlocked -> "unlocked"
let kind_rank = function Binary.Load -> 0 | Binary.Store -> 1

(* Static byte footprint of an access within its region: the interval
   spanned by offset/stride/count, shifted by the base register's
   displacement. None when the displacement chain lost the base — the
   caller must then assume the whole region. *)
let footprint (a : Dataflow.access) =
  match a.Dataflow.a_disp with
  | Dataflow.Disp_unknown -> None
  | Dataflow.Disp d ->
      let first = d + a.Dataflow.a_offset in
      let span = a.Dataflow.a_stride * (a.Dataflow.a_count - 1) in
      Some (first + min 0 span, first + max 0 span + Mem.Page.word_size)

let footprints_overlap a b =
  match (footprint a, footprint b) with
  | Some (lo1, hi1), Some (lo2, hi2) -> lo1 < hi2 && lo2 < hi1
  | _ -> true

(* Regions the access may address; None means any (unknown provenance
   must be assumed to alias every shared allocation). *)
let may_regions (a : Dataflow.access) =
  match a.Dataflow.a_prov with
  | Dataflow.Unknown -> None
  | _ -> Some a.Dataflow.a_regions

let unknown_region = "<unknown>"

let common_regions a b =
  match (may_regions a, may_regions b) with
  | Some ra, Some rb -> Dataflow.Regions.elements (Dataflow.Regions.inter ra rb)
  | Some r, None | None, Some r -> Dataflow.Regions.elements r
  | None, None -> [ unknown_region ]

(* A computed access the provenance pass could not prove private: the
   instrumented population, and the only accesses that can race. *)
let is_shared (a : Dataflow.access) =
  a.Dataflow.a_reachable
  && (match a.Dataflow.a_base with Ir.Reg _ -> true | Ir.Fp _ | Ir.Gp _ -> false)
  && not (Dataflow.proven_private a)

let may_happen_in_parallel (a : Dataflow.access) (b : Dataflow.access) =
  (a.Dataflow.a_kind = Binary.Store || b.Dataflow.a_kind = Binary.Store)
  && (not
        (Dataflow.Intset.is_empty
           (Dataflow.Intset.inter a.Dataflow.a_phases b.Dataflow.a_phases)))
  && Dataflow.Intset.is_empty (Dataflow.Intset.inter a.Dataflow.a_locks b.Dataflow.a_locks)
  && footprints_overlap a b

let severity_of (a : Dataflow.access) (b : Dataflow.access) =
  if
    Dataflow.Intset.is_empty a.Dataflow.a_locks
    && Dataflow.Intset.is_empty b.Dataflow.a_locks
  then Unlocked
  else Mismatch

let side_of (a : Dataflow.access) =
  {
    s_site = a.Dataflow.a_site;
    s_kind = a.Dataflow.a_kind;
    s_locks = Dataflow.Intset.elements a.Dataflow.a_locks;
  }

let side_key s = (s.s_site, kind_rank s.s_kind, s.s_locks)

let pair_order p q =
  compare
    ( p.p_proc,
      severity_rank p.p_severity,
      p.p_region,
      side_key p.p_a,
      side_key p.p_b,
      p.p_phases )
    ( q.p_proc,
      severity_rank q.p_severity,
      q.p_region,
      side_key q.p_a,
      side_key q.p_b,
      q.p_phases )

let of_analysis (analysis : Static_analysis.result) =
  let by_key : (string * string * string * int * string * int, pair) Hashtbl.t =
    Hashtbl.create 64
  in
  let participating : (string, unit) Hashtbl.t = Hashtbl.create 32 in
  let shared : (string, unit) Hashtbl.t = Hashtbl.create 32 in
  List.iter
    (fun (proc_name, accesses) ->
      let accesses = accesses |> List.filter is_shared |> Array.of_list in
      Array.iter (fun (a : Dataflow.access) -> Hashtbl.replace shared a.Dataflow.a_site ()) accesses;
      let n = Array.length accesses in
      for i = 0 to n - 1 do
        (* j starts at i: under SPMD a store may pair with its own copy
           on another processor *)
        for j = i to n - 1 do
          let a = accesses.(i) and b = accesses.(j) in
          if may_happen_in_parallel a b then
            List.iter
              (fun region ->
                let sa = side_of a and sb = side_of b in
                let sa, sb = if side_key sa <= side_key sb then (sa, sb) else (sb, sa) in
                let p =
                  {
                    p_proc = proc_name;
                    p_severity = severity_of a b;
                    p_region = region;
                    p_phases =
                      Dataflow.Intset.elements
                        (Dataflow.Intset.inter a.Dataflow.a_phases b.Dataflow.a_phases);
                    p_a = sa;
                    p_b = sb;
                  }
                in
                Hashtbl.replace participating sa.s_site ();
                Hashtbl.replace participating sb.s_site ();
                let key =
                  ( p.p_proc,
                    region,
                    sa.s_site,
                    kind_rank sa.s_kind,
                    sb.s_site,
                    kind_rank sb.s_kind )
                in
                match Hashtbl.find_opt by_key key with
                | Some prev when severity_rank prev.p_severity <= severity_rank p.p_severity
                  ->
                    ()
                | _ -> Hashtbl.replace by_key key p)
              (common_regions a b)
        done
      done)
    analysis.Static_analysis.accesses;
  let pairs = Hashtbl.fold (fun _ p acc -> p :: acc) by_key [] |> List.sort pair_order in
  let may_race_sites =
    Hashtbl.fold (fun site () acc -> site :: acc) participating [] |> List.sort compare
  in
  let race_free_sites =
    Hashtbl.fold
      (fun site () acc ->
        if site <> "?" && not (Hashtbl.mem participating site) then site :: acc else acc)
      shared []
    |> List.sort compare
  in
  let shared_sites =
    Hashtbl.fold (fun site () acc -> site :: acc) shared [] |> List.sort compare
  in
  { pairs; may_race_sites; race_free_sites; shared_sites }

let analyze binary = of_analysis (Static_analysis.analyze binary)
let race_free_sites binary = (analyze binary).race_free_sites

let covers report ~site_a ~site_b =
  List.exists
    (fun p ->
      (p.p_a.s_site = site_a && p.p_b.s_site = site_b)
      || (p.p_a.s_site = site_b && p.p_b.s_site = site_a))
    report.pairs

let covers_site report ~site = List.mem site report.may_race_sites

type warning = {
  w_proc : string;
  w_site : string;  (* the unlocked access *)
  w_kind : Binary.kind;
  w_region : string;  (* the shared allocation both sites may address *)
  w_other_site : string;  (* the conflicting access *)
  w_other_locks : int list;  (* locks the conflicting access holds *)
}

(* A pair of distinct sites where exactly one side holds no lock,
   reported from that side: one warning per (site, other site, region),
   carrying the unlocked site's load when it has one. Pairs where both
   sides lock, disjointly, stay in the report but are not flagged. *)
let warnings report =
  let chosen = Hashtbl.create 16 in
  List.iter
    (fun p ->
      if p.p_a.s_site <> p.p_b.s_site && (p.p_a.s_locks = []) <> (p.p_b.s_locks = []) then begin
        let bare, other = if p.p_a.s_locks = [] then (p.p_a, p.p_b) else (p.p_b, p.p_a) in
        let key = (p.p_proc, bare.s_site, other.s_site, p.p_region) in
        (* the first load, else the first store *)
        match Hashtbl.find_opt chosen key with
        | Some w when w.w_kind = Binary.Load || bare.s_kind = Binary.Store -> ()
        | _ ->
            Hashtbl.replace chosen key
              {
                w_proc = p.p_proc;
                w_site = bare.s_site;
                w_kind = bare.s_kind;
                w_region = p.p_region;
                w_other_site = other.s_site;
                w_other_locks = other.s_locks;
              }
      end)
    report.pairs;
  Hashtbl.fold (fun key w acc -> (key, w) :: acc) chosen []
  |> List.sort (fun (a, _) (b, _) -> compare a b)
  |> List.map snd

let kind_name = function Binary.Load -> "load" | Binary.Store -> "store"

let locks_name = function
  | [] -> "no locks"
  | ls -> Printf.sprintf "locks {%s}" (String.concat "," (List.map string_of_int ls))

let pp_warning ppf w =
  Format.fprintf ppf
    "%s: %s at %s reaches shared region %s with an empty static lockset (conflicts with %s holding %s)"
    w.w_proc (kind_name w.w_kind) w.w_site w.w_region w.w_other_site (locks_name w.w_other_locks)

let pp_side ppf s =
  Format.fprintf ppf "%s at %s [%s]" (kind_name s.s_kind) s.s_site (locks_name s.s_locks)

let pp_pair ppf p =
  Format.fprintf ppf "%s: %s pair on %s (phases {%s}): %a <-> %a" p.p_proc
    (severity_name p.p_severity) p.p_region
    (String.concat "," (List.map string_of_int p.p_phases))
    pp_side p.p_a pp_side p.p_b

let pp_report ppf r =
  let mismatch =
    List.length (List.filter (fun p -> p.p_severity = Mismatch) r.pairs)
  in
  Format.fprintf ppf
    "@[<v>%d may-parallel pair(s) (%d lock-mismatch, %d unlocked), %d/%d shared sites \
     statically race-free@ %a@]"
    (List.length r.pairs) mismatch
    (List.length r.pairs - mismatch)
    (List.length r.race_free_sites)
    (List.length r.shared_sites)
    (Format.pp_print_list pp_pair)
    r.pairs
