(* TSP — branch-and-bound travelling salesman, the paper's lock-based
   workload with deliberate data races.

   Shared state: the distance matrix (read-only after initialization), a
   stack of partial tours protected by a queue lock, the global best bound
   and best tour protected by a bound lock, and an in-flight counter for
   termination. Workers pop a partial tour, expand it breadth-first into
   the shared queue until few enough cities remain, then solve the
   remainder with a private depth-first search. Pruning uses the classic
   lower bound (path cost + cheapest continuation edge per remaining
   city), computed from a read-only snapshot of the matrix.

   The deliberate race: pruning reads the global bound WITHOUT taking the
   bound lock (site "tsp:bound_prune"), exactly as in the original
   application — a stale bound only costs redundant work, never
   correctness, because every candidate tour is re-checked under the lock
   before the bound is updated. The detector must report read-write races
   on the bound word and nothing else.

   The paper ran 19 cities; the registry runs 16 (10 at small scale) to
   keep simulated branch-and-bound trees to a few million nodes (see
   EXPERIMENTS.md). No flag sets the city count: 19 needs [params] built
   directly.

   At the end, processor 0 checks the bound against an exact sequential
   solver (Held-Karp), which shares no code with the search. *)

type params = { ncities : int; seed : int; dfs_threshold : int }

let paper_params = { ncities = 16; seed = 10; dfs_threshold = 13 }
let small_params = { ncities = 10; seed = 7; dfs_threshold = 7 }

let lock_queue = 0
let lock_bound = 1

let queue_capacity = 4096

let distances { ncities; seed; _ } =
  (* deterministic pseudo-random city coordinates on a 1000x1000 grid *)
  let rng = Sim.Rng.create ~seed in
  let xs = Array.init ncities (fun _ -> Sim.Rng.int rng 1000) in
  let ys = Array.init ncities (fun _ -> Sim.Rng.int rng 1000) in
  Array.init ncities (fun i ->
      Array.init ncities (fun j ->
          let dx = float_of_int (xs.(i) - xs.(j)) and dy = float_of_int (ys.(i) - ys.(j)) in
          int_of_float (Float.round (sqrt ((dx *. dx) +. (dy *. dy))))))

let nearest_neighbour_bound dist =
  let n = Array.length dist in
  let visited = Array.make n false in
  visited.(0) <- true;
  let cost = ref 0 and current = ref 0 in
  for _ = 1 to n - 1 do
    let best = ref (-1) in
    for c = 0 to n - 1 do
      if (not visited.(c)) && (!best < 0 || dist.(!current).(c) < dist.(!current).(!best))
      then best := c
    done;
    cost := !cost + dist.(!current).(!best);
    visited.(!best) <- true;
    current := !best
  done;
  !cost + dist.(!current).(0)

(* Lower bound for a partial tour: cost so far, plus the cheapest edge out
   of the current city into the unvisited set, plus for every unvisited
   city its cheapest edge into (unvisited \ itself) or back home.

   This runs on every node of a multi-million-node search tree, so the
   minimisations use a precomputed context: the matrix flattened to one
   int array and, per city, its neighbours ranked by ascending distance.
   "Cheapest edge into the allowed set" is then the first allowed city in
   the ranked row — the same minimum value as a full row scan, found in a
   handful of loads. The bound VALUE is identical to the naive
   formulation, so the search tree (and with it every simulated access)
   is unchanged. *)
type bound_ctx = { n : int; flat : int array; ranked : int array array }

let bound_ctx dist =
  let n = Array.length dist in
  let flat = Array.make (n * n) 0 in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      flat.((i * n) + j) <- dist.(i).(j)
    done
  done;
  let ranked =
    Array.init n (fun u ->
        let order = Array.init n (fun v -> v) in
        Array.sort (fun a b -> compare dist.(u).(a) dist.(u).(b)) order;
        order)
  in
  { n; flat; ranked }

(* Distance from [row]'s city to its nearest city that is neither
   [skip] nor visited; [max_int] if no such city remains. *)
let nearest_allowed ctx row base visited ~skip =
  let n = ctx.n and flat = ctx.flat in
  let k = ref 0 and m = ref max_int in
  while !m = max_int && !k < n do
    let v = Array.unsafe_get row !k in
    if v <> skip && not (Array.unsafe_get visited v) then
      m := Array.unsafe_get flat (base + v);
    incr k
  done;
  !m

let lower_bound ctx visited ~current ~cost =
  let n = ctx.n and flat = ctx.flat and ranked = ctx.ranked in
  let lb = ref cost in
  let any = ref false in
  for u = 0 to n - 1 do
    if not (Array.unsafe_get visited u) then begin
      any := true;
      let base = u * n in
      let nearest = nearest_allowed ctx (Array.unsafe_get ranked u) base visited ~skip:u in
      let home = Array.unsafe_get flat base (* dist u 0 *) in
      lb := !lb + if nearest < home then nearest else home
    end
  done;
  if !any then
    (* [current] is visited, so it skips itself in its own ranked row *)
    !lb
    + nearest_allowed ctx (Array.unsafe_get ranked current) (current * n) visited ~skip:current
  else !lb + Array.unsafe_get flat (current * n)

(* Sequential reference: Held-Karp dynamic programming, exact and
   independent of the search it checks. [best.(set * m + j)] is the
   shortest path that leaves city 0, visits exactly the cities of [set]
   (bit j for city j + 1) and ends at city j + 1. A set is only extended
   to larger ones, so visiting sets in increasing order finishes each
   before it is read. The table is 2^(n-1) * (n-1) words: 3.9 MB at the
   paper's 16 cities. *)
let reference params =
  let dist = distances params in
  let n = Array.length dist in
  let m = n - 1 in
  if m <= 0 then 0
  else begin
    let full = (1 lsl m) - 1 in
    let best = Array.make ((full + 1) * m) max_int in
    for j = 0 to m - 1 do
      best.(((1 lsl j) * m) + j) <- dist.(0).(j + 1)
    done;
    for set = 1 to full do
      for j = 0 to m - 1 do
        (* finite only for j in [set] *)
        let here = best.((set * m) + j) in
        if here < max_int then
          for k = 0 to m - 1 do
            if set land (1 lsl k) = 0 then begin
              let slot = ((set lor (1 lsl k)) * m) + k in
              let cost = here + dist.(j + 1).(k + 1) in
              if cost < best.(slot) then best.(slot) <- cost
            end
          done
      done
    done;
    let tour = ref max_int in
    for j = 0 to m - 1 do
      tour := min !tour (best.((full * m) + j) + dist.(j + 1).(0))
    done;
    !tour
  end

let memory_bytes { ncities; _ } =
  (((ncities * ncities) + (queue_capacity * (ncities + 2))) * Mem.Page.word_size) + 64

let binary () =
  (* Synthetic image with the paper's TSP counts (Table 2). The
     CFG mirrors the worker loop below: pop under the queue lock, expand
     against the read-only matrix, push children under the queue lock,
     prune against an UNLOCKED read of the global bound, and update the
     bound under its lock. The unlocked prune read is the deliberate
     benign race — the MHP lockset warnings must flag "tsp:bound_prune"
     against "tsp:bound_update" and nothing else. The private
     depth-first state (dfs arena, visited bitmap on the stack via a
     computed register) is what the data-flow pass proves private. *)
  let open Instrument.Ir in
  let matrix = 0 and queue = 1 and bound = 2 and inflight = 3 in
  let best = 4 and dfs = 5 and visited = 6 in
  let page = Sim.Cost.default.Sim.Cost.page_size in
  let entry =
    block "entry"
      (App.fp_gp_ops ~name:"tsp" ~stack:244 ~static_data:1213
      @ [
          malloc_shared ~dst:matrix "tsp.matrix";
          malloc_shared ~dst:queue "tsp.queue";
          malloc_shared ~dst:bound "tsp.bound";
          malloc_shared ~dst:inflight "tsp.in_flight";
          malloc_shared ~dst:best "tsp.best_tour";
          malloc_private ~dst:dfs "tsp.dfs";
          lea ~dst:visited (Fp 16);
        ])
      ~succs:[ "init" ]
  in
  let init =
    block "init"
      [
        store (Reg matrix) ~stride:page ~count:40 ~site:"tsp:dist_init";
        store (Reg queue) ~stride:8 ~count:10 ~site:"tsp:queue_init";
        store (Reg bound) ~stride:8 ~count:2 ~site:"tsp:bound_init";
        barrier;
      ]
      ~succs:[ "loop" ]
  in
  let loop =
    block "loop"
      [
        acquire lock_queue;
        load (Reg queue) ~stride:8 ~count:20 ~site:"tsp:queue_pop";
        store (Reg queue) ~stride:8 ~count:10 ~site:"tsp:queue_top";
        load (Reg inflight) ~count:4 ~site:"tsp:in_flight";
        store (Reg inflight) ~count:4 ~site:"tsp:in_flight";
        release lock_queue;
      ]
      ~succs:[ "expand"; "done" ]
  in
  let expand =
    block "expand"
      [
        load (Reg matrix) ~stride:page ~count:80 ~site:"tsp:dist_read";
        load (Reg matrix) ~stride:page ~count:100 ~site:"tsp:lb";
        acquire lock_queue;
        store (Reg queue) ~stride:8 ~count:40 ~site:"tsp:queue_push";
        release lock_queue;
      ]
      ~succs:[ "prune" ]
  in
  let prune =
    block "prune"
      [
        load (Reg bound) ~count:4 ~site:"tsp:bound_prune";
        load (Reg dfs) ~count:20 ~site:"tsp:dfs";
        store (Reg dfs) ~count:12 ~site:"tsp:dfs";
        load (Reg visited) ~count:8 ~site:"tsp:visited";
        store (Reg visited) ~count:8 ~site:"tsp:visited";
      ]
      ~succs:[ "update"; "loop" ]
  in
  let update =
    block "update"
      [
        acquire lock_bound;
        load (Reg bound) ~count:4 ~site:"tsp:bound_check";
        store (Reg bound) ~count:2 ~site:"tsp:bound_update";
        store (Reg best) ~stride:8 ~count:20 ~site:"tsp:best_tour";
        release lock_bound;
      ]
      ~succs:[ "loop" ]
  in
  let done_ =
    block "done" [ barrier; load (Reg bound) ~count:10 ~site:"tsp:report" ]
  in
  Instrument.Binary.make ~name:"tsp" ~library:48717 ~cvm:3910
    ~procs:
      [ proc ~name:"tsp_main" ~entry:"entry" [ entry; init; loop; expand; prune; update; done_ ] ]
    ()

type layout = {
  matrix : int;  (* ncities^2 ints *)
  queue_base : int;  (* queue_capacity records of (cost, depth, path...) *)
  queue_top : int;  (* stack pointer *)
  in_flight : int;  (* tasks popped but not fully expanded *)
  bound : int;  (* global best tour cost — read without the lock! *)
  best_tour : int;  (* ncities ints, protected by the bound lock *)
  record_words : int;
}

let layout node params =
  let record_words = params.ncities + 2 in
  let words n = n * Mem.Page.word_size in
  let matrix =
    Lrc.Dsm.malloc node (words (params.ncities * params.ncities)) ~name:"tsp.distance_matrix"
  in
  let queue_base = Lrc.Dsm.malloc node (words (queue_capacity * record_words)) ~name:"tsp.queue" in
  let queue_top = Lrc.Dsm.malloc node (words 1) ~name:"tsp.queue_top" in
  let in_flight = Lrc.Dsm.malloc node (words 1) ~name:"tsp.in_flight" in
  let bound = Lrc.Dsm.malloc node (words 1) ~name:"tsp.bound" in
  let best_tour = Lrc.Dsm.malloc node (words params.ncities) ~name:"tsp.best_tour" in
  { matrix; queue_base; queue_top; in_flight; bound; best_tour; record_words }

let body params node =
  let open Lrc.Dsm in
  let n = params.ncities in
  let lay = layout node params in
  (* the matrix is row-major; a queue record is [record_words] words:
     cost, depth, then the path *)
  let read_dist i j = read_int_at node lay.matrix ((i * n) + j) ~site:"tsp:dist" in
  (* unsynchronized read of the global bound: the deliberate benign race *)
  let read_bound_racy () = read_int node lay.bound ~site:"tsp:bound_prune" in
  let record_index slot = slot * lay.record_words in
  let push_task ~cost ~depth ~path =
    (* caller holds the queue lock *)
    let top = read_int node lay.queue_top ~site:"tsp:queue_top" in
    if top >= queue_capacity then false
    else begin
      let r = record_index top in
      write_int_at node lay.queue_base r cost ~site:"tsp:queue_cost";
      write_int_at node lay.queue_base (r + 1) depth ~site:"tsp:queue_depth";
      Array.iteri
        (fun k city -> write_int_at node lay.queue_base (r + 2 + k) city ~site:"tsp:queue_path")
        path;
      write_int node lay.queue_top (top + 1) ~site:"tsp:queue_top";
      true
    end
  in
  let pop_task () =
    (* caller holds the queue lock; returns (cost, depth, path) *)
    let top = read_int node lay.queue_top ~site:"tsp:queue_top" in
    if top = 0 then None
    else begin
      let r = record_index (top - 1) in
      write_int node lay.queue_top (top - 1) ~site:"tsp:queue_top";
      let cost = read_int_at node lay.queue_base r ~site:"tsp:queue_cost" in
      let depth = read_int_at node lay.queue_base (r + 1) ~site:"tsp:queue_depth" in
      let path =
        Array.init depth (fun k ->
            read_int_at node lay.queue_base (r + 2 + k) ~site:"tsp:queue_path")
      in
      Some (cost, depth, path)
    end
  in
  let update_bound ~cost ~path =
    with_lock node lock_bound (fun () ->
        let best = read_int node lay.bound ~site:"tsp:bound_locked" in
        if cost < best then begin
          write_int node lay.bound cost ~site:"tsp:bound_update";
          Array.iteri
            (fun k city -> write_int_at node lay.best_tour k city ~site:"tsp:best_tour")
            path
        end)
  in
  (* read-only snapshot of the distance matrix used by the bound
     computation (the matrix itself never changes after initialization) *)
  let snapshot_matrix () =
    Array.init n (fun i -> Array.init n (fun j -> read_dist i j))
  in
  (* private exhaustive search below the threshold *)
  let solve_leaf ctx ~cost ~path =
    let visited = Array.make n false in
    Array.iter (fun c -> visited.(c) <- true) path;
    let order = Array.make n 0 in
    Array.blit path 0 order 0 (Array.length path);
    let rec go current depth cost =
      touch_private node (((n - depth) / 2) + 2);
      compute node (float_of_int (25 * (n - depth + 2)));
      if lower_bound ctx visited ~current ~cost < read_bound_racy () then
        if depth = n then begin
          let tour = cost + read_dist current path.(0) in
          if tour < read_bound_racy () then update_bound ~cost:tour ~path:(Array.copy order)
        end
        else
          for c = 0 to n - 1 do
            if not visited.(c) then begin
              visited.(c) <- true;
              order.(depth) <- c;
              go c (depth + 1) (cost + read_dist current c);
              visited.(c) <- false
            end
          done
    in
    go path.(Array.length path - 1) (Array.length path) cost
  in
  let expand ctx ~cost ~depth ~path =
    (* one level of breadth-first expansion: all surviving children are
       pushed under a single queue-lock acquisition *)
    let current = path.(depth - 1) in
    let visited = Array.make n false in
    Array.iter (fun c -> visited.(c) <- true) path;
    let children = ref [] in
    for c = 0 to n - 1 do
      if not visited.(c) then begin
        let next_cost = cost + read_dist current c in
        touch_private node n;
        compute node (float_of_int (6 * n));
        visited.(c) <- true;
        if lower_bound ctx visited ~current:c ~cost:next_cost < read_bound_racy ()
        then children := (next_cost, Array.append path [| c |]) :: !children;
        visited.(c) <- false
      end
    done;
    let overflow =
      with_lock node lock_queue (fun () ->
          List.filter
            (fun (next_cost, next_path) ->
              not (push_task ~cost:next_cost ~depth:(depth + 1) ~path:next_path))
            !children)
    in
    (* a full queue degrades gracefully: solve overflowing subtrees inline *)
    List.iter (fun (next_cost, next_path) -> solve_leaf ctx ~cost:next_cost ~path:next_path)
      overflow
  in
  (* initialization at processor 0 *)
  if pid node = 0 then begin
    let dist = distances params in
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        write_int_at node lay.matrix ((i * n) + j) dist.(i).(j) ~site:"tsp:init"
      done
    done;
    write_int node lay.bound (nearest_neighbour_bound dist) ~site:"tsp:init";
    write_int node lay.queue_top 0 ~site:"tsp:init";
    write_int node lay.in_flight 0 ~site:"tsp:init";
    ignore (with_lock node lock_queue (fun () -> push_task ~cost:0 ~depth:1 ~path:[| 0 |]))
  end;
  barrier node;
  let ctx = bound_ctx (snapshot_matrix ()) in
  (* work loop; empty-queue polling backs off exponentially so idle
     processors do not flood the epoch with retry intervals *)
  let finished = ref false in
  let backoff = ref 50_000.0 in
  while not !finished do
    let task =
      with_lock node lock_queue (fun () ->
          match pop_task () with
          | Some t ->
              let f = read_int node lay.in_flight ~site:"tsp:in_flight" in
              write_int node lay.in_flight (f + 1) ~site:"tsp:in_flight";
              `Task t
          | None ->
              let f = read_int node lay.in_flight ~site:"tsp:in_flight" in
              if f = 0 then `Done else `Retry)
    in
    match task with
    | `Done -> finished := true
    | `Retry ->
        compute node (!backoff /. 4.0) (* cost-model instructions while polling *);
        backoff := Float.min (!backoff *. 2.0) 4_000_000.0
    | `Task (cost, depth, path) ->
        backoff := 50_000.0;
        if n - depth <= params.dfs_threshold then solve_leaf ctx ~cost ~path
        else expand ctx ~cost ~depth ~path;
        with_lock node lock_queue (fun () ->
            let f = read_int node lay.in_flight ~site:"tsp:in_flight" in
            write_int node lay.in_flight (f - 1) ~site:"tsp:in_flight")
  done;
  barrier node;
  (* self-check at processor 0 against the sequential reference *)
  if pid node = 0 then begin
    let got = read_int node lay.bound ~site:"tsp:check" in
    let want = reference params in
    if got <> want then failwith (Printf.sprintf "tsp: best tour %d, reference %d" got want)
  end;
  barrier node

let make params =
  {
    App.name = "TSP";
    input_description = Printf.sprintf "%d cities" params.ncities;
    synchronization = "lock";
    memory_bytes = memory_bytes params;
    binary;
    body = body params;
  }
