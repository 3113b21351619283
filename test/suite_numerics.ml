(* Numeric validation of the application kernels against naive
   references: the FFT against a direct DFT, the TSP lower bound against
   brute force, SOR partitioning, and Water's force symmetry. *)

let check = Alcotest.check

(* ------------------------------------------------------------------ *)
(* FFT kernel                                                          *)

let naive_dft ~inverse re im =
  let n = Array.length re in
  let sign = if inverse then 1.0 else -1.0 in
  let out_re = Array.make n 0.0 and out_im = Array.make n 0.0 in
  for k = 0 to n - 1 do
    for j = 0 to n - 1 do
      let angle = sign *. 2.0 *. Float.pi *. float_of_int (j * k) /. float_of_int n in
      let c = cos angle and s = sin angle in
      out_re.(k) <- out_re.(k) +. (re.(j) *. c) -. (im.(j) *. s);
      out_im.(k) <- out_im.(k) +. (re.(j) *. s) +. (im.(j) *. c)
    done
  done;
  if inverse then
    for k = 0 to n - 1 do
      out_re.(k) <- out_re.(k) /. float_of_int n;
      out_im.(k) <- out_im.(k) /. float_of_int n
    done;
  (out_re, out_im)

let prop_fft_matches_dft =
  QCheck.Test.make ~name:"fft_in_place matches a direct DFT" ~count:50
    QCheck.(pair bool (list_of_size (Gen.return 16) (float_bound_exclusive 1.0)))
    (fun (inverse, values) ->
      let re = Array.of_list values in
      let im = Array.mapi (fun i v -> v *. float_of_int ((i mod 3) - 1)) re in
      let got_re = Array.copy re and got_im = Array.copy im in
      Apps.Fft.fft_in_place ~inverse got_re got_im;
      let want_re, want_im = naive_dft ~inverse re im in
      let close a b = Float.abs (a -. b) < 1e-9 in
      Array.for_all2 close got_re want_re && Array.for_all2 close got_im want_im)

let test_fft_roundtrip_kernel () =
  let n = 64 in
  let re = Array.init n (fun i -> Apps.Fft.input_re i) in
  let im = Array.init n (fun i -> Apps.Fft.input_im i) in
  let fre = Array.copy re and fim = Array.copy im in
  Apps.Fft.fft_in_place ~inverse:false fre fim;
  Apps.Fft.fft_in_place ~inverse:true fre fim;
  Array.iteri
    (fun i v -> if Float.abs (v -. re.(i)) > 1e-10 then Alcotest.fail "roundtrip re")
    fre;
  Array.iteri
    (fun i v -> if Float.abs (v -. im.(i)) > 1e-10 then Alcotest.fail "roundtrip im")
    fim

let test_fft_parseval () =
  (* energy conservation: sum |x|^2 = (1/N) sum |X|^2 *)
  let n = 32 in
  let re = Array.init n (fun i -> sin (float_of_int i)) in
  let im = Array.init n (fun i -> cos (2.3 *. float_of_int i)) in
  let energy r i =
    Array.fold_left ( +. ) 0.0 (Array.mapi (fun k x -> (x *. x) +. (i.(k) *. i.(k))) r)
  in
  let before = energy re im in
  Apps.Fft.fft_in_place ~inverse:false re im;
  let after = energy re im /. float_of_int n in
  if Float.abs (before -. after) > 1e-9 *. before then Alcotest.fail "parseval violated"

(* ------------------------------------------------------------------ *)
(* TSP lower bound                                                     *)

let brute_force_optimum dist =
  let n = Array.length dist in
  let visited = Array.make n false in
  visited.(0) <- true;
  let best = ref max_int in
  let rec go current depth cost =
    if depth = n then best := min !best (cost + dist.(current).(0))
    else
      for c = 0 to n - 1 do
        if not visited.(c) then begin
          visited.(c) <- true;
          go c (depth + 1) (cost + dist.(current).(c));
          visited.(c) <- false
        end
      done
  in
  go 0 1 0;
  !best

let prop_tsp_lower_bound_admissible =
  (* the bound never exceeds the best completion of the empty prefix, so
     branch-and-bound with it can never prune the optimum *)
  QCheck.Test.make ~name:"tsp lower bound is admissible at the root" ~count:30
    QCheck.(int_range 1 10_000)
    (fun seed ->
      let params = { Apps.Tsp.ncities = 7; seed; dfs_threshold = 7 } in
      let dist = Apps.Tsp.distances params in
      let n = 7 in
      let visited = Array.make n false in
      visited.(0) <- true;
      let bound = Apps.Tsp.lower_bound (Apps.Tsp.bound_ctx dist) visited ~current:0 ~cost:0 in
      bound <= brute_force_optimum dist)

(* The shipped lower bound scans ranked-neighbour rows; it must compute
   exactly the textbook value (cost + cheapest edge out of [current] +
   per unvisited city its cheapest edge into (unvisited \ itself) or
   home), or the branch-and-bound tree — and with it every simulated
   access — would silently change. *)
let naive_lower_bound dist visited ~n ~current ~cost =
  let lb = ref cost in
  let cheapest_from_current = ref max_int in
  let any = ref false in
  for u = 0 to n - 1 do
    if not visited.(u) then begin
      any := true;
      if dist.(current).(u) < !cheapest_from_current then
        cheapest_from_current := dist.(current).(u);
      let m = ref dist.(u).(0) in
      for v = 0 to n - 1 do
        if v <> u && (not visited.(v)) && dist.(u).(v) < !m then m := dist.(u).(v)
      done;
      lb := !lb + !m
    end
  done;
  if !any then !lb + !cheapest_from_current else !lb + dist.(current).(0)

let prop_tsp_lower_bound_matches_naive =
  QCheck.Test.make ~name:"tsp ranked lower bound equals naive scan" ~count:200
    QCheck.(pair (int_range 1 10_000) (int_range 0 255))
    (fun (seed, mask) ->
      let n = 8 in
      let params = { Apps.Tsp.ncities = n; seed; dfs_threshold = n } in
      let dist = Apps.Tsp.distances params in
      let ctx = Apps.Tsp.bound_ctx dist in
      let visited = Array.init n (fun i -> i = 0 || mask land (1 lsl i) <> 0) in
      (* current must be a visited city, as in any partial tour *)
      let current = ref 0 in
      Array.iteri (fun i v -> if v then current := i) visited;
      let current = !current in
      Apps.Tsp.lower_bound ctx visited ~current ~cost:17
      = naive_lower_bound dist visited ~n ~current ~cost:17)

let prop_tsp_reference_optimal =
  QCheck.Test.make ~name:"tsp reference equals brute force" ~count:20
    QCheck.(int_range 1 10_000)
    (fun seed ->
      let params = { Apps.Tsp.ncities = 7; seed; dfs_threshold = 7 } in
      Apps.Tsp.reference params = brute_force_optimum (Apps.Tsp.distances params))

let test_tsp_paper_optimum () =
  (* the optimum every paper-scale TSP run checks its bound against *)
  check Alcotest.int "16 cities, seed 10" 3860 (Apps.Tsp.reference Apps.Tsp.paper_params)

let test_tsp_distances_symmetric () =
  let dist = Apps.Tsp.distances Apps.Tsp.paper_params in
  Array.iteri
    (fun i row ->
      Array.iteri
        (fun j d ->
          if d <> dist.(j).(i) then Alcotest.fail "asymmetric";
          if i = j && d <> 0 then Alcotest.fail "nonzero diagonal")
        row)
    dist

(* ------------------------------------------------------------------ *)
(* SOR partitioning                                                    *)

let prop_sor_bands_partition =
  QCheck.Test.make ~name:"sor bands cover all rows exactly once" ~count:100
    QCheck.(pair (int_range 1 64) (int_range 1 12))
    (fun (rows, nprocs) ->
      let covered = Array.make rows 0 in
      for pid = 0 to nprocs - 1 do
        let lo, hi = Apps.Sor.band ~rows ~nprocs ~pid in
        for row = lo to hi - 1 do
          covered.(row) <- covered.(row) + 1
        done
      done;
      Array.for_all (fun c -> c = 1) covered)

let test_sor_reference_bounds () =
  (* after any number of sweeps, interior values stay within the boundary
     range (discrete maximum principle for the Jacobi average) *)
  let grid = Apps.Sor.reference { Apps.Sor.rows = 16; cols = 12; iters = 20 } in
  Array.iter
    (Array.iter (fun v -> if v < 0.0 || v > 2.0 then Alcotest.fail "out of range"))
    grid

(* ------------------------------------------------------------------ *)
(* Water                                                               *)

let test_water_force_antisymmetry () =
  let a = (0.3, 0.7, -0.2) and b = (1.1, -0.4, 0.5) in
  let (fx, fy, fz), pot = Apps.Water.site_interaction a b in
  let (gx, gy, gz), pot' = Apps.Water.site_interaction b a in
  check (Alcotest.float 1e-12) "fx" fx (-.gx);
  check (Alcotest.float 1e-12) "fy" fy (-.gy);
  check (Alcotest.float 1e-12) "fz" fz (-.gz);
  check (Alcotest.float 1e-12) "potential symmetric" pot pot'

let test_water_reference_deterministic () =
  let a = Apps.Water.reference Apps.Water.small_params in
  let b = Apps.Water.reference Apps.Water.small_params in
  check Alcotest.bool "bit-identical" true (a = b)

let test_water_initial_sites_distinct () =
  let n = 27 in
  let all =
    List.concat_map
      (fun m -> List.init Apps.Water.sites (fun s -> Apps.Water.initial_site n m s))
      (List.init n Fun.id)
  in
  check Alcotest.int "no coincident sites" (List.length all)
    (List.length (List.sort_uniq compare all))

let suite =
  [
    ( "numerics:fft",
      [
        QCheck_alcotest.to_alcotest prop_fft_matches_dft;
        Alcotest.test_case "roundtrip kernel" `Quick test_fft_roundtrip_kernel;
        Alcotest.test_case "parseval" `Quick test_fft_parseval;
      ] );
    ( "numerics:tsp",
      [
        QCheck_alcotest.to_alcotest prop_tsp_lower_bound_admissible;
        QCheck_alcotest.to_alcotest prop_tsp_lower_bound_matches_naive;
        QCheck_alcotest.to_alcotest prop_tsp_reference_optimal;
        Alcotest.test_case "paper optimum" `Quick test_tsp_paper_optimum;
        Alcotest.test_case "distances symmetric" `Quick test_tsp_distances_symmetric;
      ] );
    ( "numerics:sor",
      [
        QCheck_alcotest.to_alcotest prop_sor_bands_partition;
        Alcotest.test_case "maximum principle" `Quick test_sor_reference_bounds;
      ] );
    ( "numerics:water",
      [
        Alcotest.test_case "force antisymmetry" `Quick test_water_force_antisymmetry;
        Alcotest.test_case "reference deterministic" `Quick test_water_reference_deterministic;
        Alcotest.test_case "distinct sites" `Quick test_water_initial_sites_distinct;
      ] );
  ]
