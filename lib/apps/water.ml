(* Water — a simplified Water-Nsquared (Splash2): N three-site molecules
   (O, H1, H2) under a soft pairwise site-site potential, integrated for a
   few steps. As in the real application, molecules are an array of padded
   structs (512 bytes each — positions, velocities, forces and slack for
   the higher-order derivatives the real code keeps), locks protect the
   shared force accumulations at molecule-group granularity, and a global
   lock protects the potential-energy sum. Barriers separate the phases of
   each step.

   The seeded bug reproduces the class of defect the paper found in the
   Splash2 original: with [inject_bug] (the default, matching the shipped
   benchmark), every processor updates the global potential-energy
   accumulator WITHOUT taking the global lock (site "water:pot_racy") — a
   write-write data race that can lose updates. The detector must flag the
   accumulator word; with [inject_bug = false] (the fixed version) the run
   must be race-free and the energy exact. *)

type params = {
  nmols : int;
  steps : int;
  mols_per_lock : int;
  inject_bug : bool;
}

let paper_params = { nmols = 216; steps = 5; mols_per_lock = 4; inject_bug = true }
let small_params = { nmols = 24; steps = 3; mols_per_lock = 4; inject_bug = true }
let large_params = { nmols = 512; steps = 5; mols_per_lock = 4; inject_bug = true }

let lock_global = 0
let lock_group g = 1 + g

let dt = 0.002
let softening = 0.1
let sites = 3
let mol_words = 64 (* padded struct: 27 live words + derivative slack *)

(* Deterministic initial site positions: O on a perturbed lattice, the two
   H sites at fixed offsets; a pure function of (molecule, site). *)
let initial_site n mol site =
  let side = int_of_float (Float.ceil (Float.cbrt (float_of_int n))) in
  let ix = mol mod side and iy = mol / side mod side and iz = mol / (side * side) in
  let perturb k seed = 0.05 *. sin (float_of_int ((mol * 31) + (k * 17) + seed)) in
  let ox = (2.0 *. float_of_int ix) +. perturb 0 1 in
  let oy = (2.0 *. float_of_int iy) +. perturb 1 2 in
  let oz = (2.0 *. float_of_int iz) +. perturb 2 3 in
  match site with
  | 0 -> (ox, oy, oz)
  | 1 -> (ox +. 0.2, oy +. 0.15, oz)
  | 2 -> (ox -. 0.2, oy +. 0.15, oz)
  | _ -> invalid_arg "Water.initial_site"

(* Soft-sphere site-site interaction: force on a from b, and the pair's
   potential contribution. *)
let site_interaction (xa, ya, za) (xb, yb, zb) =
  let dx = xa -. xb and dy = ya -. yb and dz = za -. zb in
  let r2 = (dx *. dx) +. (dy *. dy) +. (dz *. dz) +. softening in
  let inv = 1.0 /. r2 in
  let f = inv *. inv in
  ((f *. dx, f *. dy, f *. dz), inv)

(* Sequential reference mirroring the parallel numerics. *)
type reference_result = { positions : (float * float * float) array array; potential : float }

let reference { nmols; steps; _ } =
  (* O(nmols^2 * sites^2 * steps) interactions: the state lives in flat
     float arrays so the inner loop allocates nothing. The arithmetic and
     its evaluation order are exactly those of {!site_interaction}, so
     the result is bit-identical to the tuple formulation. *)
  let cells = nmols * sites * 3 in
  let slot m s axis = (((m * sites) + s) * 3) + axis in
  let pos = Array.make cells 0.0 in
  for m = 0 to nmols - 1 do
    for s = 0 to sites - 1 do
      let x, y, z = initial_site nmols m s in
      pos.(slot m s 0) <- x;
      pos.(slot m s 1) <- y;
      pos.(slot m s 2) <- z
    done
  done;
  let vel = Array.make cells 0.0 in
  let force = Array.make cells 0.0 in
  let potential = Array.make 1 0.0 in
  for _ = 1 to steps do
    Array.fill force 0 cells 0.0;
    potential.(0) <- 0.0;
    for i = 0 to nmols - 1 do
      for j = i + 1 to nmols - 1 do
        for si = 0 to sites - 1 do
          for sj = 0 to sites - 1 do
            let a = slot i si 0 and b = slot j sj 0 in
            let dx = Array.unsafe_get pos a -. Array.unsafe_get pos b
            and dy = Array.unsafe_get pos (a + 1) -. Array.unsafe_get pos (b + 1)
            and dz = Array.unsafe_get pos (a + 2) -. Array.unsafe_get pos (b + 2) in
            let r2 = (dx *. dx) +. (dy *. dy) +. (dz *. dz) +. softening in
            let inv = 1.0 /. r2 in
            let f = inv *. inv in
            Array.unsafe_set force a (Array.unsafe_get force a +. (f *. dx));
            Array.unsafe_set force (a + 1) (Array.unsafe_get force (a + 1) +. (f *. dy));
            Array.unsafe_set force (a + 2) (Array.unsafe_get force (a + 2) +. (f *. dz));
            Array.unsafe_set force b (Array.unsafe_get force b -. (f *. dx));
            Array.unsafe_set force (b + 1) (Array.unsafe_get force (b + 1) -. (f *. dy));
            Array.unsafe_set force (b + 2) (Array.unsafe_get force (b + 2) -. (f *. dz));
            potential.(0) <- potential.(0) +. inv
          done
        done
      done
    done;
    for c = 0 to cells - 1 do
      let v = vel.(c) +. (dt *. force.(c)) in
      vel.(c) <- v;
      pos.(c) <- pos.(c) +. (dt *. v)
    done
  done;
  let positions =
    Array.init nmols (fun m ->
        Array.init sites (fun s -> (pos.(slot m s 0), pos.(slot m s 1), pos.(slot m s 2))))
  in
  { positions; potential = potential.(0) }

let memory_bytes { nmols; _ } = (nmols * mol_words * Mem.Page.word_size) + 64

let binary () =
  (* Synthetic image with the paper's Water counts (Table 2). The
     CFG mirrors one timestep of the body: clear, pairwise interactions
     into a private accumulator, the merge under group locks, the
     potential-energy update — racy arm (no lock, the seeded Splash2
     bug) or fixed arm (global lock) — then the integration phase. The
     MHP lockset warnings must flag "water:pot_racy" against
     "water:pot_locked" and nothing else; the private force accumulator
     is what the data-flow pass proves private. The molecule fields are
     modelled as separate regions (positions / velocities / forces) so
     the lock discipline on forces is visible to the analysis. *)
  let open Instrument.Ir in
  let pos = 0 and frc = 1 and vel = 2 and pot = 3 and pforce = 4 in
  let page = Sim.Cost.default.Sim.Cost.page_size in
  let entry =
    block "entry"
      (App.fp_gp_ops ~name:"water" ~stack:649 ~static_data:1919
      @ [
          malloc_shared ~dst:pos "water.positions";
          malloc_shared ~dst:frc "water.forces";
          malloc_shared ~dst:vel "water.velocities";
          malloc_shared ~dst:pot "water.potential";
          malloc_private ~dst:pforce "water.private_force";
        ])
      ~succs:[ "init" ]
  in
  let init =
    block "init"
      [
        store (Reg pos) ~stride:page ~count:30 ~site:"water:init";
        store (Reg vel) ~stride:page ~count:20 ~site:"water:init";
        store (Reg pot) ~stride:8 ~count:2 ~site:"water:init";
        barrier;
      ]
      ~succs:[ "clear" ]
  in
  let clear =
    block "clear"
      [
        store (Reg frc) ~stride:page ~count:30 ~site:"water:clear";
        store (Reg pot) ~stride:8 ~count:2 ~site:"water:clear";
        barrier;
      ]
      ~succs:[ "compute" ]
  in
  let compute =
    block "compute"
      [
        load (Reg pos) ~stride:page ~count:74 ~site:"water:pos";
        load (Reg pforce) ~count:30 ~site:"water:accumulate";
        store (Reg pforce) ~count:30 ~site:"water:accumulate";
      ]
      ~succs:[ "merge" ]
  in
  let merge =
    block "merge"
      [
        acquire (lock_group 0);
        load (Reg frc) ~stride:8 ~count:54 ~site:"water:force_merge";
        store (Reg frc) ~stride:8 ~count:54 ~site:"water:force_merge";
        release (lock_group 0);
      ]
      ~succs:[ "pot_racy"; "pot_locked" ]
  in
  let pot_racy =
    block "pot_racy"
      [
        load (Reg pot) ~stride:8 ~count:2 ~site:"water:pot_racy";
        store (Reg pot) ~stride:8 ~count:2 ~site:"water:pot_racy";
      ]
      ~succs:[ "phase_end" ]
  in
  let pot_locked =
    block "pot_locked"
      [
        acquire lock_global;
        load (Reg pot) ~stride:8 ~count:2 ~site:"water:pot_locked";
        store (Reg pot) ~stride:8 ~count:2 ~site:"water:pot_locked";
        release lock_global;
      ]
      ~succs:[ "phase_end" ]
  in
  let phase_end = block "phase_end" [ barrier ] ~succs:[ "integrate" ] in
  let integrate =
    block "integrate"
      [
        load (Reg vel) ~offset:0 ~stride:page ~count:45 ~site:"water:integrate";
        load (Reg frc) ~offset:0 ~stride:page ~count:45 ~site:"water:integrate";
        load (Reg pos) ~offset:0 ~stride:page ~count:45 ~site:"water:integrate";
        store (Reg vel) ~offset:8 ~stride:page ~count:45 ~site:"water:integrate";
        store (Reg pos) ~offset:8 ~stride:page ~count:45 ~site:"water:integrate";
        barrier;
      ]
      ~succs:[ "clear"; "check" ]
  in
  let check =
    block "check"
      [
        load (Reg pos) ~stride:page ~count:27 ~site:"water:check";
        load (Reg pot) ~stride:8 ~count:2 ~site:"water:check_pot";
      ]
  in
  Instrument.Binary.make ~name:"water" ~library:124716 ~cvm:3910
    ~procs:
      [
        proc ~name:"water_main" ~entry:"entry"
          [
            entry; init; clear; compute; merge; pot_racy; pot_locked; phase_end; integrate; check;
          ];
      ]
    ()

(* Struct offsets, in words from the start of a molecule record. *)
let off_pos s axis = (s * 3) + axis
let off_vel s axis = 9 + (s * 3) + axis
let off_force s axis = 18 + (s * 3) + axis

let body ({ nmols; steps; mols_per_lock; inject_bug } as params) node =
  let open Lrc.Dsm in
  let nprocs = nprocs node and pid = pid node in
  let mols = malloc node (nmols * mol_words * Mem.Page.word_size) ~name:"water.molecules" in
  let potential = malloc node Mem.Page.word_size ~name:"water.potential" in
  let field mol off = addr_of_index mols ((mol * mol_words) + off) in
  let read_site mol s ~site:label =
    ( read_float node (field mol (off_pos s 0)) ~site:label,
      read_float node (field mol (off_pos s 1)) ~site:label,
      read_float node (field mol (off_pos s 2)) ~site:label )
  in
  let write_vec mol off (x, y, z) ~site:label =
    write_float node (field mol (off + 0)) x ~site:label;
    write_float node (field mol (off + 1)) y ~site:label;
    write_float node (field mol (off + 2)) z ~site:label
  in
  let ngroups = (nmols + mols_per_lock - 1) / mols_per_lock in
  let per = (nmols + nprocs - 1) / nprocs in
  let lo = min nmols (pid * per) and hi = min nmols ((pid + 1) * per) in
  (* initialization: own molecules *)
  for m = lo to hi - 1 do
    for s = 0 to sites - 1 do
      write_vec m (off_pos s 0) (initial_site nmols m s) ~site:"water:init";
      write_vec m (off_vel s 0) (0.0, 0.0, 0.0) ~site:"water:init";
      touch_private node 3
    done
  done;
  if pid = 0 then write_float node potential 0.0 ~site:"water:init";
  barrier node;
  for _step = 1 to steps do
    (* phase 1: clear forces (owners) and the potential (proc 0) *)
    for m = lo to hi - 1 do
      for s = 0 to sites - 1 do
        write_vec m (off_force s 0) (0.0, 0.0, 0.0) ~site:"water:clear"
      done
    done;
    if pid = 0 then write_float node potential 0.0 ~site:"water:clear";
    barrier node;
    (* phase 2: pairwise site-site interactions, cyclically partitioned by
       molecule-pair index; accumulate privately, merge under group locks *)
    let private_force = Array.make (nmols * sites * 3) 0.0 in
    let touched = Array.make nmols false in
    let slot m s axis = (((m * sites) + s) * 3) + axis in
    (* one-element arrays keep the accumulators unboxed; the site triples
       land in two reused flat buffers so the pair loop allocates nothing.
       The DSM reads keep the exact order of the tuple formulation (each
       triple was built right to left), and the arithmetic is exactly
       {!site_interaction}'s, so the simulated run is unchanged. *)
    let local_potential = Array.make 1 0.0 in
    let pos_i = Array.make (sites * 3) 0.0 in
    let pos_j = Array.make (sites * 3) 0.0 in
    let load_sites buf mol =
      for s = 0 to sites - 1 do
        let b = s * 3 in
        buf.(b + 2) <- read_float node (field mol (off_pos s 2)) ~site:"water:pos";
        buf.(b + 1) <- read_float node (field mol (off_pos s 1)) ~site:"water:pos";
        buf.(b) <- read_float node (field mol (off_pos s 0)) ~site:"water:pos"
      done
    in
    let pair_index = ref 0 in
    for i = 0 to nmols - 1 do
      for j = i + 1 to nmols - 1 do
        if !pair_index mod nprocs = pid then begin
          load_sites pos_i i;
          load_sites pos_j j;
          for si = 0 to sites - 1 do
            for sj = 0 to sites - 1 do
              let a = si * 3 and b = sj * 3 in
              let dx = Array.unsafe_get pos_i a -. Array.unsafe_get pos_j b
              and dy = Array.unsafe_get pos_i (a + 1) -. Array.unsafe_get pos_j (b + 1)
              and dz = Array.unsafe_get pos_i (a + 2) -. Array.unsafe_get pos_j (b + 2) in
              let r2 = (dx *. dx) +. (dy *. dy) +. (dz *. dz) +. softening in
              let inv = 1.0 /. r2 in
              let f = inv *. inv in
              let ia = slot i si 0 and jb = slot j sj 0 in
              Array.unsafe_set private_force ia
                (Array.unsafe_get private_force ia +. (f *. dx));
              Array.unsafe_set private_force (ia + 1)
                (Array.unsafe_get private_force (ia + 1) +. (f *. dy));
              Array.unsafe_set private_force (ia + 2)
                (Array.unsafe_get private_force (ia + 2) +. (f *. dz));
              Array.unsafe_set private_force jb
                (Array.unsafe_get private_force jb -. (f *. dx));
              Array.unsafe_set private_force (jb + 1)
                (Array.unsafe_get private_force (jb + 1) -. (f *. dy));
              Array.unsafe_set private_force (jb + 2)
                (Array.unsafe_get private_force (jb + 2) -. (f *. dz));
              local_potential.(0) <- local_potential.(0) +. inv
            done
          done;
          touched.(i) <- true;
          touched.(j) <- true;
          touch_private node 60;
          compute node 250.0
        end;
        incr pair_index
      done
    done;
    (* merge per lock group: a group's members are the touched molecules
       in its contiguous [mols_per_lock] range, visited in ascending
       order — the same set and order the old list pipeline produced *)
    for g = 0 to ngroups - 1 do
      let g_lo = g * mols_per_lock and g_hi = min nmols ((g + 1) * mols_per_lock) in
      let any = ref false in
      for m = g_lo to g_hi - 1 do
        if touched.(m) then any := true
      done;
      if !any then
        with_lock node (lock_group g) (fun () ->
            for m = g_lo to g_hi - 1 do
              if touched.(m) then begin
                for s = 0 to sites - 1 do
                  for axis = 0 to 2 do
                    let addr = field m (off_force s axis) in
                    let v = read_float node addr ~site:"water:force_merge" in
                    write_float node addr (v +. private_force.(slot m s axis))
                      ~site:"water:force_merge"
                  done
                done;
                touch_private node 9
              end
            done)
    done;
    (* the potential-energy sum: the seeded Splash2-style bug updates the
       global accumulator without the lock *)
    if inject_bug then begin
      let pot = read_float node potential ~site:"water:pot_racy" in
      write_float node potential (pot +. local_potential.(0)) ~site:"water:pot_racy"
    end
    else
      with_lock node lock_global (fun () ->
          let pot = read_float node potential ~site:"water:pot_locked" in
          write_float node potential (pot +. local_potential.(0)) ~site:"water:pot_locked");
    barrier node;
    (* phase 3: integrate own molecules. The triples are read in the
       tuple formulation's order (right to left within a triple) and
       written ascending, without building the intermediate tuples. *)
    for m = lo to hi - 1 do
      for s = 0 to sites - 1 do
        let vb = off_vel s 0 and fb = off_force s 0 and pb = off_pos s 0 in
        let vz = read_float node (field m (vb + 2)) ~site:"water:integrate" in
        let vy = read_float node (field m (vb + 1)) ~site:"water:integrate" in
        let vx = read_float node (field m (vb + 0)) ~site:"water:integrate" in
        let fz = read_float node (field m (fb + 2)) ~site:"water:integrate" in
        let fy = read_float node (field m (fb + 1)) ~site:"water:integrate" in
        let fx = read_float node (field m (fb + 0)) ~site:"water:integrate" in
        let vx = vx +. (dt *. fx) and vy = vy +. (dt *. fy) and vz = vz +. (dt *. fz) in
        write_float node (field m (vb + 0)) vx ~site:"water:integrate";
        write_float node (field m (vb + 1)) vy ~site:"water:integrate";
        write_float node (field m (vb + 2)) vz ~site:"water:integrate";
        let z = read_float node (field m (pb + 2)) ~site:"water:integrate" in
        let y = read_float node (field m (pb + 1)) ~site:"water:integrate" in
        let x = read_float node (field m (pb + 0)) ~site:"water:integrate" in
        write_float node (field m (pb + 0)) (x +. (dt *. vx)) ~site:"water:integrate";
        write_float node (field m (pb + 1)) (y +. (dt *. vy)) ~site:"water:integrate";
        write_float node (field m (pb + 2)) (z +. (dt *. vz)) ~site:"water:integrate";
        touch_private node 8;
        compute node 30.0
      done
    done;
    barrier node
  done;
  (* self-check at processor 0: site positions must match the reference
     within floating-point reassociation tolerance; the potential is only
     checked in the fixed version (the bug can genuinely lose updates) *)
  if pid = 0 then begin
    let expected = reference params in
    let close a b = Float.abs (a -. b) <= 1e-4 *. (1.0 +. Float.abs b) in
    Array.iteri
      (fun m site_positions ->
        Array.iteri
          (fun s (ex, ey, ez) ->
            let gx, gy, gz = read_site m s ~site:"water:check" in
            if not (close gx ex && close gy ey && close gz ez) then
              failwith
                (Printf.sprintf "water: molecule %d site %d at (%g,%g,%g), reference (%g,%g,%g)"
                   m s gx gy gz ex ey ez))
          site_positions)
      expected.positions;
    if not inject_bug then begin
      let got = read_float node potential in
      if not (close got expected.potential) then
        failwith (Printf.sprintf "water: potential %g, reference %g" got expected.potential)
    end
  end;
  barrier node

let make params =
  {
    App.name = "Water";
    input_description = Printf.sprintf "%d mols, %d iters" params.nmols params.steps;
    synchronization = "lock, barrier";
    memory_bytes = memory_bytes params;
    binary;
    body = body params;
  }
