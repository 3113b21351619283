(* Parallel.map.

   Its whole contract is: results come back in input order, every task
   runs, the first failure in input order is re-raised, and running an
   experiment at [jobs > 1] yields exactly the rows the sequential run
   yields. Each property is tested directly, the last one against real
   [Core.Experiments] sweeps. *)

let check = Alcotest.check

exception Boom of int

(* Burn a task-dependent amount of CPU so parallel completions genuinely
   finish out of input order. *)
let spin n =
  let acc = ref 0 in
  for i = 1 to 1 + (n mod 97) * 500 do
    acc := !acc + i
  done;
  !acc

let prop_order jobs =
  QCheck.Test.make
    ~name:(Printf.sprintf "map at jobs=%d preserves submission order" jobs)
    ~count:30
    QCheck.(list_of_size Gen.(0 -- 40) small_nat)
    (fun xs ->
      let f x =
        ignore (spin x);
        (x * 2) + 1
      in
      Parallel.map ~jobs f xs = List.map f xs)

let test_map_reraises () =
  Alcotest.check_raises "map re-raises the task's failure" (Boom 7) (fun () ->
      ignore (Parallel.map ~jobs:2 (fun x -> if x = 1 then raise (Boom 7) else x) [ 0; 1; 2 ]))

(* The later failure is quick and the earlier one slow, so the later one
   usually raises first in time; the earlier in input order must still
   win, after every task has run. *)
let test_first_failure_in_order () =
  let ran = Atomic.make 0 in
  Alcotest.check_raises "the earlier failure in input order" (Boom 2) (fun () ->
      ignore
        (Parallel.map ~jobs:4
           (fun x ->
             Atomic.incr ran;
             if x = 2 then begin
               ignore (spin 96);
               raise (Boom 2)
             end;
             if x = 5 then raise (Boom 5);
             x)
           (List.init 8 Fun.id)));
  check Alcotest.int "every task ran" 8 (Atomic.get ran)

let test_max_jobs () =
  let xs = List.init 300 Fun.id in
  check (Alcotest.list Alcotest.int) "same as List.map" (List.map succ xs)
    (Parallel.map ~jobs:Parallel.max_jobs succ xs)

let test_jobs_out_of_range () =
  List.iter
    (fun jobs ->
      match Parallel.map ~jobs Fun.id [ 1 ] with
      | _ -> Alcotest.failf "jobs=%d accepted" jobs
      | exception Invalid_argument _ -> ())
    [ 0; Parallel.max_jobs + 1 ]

let test_jobs1_on_caller () =
  let self = Domain.self () in
  check Alcotest.bool "every task ran on the calling domain" true
    (List.for_all (fun d -> d = self) (Parallel.map ~jobs:1 (fun _ -> Domain.self ()) [ 1; 2; 3 ]))

(* The claim the whole bench/experiment wiring rests on: a sweep's rows
   are identical whatever the job count. *)

let test_experiments_jobs_equal () =
  let seq = Core.Experiments.fault_sweep_all ~scale:Apps.Registry.Small ~nprocs:4
      ~drops:[ 0.0; 0.2 ] ~jobs:1 ()
  and par = Core.Experiments.fault_sweep_all ~scale:Apps.Registry.Small ~nprocs:4
      ~drops:[ 0.0; 0.2 ] ~jobs:4 ()
  in
  check Alcotest.bool "fault sweep rows identical at jobs=1 and jobs=4" true (seq = par)

let test_figure5_jobs_equal () =
  let seq = Core.Experiments.figure5_both ~jobs:1 ()
  and par = Core.Experiments.figure5_both ~jobs:2 () in
  check Alcotest.bool "figure 5 rows identical at jobs=1 and jobs=2" true (seq = par)

(* A sweep point's word counts are its own: measured beside a
   concurrent point at jobs 2, its minor words equal the same point's
   run alone. A program-wide counter would also bill the neighbour's
   allocation, and [Gc.counters]' minor figure would move with the
   number of minor collections. *)

let test_sweep_point_words_own () =
  let sor = ("sor", 4, true, false, "lrc") and water = ("water", 4, true, false, "lrc") in
  let points ~jobs ps =
    Core.Experiments.sweep_points ~scale:Apps.Registry.Small ~jobs ps
    |> List.map (fun sp -> sp.Core.Experiments.sp_minor_words)
  in
  let alone = List.hd (points ~jobs:1 [ sor ]) in
  let beside = List.hd (points ~jobs:2 [ sor; water ]) in
  check (Alcotest.float 0.0) "minor words beside a concurrent point equal alone" alone beside

let suite =
  [
    ( "parallel-pool",
      List.map QCheck_alcotest.to_alcotest [ prop_order 1; prop_order 2; prop_order 8 ]
      @ [
          Alcotest.test_case "map re-raises" `Quick test_map_reraises;
          Alcotest.test_case "earlier failure wins, every task runs" `Quick
            test_first_failure_in_order;
          Alcotest.test_case "map at jobs=max_jobs equals List.map" `Quick test_max_jobs;
          Alcotest.test_case "jobs outside 1..max_jobs rejected" `Quick
            test_jobs_out_of_range;
          Alcotest.test_case "jobs=1 runs on the calling domain" `Quick test_jobs1_on_caller;
          Alcotest.test_case "fault sweep equal across jobs" `Quick
            test_experiments_jobs_equal;
          Alcotest.test_case "figure 5 equal across jobs" `Quick test_figure5_jobs_equal;
          Alcotest.test_case "sweep point words are its own" `Quick
            test_sweep_point_words_own;
        ] );
  ]
