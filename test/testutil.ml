(* Shared helpers for the test suites. *)

let contains haystack needle =
  let hay_len = String.length haystack and needle_len = String.length needle in
  let rec scan i =
    i + needle_len <= hay_len && (String.sub haystack i needle_len = needle || scan (i + 1))
  in
  needle_len = 0 || scan 0

(* Run an SPMD body on a fresh cluster and return it for inspection. *)
let run_cluster ?(cfg = Coherence.Config.default) ?(nprocs = 4) ?(pages = 8) body =
  let cluster = Backends.create ~cfg ~nprocs ~pages () in
  cluster.Coherence.Backend.run body;
  cluster

let racy_addrs_of cluster =
  cluster.Coherence.Backend.races ()
  |> List.map (fun (r : Proto.Race.t) -> r.addr)
  |> List.sort_uniq compare

let detect_cfg =
  { Coherence.Config.default with Coherence.Config.detect = true; record_trace = true }

let addr_list = Alcotest.list (Alcotest.testable (fun ppf a -> Format.fprintf ppf "0x%x" a) ( = ))

(* ------------------------------------------------------------------ *)
(* Per-kernel expectations, shared by the LRC kernel suite
   (suite_litmus) and the bus-backend kernel suite (suite_cc): the
   number of racy addresses each protocol-stress kernel must exhibit is
   a property of the kernel, not of the machine underneath, so both
   suites must check against this one table. A kernel missing from the
   table fails loudly — add its entry here, once, for every suite. *)

let kernel_expected_races =
  [
    ("diff-cache-reuse", 1);
    ("gc-interval-rerequest", 1);
    ("write-notice-invalid", 0);
    ("lock-handoff-chain", 0);
    ("lock-chained-publish", 0);
    ("false-sharing-writers", 0);
    ("true-sharing-overlap", 1);
    ("multi-reader-race", 1);
    ("partially-locked", 1);
  ]

let expected_races (kernel : Litmus.kernel) =
  match List.assoc_opt kernel.Litmus.k_name kernel_expected_races with
  | Some n -> n
  | None ->
      Alcotest.failf
        "kernel %S has no entry in Testutil.kernel_expected_races — add its expected \
         racy-address count there so the LRC and CC suites stay in sync"
        kernel.Litmus.k_name

(* One Alcotest case per registered kernel: run it via [run] (which
   fixes the protocol or backend), require detector = oracle, and pin
   the racy-address count to the shared table. *)
let kernel_cases ~label ~run =
  List.iter
    (fun (name, _) ->
      if not (List.exists (fun k -> k.Litmus.k_name = name) Litmus.kernels) then
        failwith
          (Printf.sprintf
             "Testutil.kernel_expected_races names %S but Litmus.kernels has no such \
              kernel — stale table entry"
             name))
    kernel_expected_races;
  List.map
    (fun (kernel : Litmus.kernel) ->
      let expected = expected_races kernel in
      Alcotest.test_case
        (Printf.sprintf "%s %s = oracle, %d racy" label kernel.Litmus.k_name expected)
        `Quick
        (fun () ->
          let outcome : Litmus.kernel_outcome = run kernel in
          Alcotest.check addr_list
            (kernel.Litmus.k_name ^ ": detector agrees with oracle")
            outcome.Litmus.oracle outcome.Litmus.detected;
          Alcotest.check Alcotest.int
            (Printf.sprintf "%s: %d racy address(es)" kernel.Litmus.k_name expected)
            expected
            (List.length outcome.Litmus.detected)))
    Litmus.kernels
