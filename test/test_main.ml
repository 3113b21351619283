(* Aggregates every test suite; run with `dune runtest`. *)

let () =
  Alcotest.run "cvm-race"
    (Suite_sim.suite @ Suite_mem.suite @ Suite_proto.suite @ Suite_detector.suite
   @ Suite_lrc.suite @ Suite_detection.suite @ Suite_apps.suite @ Suite_instrument.suite
   @ Suite_dataflow.suite @ Suite_numerics.suite @ Suite_extra.suite @ Suite_litmus.suite
   @ Suite_extensions.suite @ Suite_faults.suite @ Suite_trace.suite
   @ Suite_parallel.suite @ Suite_bench_compare.suite
   @ Suite_perf_equiv.suite @ Suite_mhp.suite @ Suite_cc.suite @ Suite_workload.suite
   @ Suite_config.suite)
