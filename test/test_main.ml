let () =
  Alcotest.run "ultrasparse"
    (Test_util.suite @ Test_graph.suite @ Test_distnet.suite @ Test_obs.suite @ Test_prof.suite @ Test_spans.suite @ Test_jsonl.suite @ Test_skeleton.suite @ Test_fibonacci.suite @ Test_baseline.suite @ Test_lowerbound.suite @ Test_experiments.suite @ Test_oracle.suite @ Test_weighted.suite @ Test_combined.suite @ Test_streaming.suite @ Test_fidelity.suite @ Test_more.suite @ Test_supercluster.suite @ Test_routing.suite @ Test_serve.suite @ Test_scenario.suite)
