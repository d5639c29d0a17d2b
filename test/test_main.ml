let () =
  Alcotest.run "cgcm"
    [
      ("support", Test_support.tests);
      ("memory", Test_memory.tests);
      ("ir", Test_ir.tests);
      ("frontend", Test_frontend.tests);
      ("analysis", Test_analysis.tests);
      ("runtime", Test_runtime.tests);
      ("interp", Test_interp.tests);
      ("transform", Test_transform.tests);
      ("pipeline", Test_pipeline.tests);
      ("gpusim", Test_gpusim.tests);
      ("report", Test_report.tests);
      ("advanced", Test_advanced.tests);
      ("oracle", Test_oracle.tests);
      ("simplify", Test_simplify.tests);
      ("bench-progs", Test_bench_progs.tests);
      ("edge", Test_edge.tests);
      ("fastpath", Test_fastpath.tests);
      ("addr-shapes", Test_addr_shapes.tests);
      ("prepared", Test_prepared.tests);
      ("parallel", Test_parallel.tests);
      ("reader", Test_reader.tests);
      ("infra", Test_infra.tests);
      ("midend", Test_midend.tests);
      ("faults", Test_faults.tests);
      ("sanitizer", Test_sanitizer.tests);
      ("fuzz", Test_fuzz.tests);
      ("diagnostics", Test_diagnostics.tests);
      ("serve", Test_serve.tests);
      ("membackend", Test_membackend.tests);
      ("domains", Test_domain_safety.tests);
    ]
