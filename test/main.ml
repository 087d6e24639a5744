let () =
  Alcotest.run "wali-repro"
    [
      ("wasm", Test_wasm.tests);
      ("interp", Test_interp.tests);
      ("fusion", Test_fusion.tests);
      ("fiber", Test_fiber.tests);
      ("kernel", Test_kernel.tests);
      ("wali-basic", Test_wali_basic.tests);
      ("minic", Test_minic.tests);
      ("backends", Test_backends.tests);
      ("apps", Test_apps.tests);
      ("wasi", Test_wasi.tests);
      ("wazi", Test_wazi.tests);
      ("mmap", Test_mmap.tests);
      ("analysis", Test_analysis.tests);
      ("replay", Test_replay.tests);
      ("observe", Test_observe.tests);
      ("perf", Test_perf.tests);
    ]
