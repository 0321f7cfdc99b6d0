(* Aggregated alcotest runner for the whole repository. *)

let () =
  Alcotest.run "oclcuda"
    (Test_frontend.suites @ Test_vm.suites @ Test_gpusim.suites
     @ Test_apis.suites @ Test_translate.suites @ Test_feature.suites
     @ Test_bridge.suites @ Test_svm.suites @ Test_failures.suites
     @ Test_apps.suites @ Test_analysis.suites @ Test_trace.suites
     @ Test_backend.suites @ Test_ir.suites @ Test_fuzz.suites
     @ Test_golden.suites
     @ Test_parallel.suites @ Test_validate.suites @ Test_attr.suites
     @ Test_lockstep.suites @ Test_fusion.suites @ Test_bookkeeping.suites
     @ Test_banks.suites @ Test_host.suites @ Test_frames.suites)
