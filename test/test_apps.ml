(* Whole-corpus integration tests.  Every application must produce
   identical results in the original and translated configuration; FT is
   excluded here because its large kernel budget belongs to the bench
   harness.  It is still validated under `dune runtest`: its fig7b row,
   outputs_agree included, is part of the figure golden that bench/dune
   diffs against BENCH_results.json. *)

open Bridge.Framework

let check_ocl_app (a : ocl_app) () =
  let native = run_app_native a () in
  let on_cuda = run_app_on_cuda a () in
  Alcotest.(check bool)
    (a.oa_name ^ ": outputs agree after OpenCL->CUDA translation")
    true
    (outputs_agree native.r_output on_cuda.r_output);
  Alcotest.(check bool) (a.oa_name ^ ": non-empty output") true
    (String.length native.r_output > 0)

let check_cuda_app (c : Suite.Registry.cuda_app) () =
  match translate_cuda ~tex1d_texels:c.cu_tex1d_texels c.cu_src with
  | Failed findings ->
    Alcotest.(check bool)
      (c.cu_name ^ ": failure expected")
      false c.cu_expect_translatable;
    Alcotest.(check bool) (c.cu_name ^ ": failure has a reason") true
      (findings <> [])
  | Translated res ->
    Alcotest.(check bool)
      (c.cu_name ^ ": success expected")
      true c.cu_expect_translatable;
    let native = run_cuda_native c.cu_src in
    let xlat = run_translated_cuda res in
    Alcotest.(check bool)
      (c.cu_name ^ ": outputs agree after CUDA->OpenCL translation")
      true
      (outputs_agree native.r_output xlat.r_output)

let slow = [ "FT" ]

let ocl_cases =
  List.filter_map
    (fun (a : ocl_app) ->
       if List.mem a.oa_name slow then None
       else
         Some
           (Alcotest.test_case
              (Printf.sprintf "%s/%s" a.oa_suite a.oa_name)
              `Slow (check_ocl_app a)))
    Suite.Registry.all_opencl

let cuda_cases =
  List.map
    (fun (c : Suite.Registry.cuda_app) ->
       Alcotest.test_case
         (Printf.sprintf "%s/%s" c.cu_suite c.cu_name)
         `Slow (check_cuda_app c))
    (Suite.Registry.rodinia_cuda @ Suite.Registry.toolkit_cuda_ok)

(* portability: a sample of translated apps must agree on the AMD device *)
let amd_cases =
  List.filter_map
    (fun name ->
       match
         List.find_opt
           (fun (c : Suite.Registry.cuda_app) -> c.cu_name = name)
           Suite.Registry.all_cuda
       with
       | None -> None
       | Some c ->
         Some
           (Alcotest.test_case ("amd/" ^ name) `Slow (fun () ->
                match translate_cuda c.cu_src with
                | Failed _ -> Alcotest.fail "expected translatable"
                | Translated res ->
                  let native = run_cuda_native c.cu_src in
                  let amd =
                    run_translated_cuda ~dev:(device_of Amd_opencl) res
                  in
                  Alcotest.(check bool) "agrees on HD7970" true
                    (outputs_agree native.r_output amd.r_output))))
    [ "vectorAdd"; "hotspot"; "srad"; "simpleTexture"; "convolutionSeparable" ]

let suites =
  [ ("apps-opencl", ocl_cases);
    ("apps-cuda", cuda_cases);
    ("apps-amd", amd_cases) ]
