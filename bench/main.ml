(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (§6) on the simulated devices, plus the ablations that
   isolate the mechanisms DESIGN.md calls out.

     dune exec bench/main.exe            -- run everything
     dune exec bench/main.exe fig7a      -- one experiment
     (table1 table2 fig7a fig7b fig7c fig8a fig8b table3
      ablation-banks ablation-occupancy wrappers svm analyze validate
      smoke fuzz backends bechamel)

   Times are simulated nanoseconds from the GPU model; figures print the
   same normalised series as the paper's charts.  Besides the tables, a
   machine-readable BENCH_results.json (schema oclcu-bench-results/1) is
   written with each experiment's ratios, geomeans, and per-app counters
   harvested from metrics-only tracing.  Rows whose outputs fail
   verification are excluded from geomeans and reported. *)

open Bridge.Framework

let line = String.make 78 '-'

let header title =
  Printf.printf "\n%s\n%s\n%s\n%!" line title line

let geomean xs =
  match xs with
  | [] -> nan
  | _ ->
    exp (List.fold_left (fun a x -> a +. log x) 0.0 xs /. float_of_int (List.length xs))

(* ------------------------------------------------------------------ *)
(* BENCH_results.json                                                  *)
(* ------------------------------------------------------------------ *)

module J = Trace.Json

(* Each experiment records one JSON section; the driver merges them
   into BENCH_results.json at the end of the run. *)
let json_results : (string * J.t) list ref = ref []

let record key section = json_results := (key, section) :: !json_results

let results_path = "BENCH_results.json"

(* The experiment sections of the results file; [] when it is absent or
   unreadable. *)
let recorded_experiments () =
  match
    J.member "experiments"
      (J.of_string (In_channel.with_open_bin results_path In_channel.input_all))
  with
  | Some (J.Obj kvs) -> kvs
  | _ -> []
  | exception _ -> []

(* Run [f] with metrics-only tracing (no spans) and hand back its
   per-launch metrics records alongside the result. *)
let with_metrics f =
  Trace.Sink.enable ~spans:false ();
  let finish () =
    let ms = Trace.Sink.metrics () in
    Trace.Sink.disable ();
    ms
  in
  match f () with
  | r -> (r, finish ())
  | exception e -> ignore (finish ()); raise e

(* Aggregate one run's launch records into the per-app counter object. *)
let counters_json (ms : Trace.Metrics.t list) =
  let sum f = List.fold_left (fun a m -> a + f m) 0 ms in
  let sumf f = List.fold_left (fun a m -> a +. f m) 0.0 ms in
  let open Trace.Metrics in
  J.Obj
    [ ("kernel_launches", J.Int (List.length ms));
      ("kernels",
       J.List
         (List.sort_uniq compare (List.map (fun m -> m.m_kernel) ms)
          |> List.map (fun k -> J.Str k)));
      ("ops", J.Int (sum total_ops));
      ("barriers", J.Int (sum (fun m -> m.m_barriers)));
      ("gmem_transactions", J.Int (sum (fun m -> m.m_gmem_transactions)));
      ("gmem_bytes", J.Int (sum (fun m -> m.m_gmem_bytes)));
      ("smem_transactions", J.Int (sum (fun m -> m.m_smem_transactions)));
      ("smem_bank_conflict_extra",
       J.Int (sum (fun m -> m.m_smem_bank_conflict_extra)));
      ("kernel_sim_ns", J.Float (sumf (fun m -> m.m_sim_ns))) ]

(* A section recorded by this run replaces its namesake in the file (the
   latest recording wins); every other section of the file is kept, so
   running one experiment does not discard the committed baseline. *)
let write_results () =
  if !json_results <> [] then begin
    let previous = recorded_experiments () in
    let keys =
      List.fold_left
        (fun acc (k, _) -> if List.mem k acc then acc else acc @ [ k ])
        (List.map fst previous) (List.rev !json_results)
    in
    let section k =
      match List.assoc_opt k !json_results with
      | Some v -> (k, v)
      | None -> (k, List.assoc k previous)
    in
    let doc =
      J.Obj
        [ ("schema", J.Str "oclcu-bench-results/1");
          ("device", J.Str Gpusim.Device.titan.Gpusim.Device.hw_name);
          ("experiments", J.Obj (List.map section keys)) ]
    in
    Out_channel.with_open_bin results_path (fun oc ->
        output_string oc (J.to_string_pretty doc);
        output_char oc '\n');
    Printf.printf "\nwrote %s (%d experiment section(s) recorded)\n"
      results_path (List.length !json_results)
  end

(* ------------------------------------------------------------------ *)
(* Tables 1 and 2                                                      *)
(* ------------------------------------------------------------------ *)

let table1 () =
  header "Table 1: Device memory allocation";
  Printf.printf "%-24s %-8s %-7s %-5s\n" "" "" "OpenCL" "CUDA";
  List.iter
    (fun (mem, kind, (ocl, cuda)) ->
       Printf.printf "%-24s %-8s %-7s %-5s\n" mem kind
         (Xlat.Feature.support_str ocl) (Xlat.Feature.support_str cuda))
    Xlat.Feature.allocation_matrix

let table2 () =
  header "Table 2: System configurations (simulated)";
  let show (hw : Gpusim.Device.hw) =
    Printf.printf
      "%-28s  SMs/CUs %-3d  warp %-3d  clock %.3f GHz  mem %.1f GB  bw %.1f GB/s\n"
      hw.hw_name hw.sm_count hw.warp_size hw.clock_ghz
      (float_of_int hw.global_mem /. 1073741824.0)
      hw.gmem_bw_gbps
  in
  show Gpusim.Device.titan;
  show Gpusim.Device.hd7970;
  Printf.printf "Frameworks: CUDA (CC 3.5, 64-bit smem addressing), \
                 NVIDIA OpenCL 1.2 (32-bit smem addressing), AMD APP OpenCL\n"

(* ------------------------------------------------------------------ *)
(* Figure 7: OpenCL -> CUDA                                            *)
(* ------------------------------------------------------------------ *)

let fig7_row ~third_bar (a : ocl_app) =
  let native, m_native = with_metrics (fun () -> run_app_native a ()) in
  let on_cuda, m_xlat = with_metrics (fun () -> run_app_on_cuda a ()) in
  let agree = outputs_agree native.r_output on_cuda.r_output in
  let ratio = on_cuda.r_time_ns /. native.r_time_ns in
  let cuda_orig =
    if not third_bar then None
    else
      match Suite.Registry.cuda_twin a with
      | Some twin ->
        (try
           let r = run_cuda_native twin.Suite.Registry.cu_src in
           Some (r.r_time_ns /. native.r_time_ns)
         with _ -> None)
      | None -> None
  in
  (a.oa_name, a.oa_suite, ratio, cuda_orig, agree, m_native, m_xlat)

let print_fig7 ~key title apps ~third_bar =
  header title;
  Printf.printf "%-26s %9s %9s %9s %7s\n" "application" "origOCL" "xlatCUDA"
    (if third_bar then "origCUDA" else "") "agree";
  let ratios = ref [] and rows = ref [] and excluded = ref [] in
  List.iter
    (fun a ->
       let name, suite, ratio, cuda_orig, agree, m_native, m_xlat =
         fig7_row ~third_bar a
       in
       (* a mismatching app is a broken translation, not a slow one: it
          must not contribute to the geomean *)
       if agree then ratios := ratio :: !ratios
       else excluded := name :: !excluded;
       rows :=
         J.Obj
           [ ("app", J.Str name);
             ("suite", J.Str suite);
             ("ratio_xlat_cuda", J.Float ratio);
             ("ratio_orig_cuda",
              (match cuda_orig with Some r -> J.Float r | None -> J.Null));
             ("outputs_agree", J.Bool agree);
             ("counters",
              J.Obj
                [ ("native", counters_json m_native);
                  ("translated", counters_json m_xlat) ]) ]
         :: !rows;
       Printf.printf "%-26s %9.3f %9.3f %9s %7b\n%!" name 1.0 ratio
         (match cuda_orig with Some r -> Printf.sprintf "%.3f" r | None -> "-")
         agree)
    apps;
  Printf.printf "%-26s %9s %9.3f   (%d verified app(s))\n" "geomean" ""
    (geomean !ratios) (List.length !ratios);
  if !excluded <> [] then
    Printf.printf "excluded from geomean (outputs mismatch): %s\n"
      (String.concat ", " (List.rev !excluded));
  record key
    (J.Obj
       [ ("rows", J.List (List.rev !rows));
         ("geomean_xlat_cuda", J.Float (geomean !ratios));
         ("verified_apps", J.Int (List.length !ratios));
         ("excluded_outputs_mismatch",
          J.List (List.rev_map (fun n -> J.Str n) !excluded)) ])

let fig7a () =
  print_fig7 ~key:"fig7a"
    "Figure 7(a): OpenCL->CUDA, Rodinia (normalised to original OpenCL on Titan)"
    Suite.Registry.rodinia_opencl ~third_bar:true

let fig7b () =
  print_fig7 ~key:"fig7b" "Figure 7(b): OpenCL->CUDA, SNU NPB"
    Suite.Registry.npb_opencl ~third_bar:false

let fig7c () =
  print_fig7 ~key:"fig7c" "Figure 7(c): OpenCL->CUDA, NVIDIA Toolkit samples"
    Suite.Registry.toolkit_opencl ~third_bar:false

(* ------------------------------------------------------------------ *)
(* Figure 8: CUDA -> OpenCL                                            *)
(* ------------------------------------------------------------------ *)

let fig8_row (c : Suite.Registry.cuda_app) =
  match translate_cuda ~tex1d_texels:c.cu_tex1d_texels c.cu_src with
  | Failed findings -> Error findings
  | Translated res ->
    let cuda, m_cuda = with_metrics (fun () -> run_cuda_native c.cu_src) in
    let xlat_titan, m_xlat = with_metrics (fun () -> run_translated_cuda res) in
    let xlat_amd = run_translated_cuda ~dev:(device_of Amd_opencl) res in
    let ocl_orig =
      match Suite.Registry.opencl_twin c with
      | Some a -> Some ((run_app_native a ()).r_time_ns /. cuda.r_time_ns)
      | None -> None
    in
    Ok
      ( xlat_titan.r_time_ns /. cuda.r_time_ns,
        ocl_orig,
        xlat_amd.r_time_ns /. cuda.r_time_ns,
        outputs_agree cuda.r_output xlat_titan.r_output,
        m_cuda, m_xlat )

let print_fig8 ~key title apps ~with_ocl_orig =
  header title;
  Printf.printf "%-26s %9s %9s %9s %9s %7s\n" "application" "origCUDA"
    "xlatOCL" (if with_ocl_orig then "origOCL" else "") "xlatAMD" "agree";
  let ratios = ref [] and rows = ref [] and excluded = ref [] in
  let failures = ref [] in
  List.iter
    (fun (c : Suite.Registry.cuda_app) ->
       match fig8_row c with
       | Error findings ->
         let cats =
           List.sort_uniq compare
             (List.map
                (fun f -> Xlat.Feature.category_name f.Xlat.Feature.f_category)
                findings)
         in
         failures := (c.cu_name, cats) :: !failures
       | Ok (xlat, ocl_orig, amd, agree, m_cuda, m_xlat) ->
         (* same rule as fig7: unverified rows stay out of the geomean *)
         if agree then ratios := xlat :: !ratios
         else excluded := c.cu_name :: !excluded;
         rows :=
           J.Obj
             [ ("app", J.Str c.cu_name);
               ("suite", J.Str c.cu_suite);
               ("ratio_xlat_ocl", J.Float xlat);
               ("ratio_orig_ocl",
                (match ocl_orig with Some r -> J.Float r | None -> J.Null));
               ("ratio_xlat_amd", J.Float amd);
               ("outputs_agree", J.Bool agree);
               ("counters",
                J.Obj
                  [ ("native", counters_json m_cuda);
                    ("translated", counters_json m_xlat) ]) ]
           :: !rows;
         Printf.printf "%-26s %9.3f %9.3f %9s %9.3f %7b\n%!" c.cu_name 1.0 xlat
           (match ocl_orig with Some r -> Printf.sprintf "%.3f" r | None -> "-")
           amd agree)
    apps;
  Printf.printf "%-26s %9s %9.3f   (%d verified app(s))\n" "geomean (xlatOCL)"
    "" (geomean !ratios) (List.length !ratios);
  if !excluded <> [] then
    Printf.printf "excluded from geomean (outputs mismatch): %s\n"
      (String.concat ", " (List.rev !excluded));
  if !failures <> [] then begin
    Printf.printf "\nuntranslatable (%d):\n" (List.length !failures);
    List.iter
      (fun (n, cats) ->
         Printf.printf "  %-24s %s\n" n (String.concat "; " cats))
      (List.rev !failures)
  end;
  record key
    (J.Obj
       [ ("rows", J.List (List.rev !rows));
         ("geomean_xlat_ocl", J.Float (geomean !ratios));
         ("verified_apps", J.Int (List.length !ratios));
         ("excluded_outputs_mismatch",
          J.List (List.rev_map (fun n -> J.Str n) !excluded));
         ("untranslatable",
          J.List
            (List.rev_map
               (fun (n, cats) ->
                  J.Obj
                    [ ("app", J.Str n);
                      ("categories",
                       J.List (List.map (fun c -> J.Str c) cats)) ])
               !failures)) ])

let fig8a () =
  print_fig8 ~key:"fig8a"
    "Figure 8(a): CUDA->OpenCL, Rodinia (normalised to original CUDA on Titan)"
    Suite.Registry.rodinia_cuda ~with_ocl_orig:true

let fig8b () =
  print_fig8 ~key:"fig8b" "Figure 8(b): CUDA->OpenCL, NVIDIA Toolkit samples"
    Suite.Registry.toolkit_cuda ~with_ocl_orig:false

(* ------------------------------------------------------------------ *)
(* Table 3                                                             *)
(* ------------------------------------------------------------------ *)

let table3 () =
  header "Table 3: Reasons of translation failures in NVIDIA Toolkit samples";
  let by_cat : (string, string list ref) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun (c : Suite.Registry.cuda_app) ->
       match translate_cuda ~tex1d_texels:c.cu_tex1d_texels c.cu_src with
       | Translated _ -> ()
       | Failed findings ->
         let cats =
           List.sort_uniq compare
             (List.map (fun f -> f.Xlat.Feature.f_category) findings)
         in
         (* like the paper, file each sample under one primary reason;
            multi-reason samples are starred *)
         let primary = List.hd cats in
         let key = Xlat.Feature.category_name primary in
         let cell =
           match Hashtbl.find_opt by_cat key with
           | Some l -> l
           | None ->
             let l = ref [] in
             Hashtbl.replace by_cat key l;
             l
         in
         let label =
           if List.length cats > 1 then c.cu_name ^ "*" else c.cu_name
         in
         cell := label :: !cell)
    Suite.Registry.toolkit_cuda;
  let order =
    [ "No corresponding functions"; "Unsupported libraries";
      "Unsupported language extensions"; "OpenGL binding"; "Use of PTX";
      "Use of unified virtual address space" ]
  in
  List.iter
    (fun cat ->
       match Hashtbl.find_opt by_cat cat with
       | None -> ()
       | Some apps ->
         Printf.printf "%-40s (%2d)  %s\n" cat (List.length !apps)
           (String.concat ", " (List.rev !apps)))
    order;
  Printf.printf "(* = fails for multiple reasons)\n"

(* ------------------------------------------------------------------ *)
(* Ablations                                                           *)
(* ------------------------------------------------------------------ *)

let ablation_banks () =
  header "Ablation A1: shared-memory bank-conflict model and NPB FT (§6.2)";
  let ft = List.find (fun a -> a.oa_name = "FT") Suite.Registry.npb_opencl in
  let run ~model =
    let dev_ocl = device_of Titan_opencl in
    let dev_cuda = device_of Titan_cuda in
    dev_ocl.Gpusim.Device.model_bank_conflicts <- model;
    dev_cuda.Gpusim.Device.model_bank_conflicts <- model;
    let native = run_app_native ft ~dev:dev_ocl () in
    let xlat = run_app_on_cuda ft ~dev:dev_cuda () in
    xlat.r_time_ns /. native.r_time_ns
  in
  let on = run ~model:true in
  Printf.printf "conflicts modelled:  xlatCUDA/origOCL = %.3f\n%!" on;
  let off = run ~model:false in
  Printf.printf "conflicts disabled:  xlatCUDA/origOCL = %.3f\n" off;
  Printf.printf "(without the 32-bit vs 64-bit addressing-mode model the\n\
                \ translated-CUDA advantage on FT disappears)\n";
  record "ablation-banks"
    (J.Obj
       [ ("ratio_conflicts_modelled", J.Float on);
         ("ratio_conflicts_disabled", J.Float off) ])

let ablation_occupancy () =
  header "Ablation A2: occupancy model and Rodinia cfd (§6.3)";
  let cfd =
    List.find
      (fun (c : Suite.Registry.cuda_app) -> c.cu_name = "cfd")
      Suite.Registry.rodinia_cuda
  in
  let run ~model =
    match translate_cuda cfd.cu_src with
    | Failed _ -> nan
    | Translated res ->
      let dev_cuda = device_of Titan_cuda in
      let dev_ocl = device_of Titan_opencl in
      dev_cuda.Gpusim.Device.model_occupancy <- model;
      dev_ocl.Gpusim.Device.model_occupancy <- model;
      let cuda = run_cuda_native ~dev:dev_cuda cfd.cu_src in
      let xlat = run_translated_cuda ~dev:dev_ocl res in
      xlat.r_time_ns /. cuda.r_time_ns
  in
  let on = run ~model:true in
  Printf.printf "occupancy modelled:  xlatOCL/origCUDA = %.3f\n%!" on;
  let off = run ~model:false in
  Printf.printf "occupancy disabled:  xlatOCL/origCUDA = %.3f\n" off;
  let occs = ref [] in
  let prog = Minic.Parser.program ~dialect:Minic.Parser.Cuda cfd.cu_src in
  (match Minic.Ast.find_function prog "compute_flux" with
   | Some f ->
     let layout = Vm.Layout.make_env prog in
     List.iter
       (fun (label, fw) ->
          let dev = Gpusim.Device.create Gpusim.Device.titan fw in
          let r =
            Gpusim.Occupancy.of_kernel dev layout f ~block_threads:192
              ~dyn_shared:0
          in
          occs := (label, r) :: !occs;
          Printf.printf "%-16s regs/thread %3d -> occupancy %.3f (%s)\n" label
            r.Gpusim.Occupancy.regs_per_thread r.Gpusim.Occupancy.occupancy
            r.Gpusim.Occupancy.limited_by)
       [ ("CUDA compiler", Gpusim.Device.cuda_on_nvidia);
         ("OpenCL compiler", Gpusim.Device.opencl_on_nvidia) ]
   | None -> ());
  record "ablation-occupancy"
    (J.Obj
       [ ("ratio_occupancy_modelled", J.Float on);
         ("ratio_occupancy_disabled", J.Float off);
         ("compute_flux",
          J.List
            (List.rev_map
               (fun (label, r) ->
                  J.Obj
                    [ ("compiler", J.Str label);
                      ("regs_per_thread",
                       J.Int r.Gpusim.Occupancy.regs_per_thread);
                      ("occupancy", J.Float r.Gpusim.Occupancy.occupancy);
                      ("limited_by", J.Str r.Gpusim.Occupancy.limited_by) ])
               !occs)) ])

let wrappers () =
  header "Ablation A3: wrapper-function overhead (paper: negligible)";
  let vadd =
    List.find (fun a -> a.oa_name = "oclVectorAdd") Suite.Registry.toolkit_opencl
  in
  let native = run_app_native vadd () in
  let wrapped = run_app_on_cuda vadd () in
  Printf.printf "oclVectorAdd     native OpenCL : %10.1f us\n"
    (native.r_time_ns /. 1e3);
  Printf.printf "oclVectorAdd     via wrappers  : %10.1f us (%+.1f%% difference)\n"
    (wrapped.r_time_ns /. 1e3)
    (100.0 *. (wrapped.r_time_ns -. native.r_time_ns) /. native.r_time_ns);
  let dq =
    List.find (fun a -> a.oa_name = "oclDeviceQuery") Suite.Registry.toolkit_opencl
  in
  let n1 = run_app_native dq () and n2 = run_app_on_cuda dq () in
  Printf.printf "oclDeviceQuery   native/wrapped: %10.1f / %.1f us \
                 (attribute wrappers fan out)\n"
    (n1.r_time_ns /. 1e3) (n2.r_time_ns /. 1e3)

(* ------------------------------------------------------------------ *)
(* Extension: OpenCL 2.0 shared virtual memory (§3.7's future work)    *)
(* ------------------------------------------------------------------ *)

let svm_demo = {|
__global__ void square(float* p, int n) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i < n) p[i] = p[i] * p[i];
}
int main(void) {
  int n = 128;
  float* h;
  cudaHostAlloc((void**)&h, n * sizeof(float), 4);
  for (int i = 0; i < n; i++) h[i] = (float)(i % 8);
  float* d;
  cudaHostGetDevicePointer((void**)&d, h, 0);
  square<<<n / 64, 64>>>(d, n);
  cudaDeviceSynchronize();
  float sum = 0.0f;
  for (int i = 0; i < n; i++) sum += h[i];
  printf("zerocopy sum %.1f
", sum);
  cudaFreeHost(h);
  return 0;
}
|}

let svm () =
  header "Extension E1: translating UVA via OpenCL 2.0 SVM (§3.7 future work)";
  (* how many Table-3 failures are recovered by the CL2.0 target? *)
  let recovered =
    List.filter
      (fun (c : Suite.Registry.cuda_app) ->
         (match translate_cuda ~tex1d_texels:c.cu_tex1d_texels c.cu_src with
          | Failed _ -> true
          | Translated _ -> false)
         &&
         (match
            translate_cuda ~tex1d_texels:c.cu_tex1d_texels
              ~cl_target:Xlat.Feature.CL20 c.cu_src
          with
          | Failed _ -> false
          | Translated _ -> true))
      Suite.Registry.all_cuda
  in
  Printf.printf "failures recovered under the OpenCL 2.0 target: %d (%s)
"
    (List.length recovered)
    (String.concat ", "
       (List.map (fun (c : Suite.Registry.cuda_app) -> c.cu_name) recovered));
  (* end-to-end zero-copy demo *)
  let native = run_cuda_native svm_demo in
  (match translate_cuda svm_demo with
   | Failed fs ->
     Printf.printf "OpenCL 1.2 target rejects zero-copy (%d finding(s)), as §3.7 says
"
       (List.length fs)
   | Translated _ -> print_endline "unexpected acceptance under 1.2");
  match translate_cuda ~cl_target:Xlat.Feature.CL20 svm_demo with
  | Failed _ -> print_endline "unexpected rejection under 2.0"
  | Translated res ->
    let r = run_translated_cuda res in
    Printf.printf "zero-copy via clSVMAlloc on Titan: %sagree=%b
" r.r_output
      (outputs_agree native.r_output r.r_output)

(* ------------------------------------------------------------------ *)
(* Extension: kernel analyzer + translation validation over the corpus *)
(* ------------------------------------------------------------------ *)

let analyze () =
  header "Extension E2: kernel analyzer / translation validation sweep";
  (* corpus capture is application execution, which we keep off the clock *)
  let cuda_apps =
    List.filter
      (fun (c : Suite.Registry.cuda_app) -> c.cu_expect_translatable)
      Suite.Registry.all_cuda
  in
  let ocl_srcs =
    List.concat_map
      (fun (a : ocl_app) -> Suite.Capture.kernel_sources a)
      Suite.Registry.all_opencl
  in
  let t0 = Sys.time () in
  let cu_outcomes =
    List.filter_map
      (fun (c : Suite.Registry.cuda_app) ->
         match Xlat_analysis.Validate.validate_cuda_source c.cu_src with
         | Ok o -> Some (c.cu_name, o)
         | Error _ -> None)
      cuda_apps
  in
  let cl_outcomes =
    List.filter_map
      (fun src ->
         match Xlat_analysis.Validate.validate_opencl_source src with
         | Ok o -> Some o
         | Error _ -> None)
      ocl_srcs
  in
  let elapsed = Sys.time () -. t0 in
  let count sel outs =
    List.fold_left (fun n o -> n + List.length (sel o)) 0 outs
  in
  let open Xlat_analysis.Validate in
  let cu = List.map snd cu_outcomes in
  Printf.printf
    "CUDA->OpenCL: %3d programs, %3d diags before, %3d after, %d introduced\n"
    (List.length cu)
    (count (fun o -> o.v_before) cu)
    (count (fun o -> o.v_after) cu)
    (count (fun o -> o.v_introduced) cu);
  Printf.printf
    "OpenCL->CUDA: %3d programs, %3d diags before, %3d after, %d introduced\n"
    (List.length cl_outcomes)
    (count (fun o -> o.v_before) cl_outcomes)
    (count (fun o -> o.v_after) cl_outcomes)
    (count (fun o -> o.v_introduced) cl_outcomes);
  List.iter
    (fun (name, o) ->
       List.iter
         (fun d ->
            Printf.printf "  %s introduced: %s\n" name
              (Xlat_analysis.Diag.to_string d))
         o.v_introduced)
    cu_outcomes;
  Printf.printf "analysis+validation wall time: %.3f s (capture excluded)\n"
    elapsed

(* ------------------------------------------------------------------ *)
(* Extension: layered translation validation over the corpus           *)
(* ------------------------------------------------------------------ *)

let validate_bench () =
  header "Extension E3: layered validator throughput (L0-L3, both directions)";
  (* corpus capture is application execution, which we keep off the clock *)
  let ocl_srcs =
    List.concat_map
      (fun (a : ocl_app) -> Suite.Capture.kernel_sources a)
      Suite.Registry.all_opencl
  in
  let cuda_srcs =
    List.filter_map
      (fun (c : Suite.Registry.cuda_app) ->
         if c.cu_expect_translatable then Some c.cu_src else None)
      Suite.Registry.all_cuda
  in
  let equivalent = ref 0 and unsupported = ref 0 and diverged = ref 0 in
  let layers_run = ref 0 and vacuous = ref 0 in
  let tally = function
    | Error _ -> ()
    | Ok outcomes ->
      List.iter
        (fun (_, outcome) ->
           match outcome with
           | Xlat_validate.Layered.Unsupported _ -> incr unsupported
           | Xlat_validate.Layered.Checked r ->
             List.iter
               (fun (_, st) ->
                  match st with
                  | Xlat_validate.Layered.Vacuous _ -> incr vacuous
                  | _ -> incr layers_run)
               r.Xlat_validate.Layered.rp_layers;
             (match r.Xlat_validate.Layered.rp_diverged with
              | None -> incr equivalent
              | Some _ -> incr diverged))
        outcomes
  in
  let t0 = Unix.gettimeofday () in
  List.iter
    (fun src -> tally (Xlat_validate.Layered.check_opencl_source src))
    ocl_srcs;
  List.iter
    (fun src -> tally (Xlat_validate.Layered.check_cuda_source src))
    cuda_srcs;
  let elapsed = Unix.gettimeofday () -. t0 in
  let kernels = !equivalent + !unsupported + !diverged in
  let rate = float_of_int kernels /. elapsed in
  Printf.printf "%-32s %d kernels (%d OCL + %d CUDA programs)\n" "corpus"
    kernels (List.length ocl_srcs) (List.length cuda_srcs);
  Printf.printf "%-32s %d equivalent, %d unsupported, %d divergent\n"
    "verdicts" !equivalent !unsupported !diverged;
  Printf.printf "%-32s %d run, %d sliced vacuous\n" "layers" !layers_run
    !vacuous;
  Printf.printf "%-32s %10.1f kernels/s (%.3f s wall)\n" "throughput" rate
    elapsed;
  record "validate"
    (J.Obj
       [ ("kernels", J.Int kernels);
         ("equivalent", J.Int !equivalent);
         ("unsupported", J.Int !unsupported);
         ("divergent", J.Int !diverged);
         ("layers_run", J.Int !layers_run);
         ("layers_vacuous", J.Int !vacuous);
         ("rate_kernels_per_s", J.Float rate);
         ("wall_s", J.Float elapsed) ])

(* ------------------------------------------------------------------ *)
(* Smoke: tracing pipeline end-to-end + perf-regression gate           *)
(* ------------------------------------------------------------------ *)

(* Perf-regression gate: recompute the fig7a ratios fresh and compare
   their geomean against the committed BENCH_results.json baseline.
   The ratios are simulated-time quotients, so they are deterministic
   and backend-independent; the tolerance only absorbs float noise.  A
   drift beyond it means a change altered the performance model. *)
let regression_rtol = 0.01

let regression_gate () =
  let baseline =
    Option.bind
      (List.assoc_opt "fig7a" (recorded_experiments ()))
      (J.member "geomean_xlat_cuda")
  in
  match baseline with
  | None | Some J.Null ->
    Printf.printf "regression gate FAILED: no fig7a baseline in %s\n"
      results_path;
    exit 1
  | Some b ->
    let baseline =
      match b with
      | J.Float f -> f
      | J.Int i -> float_of_int i
      | _ -> nan
    in
    let fresh =
      geomean
        (List.filter_map
           (fun (a : ocl_app) ->
              let native = run_app_native a () in
              let on_cuda = run_app_on_cuda a () in
              if outputs_agree native.r_output on_cuda.r_output then
                Some (on_cuda.r_time_ns /. native.r_time_ns)
              else None)
           Suite.Registry.rodinia_opencl)
    in
    let drift = abs_float (fresh -. baseline) /. baseline in
    Printf.printf
      "regression gate: fig7a geomean %.4f vs baseline %.4f (drift %.2f%%, \
       tolerance %.0f%%)\n"
      fresh baseline (100.0 *. drift) (100.0 *. regression_rtol);
    record "regression-gate"
      (J.Obj
         [ ("fig7a_geomean_fresh", J.Float fresh);
           ("fig7a_geomean_baseline", J.Float baseline);
           ("drift", J.Float drift);
           ("tolerance", J.Float regression_rtol) ]);
    if not (drift <= regression_rtol) then begin
      Printf.printf
        "regression gate FAILED: fig7a geomean drifted beyond tolerance\n";
      exit 1
    end

let smoke () =
  header "Smoke: tracing (one app per suite, Chrome trace validated)";
  let apps =
    [ List.hd Suite.Registry.rodinia_opencl;
      List.hd Suite.Registry.npb_opencl;
      List.hd Suite.Registry.toolkit_opencl ]
  in
  let runs =
    List.map
      (fun (a : ocl_app) ->
         Trace.Sink.enable ();
         ignore (run_app_native a ());
         let spans = Trace.Sink.events () in
         Trace.Sink.disable ();
         (Printf.sprintf "%s @ OpenCL/Titan" a.oa_name, spans))
      apps
  in
  List.iter
    (fun (label, spans) ->
       Printf.printf "  %-38s %4d span(s)\n" label (List.length spans))
    runs;
  let doc = Trace.Chrome.to_string runs in
  let n_events =
    match Trace.Json.member "traceEvents" (Trace.Json.of_string doc) with
    | Some (J.List l) -> List.length l
    | _ -> 0
  in
  match Trace.Chrome.validate_string doc with
  | Ok () ->
    Printf.printf
      "chrome trace: %d event(s), well-formed JSON, matched B/E, monotone ts\n"
      n_events;
    record "smoke"
      (J.Obj
         [ ("runs",
            J.List
              (List.map
                 (fun (label, spans) ->
                    J.Obj
                      [ ("label", J.Str label);
                        ("spans", J.Int (List.length spans)) ])
                 runs));
           ("chrome_events", J.Int n_events);
           ("valid", J.Bool true) ]);
    regression_gate ()
  | Error e ->
    Printf.printf "chrome trace INVALID: %s\n" e;
    record "smoke" (J.Obj [ ("valid", J.Bool false); ("error", J.Str e) ]);
    exit 1

(* ------------------------------------------------------------------ *)
(* Bechamel microbenchmarks: one Test.make per table/figure            *)
(* ------------------------------------------------------------------ *)

let bechamel () =
  header "Bechamel microbenchmarks (wall-clock cost of each experiment's pipeline)";
  let open Bechamel in
  let quick_cuda name =
    List.find
      (fun (c : Suite.Registry.cuda_app) -> c.cu_name = name)
      Suite.Registry.all_cuda
  in
  let vadd_cl =
    List.find (fun a -> a.oa_name = "oclVectorAdd") Suite.Registry.toolkit_opencl
  in
  let vadd_cu = (quick_cuda "vectorAdd").cu_src in
  let vadd_res =
    match translate_cuda vadd_cu with
    | Translated r -> r
    | Failed _ -> assert false
  in
  let tests =
    [ Test.make ~name:"table1.feature-matrix"
        (Staged.stage (fun () ->
             List.iter
               (fun (_, _, (a, b)) ->
                  ignore (Xlat.Feature.support_str a);
                  ignore (Xlat.Feature.support_str b))
               Xlat.Feature.allocation_matrix));
      Test.make ~name:"table2.device-create"
        (Staged.stage (fun () ->
             ignore
               (Gpusim.Device.create Gpusim.Device.titan
                  Gpusim.Device.cuda_on_nvidia)));
      Test.make ~name:"fig7.ocl-app-via-wrappers"
        (Staged.stage (fun () -> ignore (run_app_on_cuda vadd_cl ())));
      Test.make ~name:"fig8.cuda-to-ocl-translate"
        (Staged.stage (fun () ->
             ignore (Xlat.Cuda_to_ocl.translate_source vadd_cu)));
      Test.make ~name:"fig8.translated-run"
        (Staged.stage (fun () -> ignore (run_translated_cuda vadd_res)));
      Test.make ~name:"table3.feature-scan"
        (Staged.stage (fun () ->
             ignore
               (Xlat.Feature.check_cuda_app ~src:vadd_cu
                  (Some (Minic.Parser.program ~dialect:Minic.Parser.Cuda vadd_cu)))));
      (* tracing overhead: the same fig7 pipeline with the sink off/on
         (the off run's probes cost one bool load each) *)
      Test.make ~name:"trace.off.fig7-pipeline"
        (Staged.stage (fun () ->
             if Trace.Sink.is_enabled () then Trace.Sink.disable ();
             ignore (run_app_on_cuda vadd_cl ())));
      Test.make ~name:"trace.on.fig7-pipeline"
        (Staged.stage (fun () ->
             if not (Trace.Sink.is_enabled ()) then Trace.Sink.enable ();
             ignore (run_app_on_cuda vadd_cl ())));
    ]
  in
  let instance = Toolkit.Instance.monotonic_clock in
  let estimates = ref [] in
  List.iter
    (fun test ->
       let cfg =
         Benchmark.cfg ~limit:100 ~quota:(Time.second 0.4) ~kde:None ()
       in
       let raw = Benchmark.all cfg [ instance ] test in
       let results =
         Analyze.all
           (Analyze.ols ~bootstrap:0 ~r_square:false
              ~predictors:[| Measure.run |])
           instance raw
       in
       Hashtbl.iter
         (fun name result ->
            match Bechamel.Analyze.OLS.estimates result with
            | Some [ est ] ->
              estimates := (name, est) :: !estimates;
              Printf.printf "%-34s %14.1f ns/run\n%!" name est
            | _ -> Printf.printf "%-34s (no estimate)\n" name)
         results)
    tests;
  Trace.Sink.disable ();
  let overhead =
    match
      ( List.assoc_opt "trace.off.fig7-pipeline" !estimates,
        List.assoc_opt "trace.on.fig7-pipeline" !estimates )
    with
    | Some off, Some on when off > 0.0 ->
      let pct = 100.0 *. (on -. off) /. off in
      Printf.printf
        "tracing enabled vs disabled on the fig7 pipeline: %+.2f%%\n" pct;
      Some pct
    | _ -> None
  in
  record "bechamel"
    (J.Obj
       [ ("estimates_ns",
          J.Obj (List.rev_map (fun (n, e) -> (n, J.Float e)) !estimates));
         ("tracing_overhead_pct",
          (match overhead with Some p -> J.Float p | None -> J.Null)) ])

(* ------------------------------------------------------------------ *)
(* Backends: interpreter vs closure-compiled execution                 *)
(* ------------------------------------------------------------------ *)

(* Wall-clock comparison of the two kernel-execution backends on one
   representative pipeline per figure.  Simulated times (and thus every
   ratio above) are identical under both; only host wall time moves. *)
let backends () =
  header "Backends: AST interpreter vs closure-compiled (wall clock)";
  let time_under b f =
    let saved = !Gpusim.Exec.backend in
    Gpusim.Exec.backend := b;
    Fun.protect
      ~finally:(fun () -> Gpusim.Exec.backend := saved)
      (fun () ->
         ignore (f ()); (* warm the build and compile caches *)
         (* best-of-n: the minimum is the noise-robust estimator of the
            intrinsic cost (GC pauses and scheduler interference only
            ever add time), so the gate below doesn't flake under load *)
         let n = 5 in
         let best = ref infinity in
         for _ = 1 to n do
           let t0 = Sys.time () in
           ignore (f ());
           let t = Sys.time () -. t0 in
           if t < !best then best := t
         done;
         !best)
  in
  let ocl_head apps = List.hd apps in
  let workloads =
    [ ("fig7a.rodinia-wrapped",
       fun () -> run_app_on_cuda (ocl_head Suite.Registry.rodinia_opencl) ());
      ("fig7b.npb-wrapped",
       fun () -> run_app_on_cuda (ocl_head Suite.Registry.npb_opencl) ());
      ("fig7c.toolkit-wrapped",
       fun () -> run_app_on_cuda (ocl_head Suite.Registry.toolkit_opencl) ());
      ("fig8a.rodinia-native-cuda",
       fun () ->
         run_cuda_native (List.hd Suite.Registry.rodinia_cuda).Suite.Registry.cu_src);
      ("fig8b.toolkit-translated",
       let c =
         List.find
           (fun (c : Suite.Registry.cuda_app) -> c.cu_name = "vectorAdd")
           Suite.Registry.all_cuda
       in
       match translate_cuda c.cu_src with
       | Translated res -> fun () -> run_translated_cuda res
       | Failed _ -> fun () -> run_cuda_native c.cu_src) ]
  in
  Printf.printf "%-28s %12s %12s %9s\n" "pipeline" "interp (s)"
    "compiled (s)" "speedup";
  let rows =
    List.map
      (fun (name, f) ->
         let ti = time_under Gpusim.Exec.Interp f in
         let tc = time_under Gpusim.Exec.Compiled f in
         let speedup = ti /. tc in
         Printf.printf "%-28s %12.4f %12.4f %8.2fx\n%!" name ti tc speedup;
         (name, ti, tc, speedup))
      workloads
  in
  let speedups = List.map (fun (_, _, _, s) -> s) rows in
  Printf.printf "%-28s %12s %12s %8.2fx\n" "geomean" "" "" (geomean speedups);
  (* Speedup gate on the fig7a pipeline (the ROADMAP target, raised from
     the PR 3 baseline of 1.8x once the IR middle-end landed).  Wall
     clock, but interp and compiled are timed back to back in the same
     process, so the ratio is stable enough for a floor well under the
     measured ~4x.  OCLCU_BACKEND_GATE overrides the floor; 0 disables. *)
  let gate_floor =
    match Sys.getenv_opt "OCLCU_BACKEND_GATE" with
    | Some s -> (try float_of_string s with _ -> 3.0)
    | None -> 3.0
  in
  (match List.find_opt (fun (n, _, _, _) -> n = "fig7a.rodinia-wrapped") rows with
   | Some (_, _, _, s) when gate_floor > 0.0 ->
     if s >= gate_floor then
       Printf.printf "backend gate passed: fig7a %.2fx >= %.2fx\n" s gate_floor
     else begin
       Printf.printf "backend gate FAILED: fig7a %.2fx < %.2fx\n" s gate_floor;
       exit 1
     end
   | _ -> ());
  record "backends"
    (J.Obj
       [ ("rows",
          J.List
            (List.map
               (fun (name, ti, tc, s) ->
                  J.Obj
                    [ ("pipeline", J.Str name);
                      ("interp_s", J.Float ti);
                      ("compiled_s", J.Float tc);
                      ("speedup", J.Float s) ])
               rows));
         ("geomean_speedup", J.Float (geomean speedups)) ])

(* ------------------------------------------------------------------ *)
(* Ablation: IR pass pipeline                                          *)
(* ------------------------------------------------------------------ *)

(* How much of the compiled backend's fig7a win each middle-end rewrite
   carries: the backend speedup with the full pipeline, with each pass
   disabled individually, and with no passes (the IR lowered and emitted
   as is).  Feeds the A8 ablation table in EXPERIMENTS.md. *)
let ablation_ir () =
  header "Ablation: IR passes (fig7a backend speedup, one pass off at a time)";
  let f () = run_app_on_cuda (List.hd Suite.Registry.rodinia_opencl) () in
  let time_under b g =
    let saved = !Gpusim.Exec.backend in
    Gpusim.Exec.backend := b;
    Fun.protect
      ~finally:(fun () -> Gpusim.Exec.backend := saved)
      (fun () ->
         ignore (g ());
         (* best-of-n, same estimator as the backends gate *)
         let n = 5 in
         let best = ref infinity in
         for _ = 1 to n do
           let t0 = Sys.time () in
           ignore (g ());
           let t = Sys.time () -. t0 in
           if t < !best then best := t
         done;
         !best)
  in
  let ti = time_under Gpusim.Exec.Interp f in
  let configs =
    ("all", Ir.Pipeline.all)
    :: List.map
         (fun p ->
            match Ir.Pipeline.parse ("all,-" ^ p) with
            | Ok c -> ("all,-" ^ p, c)
            | Error e -> failwith e)
         Ir.Pipeline.pass_names
    @ [ ("none", Ir.Pipeline.none) ]
  in
  Printf.printf "%-16s %12s %9s\n" "passes" "compiled (s)" "speedup";
  let rows =
    List.map
      (fun (name, cfg) ->
         let tc =
           Ir.Pipeline.with_passes cfg (fun () ->
               time_under Gpusim.Exec.Compiled f)
         in
         let s = ti /. tc in
         Printf.printf "%-16s %12.4f %8.2fx\n%!" name tc s;
         (name, tc, s))
      configs
  in
  record "ablation-ir"
    (J.Obj
       [ ("interp_s", J.Float ti);
         ("rows",
          J.List
            (List.map
               (fun (name, tc, s) ->
                  J.Obj
                    [ ("passes", J.Str name);
                      ("compiled_s", J.Float tc);
                      ("speedup", J.Float s) ])
               rows)) ])

(* ------------------------------------------------------------------ *)
(* Fuzzer throughput                                                   *)
(* ------------------------------------------------------------------ *)

(* Throughput of the differential conformance fuzzer: kernels generated
   per second, and full pyramids executed per second, at a fixed seed.
   One pyramid is 3 translation stages x 2 VM backends plus the
   parallel stage (2 and 4 domains) and, since the warp engine landed,
   the lockstep stage (scalar reference + lockstep at 1 and 4 domains).
   A campaign that cannot sustain roughly 12 pyramids/s makes the
   runtest smoke too slow, so that floor is the gate here (it was 20/s
   before the lockstep stage grew the pyramid). *)
let fuzz_bench () =
  header "Fuzz: differential-pyramid throughput (seed 42)";
  let n = 200 in
  let t0 = Sys.time () in
  for i = 0 to n - 1 do
    ignore (Fuzz.Driver.case_of ~seed:42 i)
  done;
  let t_gen = Sys.time () -. t0 in
  let t1 = Sys.time () in
  let stats = Fuzz.Driver.run ~out_dir:"_fuzz_bench" ~seed:42 ~count:n () in
  let t_pyr = Sys.time () -. t1 in
  let rate_gen = float_of_int n /. t_gen in
  let rate_pyr = float_of_int n /. t_pyr in
  Printf.printf "%-32s %10.0f kernels/s\n" "generation" rate_gen;
  Printf.printf "%-32s %10.1f pyramids/s\n" "generate+pyramid (full stack)" rate_pyr;
  Printf.printf "%-32s %d agree, %d skipped, %d divergent\n" "verdicts"
    stats.Fuzz.Driver.agreed stats.Fuzz.Driver.skipped
    stats.Fuzz.Driver.divergent;
  let cov = stats.Fuzz.Driver.coverage in
  Printf.printf
    "%-32s vec %d, swizzle %d, barrier %d, atomic %d, local %d+%d, helper %d\n"
    "coverage" cov.Fuzz.Gen.cov_vectors cov.Fuzz.Gen.cov_swizzles
    cov.Fuzz.Gen.cov_barriers cov.Fuzz.Gen.cov_atomics
    cov.Fuzz.Gen.cov_dyn_local cov.Fuzz.Gen.cov_static_local
    cov.Fuzz.Gen.cov_helpers;
  record "fuzz"
    (J.Obj
       [ ("cases", J.Int n);
         ("rate_gen_per_s", J.Float rate_gen);
         ("rate_pyramid_per_s", J.Float rate_pyr);
         ("agree", J.Int stats.Fuzz.Driver.agreed);
         ("skipped", J.Int stats.Fuzz.Driver.skipped);
         ("divergent", J.Int stats.Fuzz.Driver.divergent);
         ("cov_vectors", J.Int cov.Fuzz.Gen.cov_vectors);
         ("cov_swizzles", J.Int cov.Fuzz.Gen.cov_swizzles);
         ("cov_barriers", J.Int cov.Fuzz.Gen.cov_barriers);
         ("cov_atomics", J.Int cov.Fuzz.Gen.cov_atomics);
         ("cov_dyn_local", J.Int cov.Fuzz.Gen.cov_dyn_local);
         ("cov_static_local", J.Int cov.Fuzz.Gen.cov_static_local);
         ("cov_helpers", J.Int cov.Fuzz.Gen.cov_helpers) ]);
  if stats.Fuzz.Driver.divergent > 0 then begin
    Printf.printf "fuzz bench FAILED: %d divergent case(s)\n"
      stats.Fuzz.Driver.divergent;
    exit 1
  end;
  if rate_pyr < 12.0 then begin
    Printf.printf "fuzz bench FAILED: %.1f pyramids/s below the 12/s floor\n"
      rate_pyr;
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Domain-parallel executor: speedup and scaling curve                 *)
(* ------------------------------------------------------------------ *)

(* Wall-clock scaling of the domain-parallel execution engine on
   kernel-heavy synthetic workloads (many independent blocks, so the
   optimistic engine accepts the parallel run and the measurement is of
   the concurrent path, not of replays).  Every run's output buffer is
   checked byte-for-byte against the sequential engine first — a speedup
   on wrong results would be meaningless.

   The speedup gate only applies when OCLCU_PARALLEL_GATE=<factor> is
   set: this box may be single-core (the engine still runs 4 domains,
   they just time-slice), so the floor is asserted in CI where cores are
   guaranteed, and the local run only reports the curve. *)
let parallel_bench () =
  header "Parallel: domain-parallel executor scaling (wall clock)";
  let domain_counts = [ 1; 2; 4; 8 ] in
  let with_domains n f =
    let saved = !Gpusim.Exec.domains in
    Gpusim.Exec.domains := n;
    Fun.protect ~finally:(fun () -> Gpusim.Exec.domains := saved) f
  in
  (* one workload = an OpenCL kernel plus its launch geometry; outputs
     land in a single int buffer that identity checks read back *)
  let mk_workload ~name ~src ~kernel ~out_ints ~gws ~lws ~extra_args () =
    let prog = Minic.Parser.program ~dialect:Minic.Parser.OpenCL src in
    let k = Option.get (Minic.Ast.find_function prog kernel) in
    (* outcome of this workload's most recent launch, for the
       accepted-parallel assertion below *)
    let outcome = ref Gpusim.Exec.Seq in
    let run () =
      let dev =
        Gpusim.Device.create Gpusim.Device.titan Gpusim.Device.opencl_on_nvidia
      in
      let host = Vm.Memory.create "bench-host" in
      let out = Vm.Memory.alloc dev.Gpusim.Device.global ~align:256 (out_ints * 4) in
      let args =
        Gpusim.Exec.Arg_val
          (Vm.Interp.tv
             (Vm.Value.VInt (Vm.Value.make_ptr Minic.Ast.AS_global out))
             (Minic.Ast.TPtr (Minic.Ast.TScalar Minic.Ast.Int)))
        :: extra_args
      in
      let stats =
        Gpusim.Exec.launch ~dev ~prog ~globals:(Hashtbl.create 4)
          ~host_arena:host ~kernel:k
          ~cfg:{ global_size = gws; local_size = lws; dyn_shared = 0 }
          ~args ()
      in
      outcome := stats.Gpusim.Exec.pool.Gpusim.Exec.outcome;
      Bytes.to_string (Vm.Memory.load_bytes dev.Gpusim.Device.global out (out_ints * 4))
    in
    (name, run, outcome)
  in
  let compute_loop =
    mk_workload ~name:"compute-loop.64x64"
      ~src:{|
__kernel void spin(__global int* out) {
  float v = (float)get_global_id(0);
  for (int i = 0; i < 600; i++) v = v * 1.0001f + 0.5f;
  out[get_global_id(0)] = (int)v;
}
|}
      ~kernel:"spin" ~out_ints:4096 ~gws:[| 4096; 1; 1 |] ~lws:[| 64; 1; 1 |]
      ~extra_args:[] ()
  in
  let stream_add =
    mk_workload ~name:"vector-stream.128x32"
      ~src:{|
__kernel void stream(__global int* out) {
  int i = (int)get_global_id(0);
  int acc = 0;
  for (int j = 0; j < 40; j++) acc += (i + j) * (j | 1);
  out[i] = acc;
}
|}
      ~kernel:"stream" ~out_ints:4096 ~gws:[| 4096; 1; 1 |] ~lws:[| 32; 1; 1 |]
      ~extra_args:[] ()
  in
  let local_reduce =
    mk_workload ~name:"local-reduce.64x64"
      ~src:{|
__kernel void reduce(__global int* out, __local int* tmp) {
  int t = (int)get_local_id(0);
  tmp[t] = t + (int)get_group_id(0);
  barrier(CLK_LOCAL_MEM_FENCE);
  for (int s = 32; s > 0; s /= 2) {
    if (t < s) tmp[t] = tmp[t] + tmp[t + s];
    barrier(CLK_LOCAL_MEM_FENCE);
  }
  if (t == 0) out[get_group_id(0)] = tmp[0];
}
|}
      ~kernel:"reduce" ~out_ints:64 ~gws:[| 4096; 1; 1 |] ~lws:[| 64; 1; 1 |]
      ~extra_args:[ Gpusim.Exec.Arg_local (64 * 4) ] ()
  in
  let workloads = [ compute_loop; stream_add; local_reduce ] in
  let time f =
    ignore (f ());  (* warm caches, spawn the pool *)
    let n = 3 in
    let t0 = Unix.gettimeofday () in
    for _ = 1 to n do ignore (f ()) done;
    (Unix.gettimeofday () -. t0) /. float_of_int n
  in
  Printf.printf "%-24s %10s %10s %10s %10s %9s\n" "workload" "1 dom (s)"
    "2 dom (s)" "4 dom (s)" "8 dom (s)" "x at 4";
  let rows =
    List.map
      (fun (name, run, outcome) ->
         let reference = with_domains 1 run in
         let times =
           List.map
             (fun n ->
                with_domains n (fun () ->
                    let out = run () in
                    if out <> reference then begin
                      Printf.printf
                        "parallel bench FAILED: %s diverges at %d domains\n"
                        name n;
                      exit 1
                    end;
                    (match !outcome with
                     | Gpusim.Exec.Replayed r when n > 1 ->
                       Printf.printf
                         "parallel bench FAILED: %s replayed at %d domains (%s)\n"
                         name n r;
                       exit 1
                     | _ -> ());
                    (n, time run)))
             domain_counts
         in
         let t1 = List.assoc 1 times and t4 = List.assoc 4 times in
         let speedup4 = t1 /. t4 in
         Printf.printf "%-24s %10.4f %10.4f %10.4f %10.4f %8.2fx\n%!" name
           (List.assoc 1 times) (List.assoc 2 times) t4 (List.assoc 8 times)
           speedup4;
         (name, times, speedup4))
      workloads
  in
  let speedups = List.map (fun (_, _, s) -> s) rows in
  let gm = geomean speedups in
  Printf.printf "%-24s %10s %10s %10s %10s %8.2fx\n" "geomean" "" "" "" "" gm;
  (* context: a full wrapped-app pipeline, where parse/translate/build
     dominate and kernel scaling is diluted — reported, never gated *)
  let app = List.hd Suite.Registry.rodinia_opencl in
  let app_time n =
    with_domains n (fun () -> time (fun () -> run_app_on_cuda app ()))
  in
  let app1 = app_time 1 and app4 = app_time 4 in
  Printf.printf "%-24s %10.4f %10s %10.4f %10s %8.2fx  (not gated)\n"
    ("app." ^ app.Bridge.Framework.oa_name) app1 "" app4 "" (app1 /. app4);
  record "parallel"
    (J.Obj
       [ ("domain_counts", J.List (List.map (fun n -> J.Int n) domain_counts));
         ("rows",
          J.List
            (List.map
               (fun (name, times, s4) ->
                  J.Obj
                    [ ("workload", J.Str name);
                      ("times_s",
                       J.Obj
                         (List.map
                            (fun (n, t) -> (string_of_int n, J.Float t))
                            times));
                      ("speedup_4", J.Float s4) ])
               rows));
         ("geomean_speedup_4", J.Float gm);
         ("app_speedup_4", J.Float (app1 /. app4)) ]);
  match Sys.getenv_opt "OCLCU_PARALLEL_GATE" with
  | Some s ->
    let floor = try float_of_string (String.trim s) with _ -> 1.5 in
    if gm < floor then begin
      Printf.printf
        "parallel bench FAILED: geomean %.2fx at 4 domains below the %.2fx floor\n"
        gm floor;
      exit 1
    end
    else Printf.printf "gate passed: geomean %.2fx >= %.2fx at 4 domains\n" gm floor
  | None ->
    Printf.printf
      "gate skipped (set OCLCU_PARALLEL_GATE=<factor> to enforce a floor)\n"

(* ------------------------------------------------------------------ *)
(* Lockstep: warp engine speedup + per-kernel eligibility census       *)
(* ------------------------------------------------------------------ *)

(* Two halves.  (a) Wall clock: the three parallel-bench workloads are
   lockstep-eligible, so the warp engine's one-closure-per-warp
   execution is timed against the scalar compiled backend at one
   domain, with byte identity and the [Engine_lockstep] outcome
   asserted — a silently bailed launch would otherwise time the scalar
   rerun and report a bogus 1.0x.  A local-size sweep on the compute
   kernel shows how the advantage scales with warp occupancy (a warp is
   min(lws, 32) lanes, so small groups under-fill it).  (b) Eligibility:
   every suite kernel source is captured via the same [build_program]
   shadowing the validate sweep uses, lowered to IR, and probed with
   {!Gpusim.Lockstep.plan_for} — a static per-kernel census with
   rejection reasons, no launches. *)
let lockstep_bench () =
  header "Lockstep: warp-lockstep engine vs scalar compiled (wall clock)";
  let with_engine e f =
    let saved = !Gpusim.Exec.engine in
    Gpusim.Exec.engine := e;
    Fun.protect ~finally:(fun () -> Gpusim.Exec.engine := saved) f
  in
  let mk_workload ~name ~src ~kernel ~out_ints ~gws ~lws ~extra_args () =
    let prog = Minic.Parser.program ~dialect:Minic.Parser.OpenCL src in
    let k = Option.get (Minic.Ast.find_function prog kernel) in
    let outcome = ref Gpusim.Exec.Engine_scalar in
    let run () =
      let dev =
        Gpusim.Device.create Gpusim.Device.titan Gpusim.Device.opencl_on_nvidia
      in
      let host = Vm.Memory.create "bench-host" in
      let out = Vm.Memory.alloc dev.Gpusim.Device.global ~align:256 (out_ints * 4) in
      let args =
        Gpusim.Exec.Arg_val
          (Vm.Interp.tv
             (Vm.Value.VInt (Vm.Value.make_ptr Minic.Ast.AS_global out))
             (Minic.Ast.TPtr (Minic.Ast.TScalar Minic.Ast.Int)))
        :: extra_args
      in
      let stats =
        Gpusim.Exec.launch ~dev ~prog ~globals:(Hashtbl.create 4)
          ~host_arena:host ~kernel:k
          ~cfg:{ global_size = gws; local_size = lws; dyn_shared = 0 }
          ~args ()
      in
      outcome := stats.Gpusim.Exec.engine;
      Bytes.to_string (Vm.Memory.load_bytes dev.Gpusim.Device.global out (out_ints * 4))
    in
    (name, run, outcome)
  in
  let compute_src = {|
__kernel void spin(__global int* out) {
  float v = (float)get_global_id(0);
  for (int i = 0; i < 600; i++) v = v * 1.0001f + 0.5f;
  out[get_global_id(0)] = (int)v;
}
|}
  in
  let compute_loop ~lws =
    mk_workload ~name:(Printf.sprintf "compute-loop.64x%d" lws)
      ~src:compute_src ~kernel:"spin" ~out_ints:4096
      ~gws:[| 4096; 1; 1 |] ~lws:[| lws; 1; 1 |] ~extra_args:[] ()
  in
  let stream_add =
    mk_workload ~name:"vector-stream.128x32"
      ~src:{|
__kernel void stream(__global int* out) {
  int i = (int)get_global_id(0);
  int acc = 0;
  for (int j = 0; j < 40; j++) acc += (i + j) * (j | 1);
  out[i] = acc;
}
|}
      ~kernel:"stream" ~out_ints:4096 ~gws:[| 4096; 1; 1 |] ~lws:[| 32; 1; 1 |]
      ~extra_args:[] ()
  in
  let local_reduce =
    mk_workload ~name:"local-reduce.64x64"
      ~src:{|
__kernel void reduce(__global int* out, __local int* tmp) {
  int t = (int)get_local_id(0);
  tmp[t] = t + (int)get_group_id(0);
  barrier(CLK_LOCAL_MEM_FENCE);
  for (int s = 32; s > 0; s /= 2) {
    if (t < s) tmp[t] = tmp[t] + tmp[t + s];
    barrier(CLK_LOCAL_MEM_FENCE);
  }
  if (t == 0) out[get_group_id(0)] = tmp[0];
}
|}
      ~kernel:"reduce" ~out_ints:64 ~gws:[| 4096; 1; 1 |] ~lws:[| 64; 1; 1 |]
      ~extra_args:[ Gpusim.Exec.Arg_local (64 * 4) ] ()
  in
  (* best-of-n, same estimator as the backends gate: the minimum is
     noise-robust (GC pauses and scheduler interference only ever add
     time), so the speedup gate below doesn't flake under CI load *)
  let time f =
    ignore (f ());  (* warm plan and closure caches *)
    let n = 5 in
    let best = ref infinity in
    for _ = 1 to n do
      let t0 = Unix.gettimeofday () in
      ignore (f ());
      let t = Unix.gettimeofday () -. t0 in
      if t < !best then best := t
    done;
    !best
  in
  (* measure one workload under both engines; identity and the
     accepted-lockstep outcome are hard failures, not footnotes *)
  let measure (name, run, outcome) =
    let reference = with_engine Gpusim.Exec.Scalar run in
    if with_engine Gpusim.Exec.Lockstep run <> reference then begin
      Printf.printf "lockstep bench FAILED: %s diverges from scalar\n" name;
      exit 1
    end;
    (match !outcome with
     | Gpusim.Exec.Engine_lockstep -> ()
     | Gpusim.Exec.Engine_scalar ->
       Printf.printf "lockstep bench FAILED: %s ran the scalar engine\n" name;
       exit 1
     | Gpusim.Exec.Engine_fallback why | Gpusim.Exec.Engine_bailed why ->
       Printf.printf "lockstep bench FAILED: %s not lockstep (%s)\n" name why;
       exit 1);
    let ts = with_engine Gpusim.Exec.Scalar (fun () -> time run) in
    let tl = with_engine Gpusim.Exec.Lockstep (fun () -> time run) in
    (name, ts, tl, ts /. tl)
  in
  Printf.printf "%-24s %12s %12s %9s\n" "workload" "scalar (s)"
    "lockstep (s)" "speedup";
  let rows =
    List.map
      (fun w ->
         let name, ts, tl, s = measure w in
         Printf.printf "%-24s %12.4f %12.4f %8.2fx\n%!" name ts tl s;
         (name, ts, tl, s))
      [ compute_loop ~lws:64; stream_add; local_reduce ]
  in
  let gm = geomean (List.map (fun (_, _, _, s) -> s) rows) in
  Printf.printf "%-24s %12s %12s %8.2fx\n" "geomean" "" "" gm;
  (* Speedup gate (the A9/A10 target): lockstep must beat the scalar
     compiled backend by the floor on the kernel-heavy geomean.
     OCLCU_LOCKSTEP_GATE overrides the floor; 0 disables. *)
  let gate_floor =
    match Sys.getenv_opt "OCLCU_LOCKSTEP_GATE" with
    | Some s -> (try float_of_string s with _ -> 1.2)
    | None -> 1.2
  in
  if gate_floor > 0.0 then begin
    if gm >= gate_floor then
      Printf.printf "lockstep gate passed: geomean %.2fx >= %.2fx\n" gm
        gate_floor
    else begin
      Printf.printf "lockstep gate FAILED: geomean %.2fx < %.2fx\n" gm
        gate_floor;
      exit 1
    end
  end;
  (* warp-occupancy sweep: same kernel, shrinking local size *)
  Printf.printf "\n%-24s %12s %12s %9s\n" "warp sweep (lws)" "scalar (s)"
    "lockstep (s)" "speedup";
  let sweep =
    List.map
      (fun lws ->
         let _, ts, tl, s = measure (compute_loop ~lws) in
         Printf.printf "%-24d %12.4f %12.4f %8.2fx\n%!" lws ts tl s;
         (lws, s))
      [ 8; 16; 32; 64 ]
  in
  (* static eligibility census over every captured suite kernel *)
  let seen = Hashtbl.create 64 in
  let eligible = ref 0 and ineligible = ref 0 and unparsed = ref 0 in
  let fused_regions = ref 0 and crossed = ref 0 in
  let reasons : (string, int) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (app : ocl_app) ->
       List.iter
         (fun src ->
            if not (Hashtbl.mem seen src) then begin
              Hashtbl.add seen src ();
              match Minic.Parser.program ~dialect:Minic.Parser.OpenCL src with
              | exception _ -> incr unparsed
              | prog ->
                let est =
                  Ir.Emit.make ~special_ty:Gpusim.Exec.special_ty
                    ~cfg:!Ir.Pipeline.selected prog
                in
                List.iter
                  (fun (f : Minic.Ast.func) ->
                     match
                       Gpusim.Lockstep.plan_for est ~name:f.Minic.Ast.fn_name
                         ~warp:32
                     with
                     | Ok p ->
                       incr eligible;
                       fused_regions := !fused_regions + p.Gpusim.Lockstep.p_fused;
                       crossed := !crossed + p.Gpusim.Lockstep.p_crossed
                     | Error why ->
                       incr ineligible;
                       (* fold per-kernel detail into a coarse reason *)
                       let klass =
                         match String.index_opt why ':' with
                         | Some i -> String.sub why 0 i
                         | None -> why
                       in
                       Hashtbl.replace reasons klass
                         (1 + Option.value (Hashtbl.find_opt reasons klass)
                                ~default:0))
                  (Minic.Ast.kernels prog)
            end)
         (Suite.Capture.kernel_sources app))
    Suite.Registry.all_opencl;
  let reason_rows =
    List.sort (fun (_, a) (_, b) -> compare b a)
      (Hashtbl.fold (fun k v acc -> (k, v) :: acc) reasons [])
  in
  Printf.printf
    "\neligibility: %d of %d suite kernels lockstep-eligible \
     (%d sources unparsed, %d fused regions, %d fast shapes run alone \
     through boxed crossings)\n"
    !eligible (!eligible + !ineligible) !unparsed !fused_regions !crossed;
  List.iter
    (fun (why, n) -> Printf.printf "  %4d  %s\n" n why)
    reason_rows;
  record "lockstep"
    (J.Obj
       [ ("warp", J.Int 32);
         ("rows",
          J.List
            (List.map
               (fun (name, ts, tl, s) ->
                  J.Obj
                    [ ("workload", J.Str name);
                      ("scalar_s", J.Float ts);
                      ("lockstep_s", J.Float tl);
                      ("speedup", J.Float s) ])
               rows));
         ("geomean_speedup", J.Float gm);
         ("gate_floor", J.Float gate_floor);
         ("warp_sweep",
          J.List
            (List.map
               (fun (lws, s) ->
                  J.Obj [ ("lws", J.Int lws); ("speedup", J.Float s) ])
               sweep));
         ("eligibility",
          J.Obj
            [ ("kernels", J.Int (!eligible + !ineligible));
              ("eligible", J.Int !eligible);
              ("fused_regions", J.Int !fused_regions);
              ("boxed_crossings", J.Int !crossed);
              ("ineligible", J.Int !ineligible);
              ("unparsed_sources", J.Int !unparsed);
              ("reasons",
               J.Obj
                 (List.map (fun (why, n) -> (why, J.Int n)) reason_rows)) ])
       ])

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

(* ------------------------------------------------------------------ *)
(* Attribution overhead: --attribute vs plain profiling                *)
(* ------------------------------------------------------------------ *)

(* The per-site tables ride the hot counting path (an Attr.get plus a
   handful of integer bumps per warp row), so the budget is a wall-clock
   gate: attributed profiling of the conflict-heaviest app (FT, both
   frameworks) must stay within 10% of plain profiling. *)
let attribute_bench () =
  header "Attribute: per-site attribution overhead vs plain profiling";
  let app =
    List.find (fun (a : ocl_app) -> a.oa_name = "FT") Suite.Registry.npb_opencl
  in
  let one_run ~attributed () =
    Minic.Site.enabled := attributed;
    Minic.Site.reset ();
    let t0 = Unix.gettimeofday () in
    let _, ms =
      with_metrics (fun () ->
          ignore (run_app_native app ());
          ignore (run_app_on_cuda app ()))
    in
    (Unix.gettimeofday () -. t0, ms)
  in
  (* best-of-N wall time: robust against scheduler noise either way *)
  let best f =
    let reps = 5 in
    let t = ref infinity and ms = ref [] in
    for _ = 1 to reps do
      let dt, m = f () in
      if dt < !t then begin t := dt; ms := m end
    done;
    (!t, !ms)
  in
  ignore (one_run ~attributed:false ());   (* warm caches *)
  let base_t, _ = best (one_run ~attributed:false) in
  let attr_t, attr_ms = best (one_run ~attributed:true) in
  Minic.Site.enabled := false;
  let ratio = attr_t /. base_t in
  let sites = Trace.Summary.collect_sites attr_ms in
  Printf.printf "%-34s %8.2f ms\n" "plain profile (FT, both fw)"
    (base_t *. 1e3);
  Printf.printf "%-34s %8.2f ms   (%d attributed site(s))\n"
    "with --attribute" (attr_t *. 1e3) (List.length sites);
  Printf.printf "%-34s %8.3f   (budget 1.10)\n" "overhead ratio" ratio;
  let ok = ratio <= 1.10 in
  record "attribute"
    (J.Obj
       [ ("base_wall_s", J.Float base_t);
         ("attributed_wall_s", J.Float attr_t);
         ("overhead_ratio", J.Float ratio);
         ("sites", J.Int (List.length sites));
         ("within_budget", J.Bool ok) ]);
  if not ok then begin
    Printf.printf "attribution overhead EXCEEDS the 10%% budget\n";
    write_results ();
    exit 1
  end

let experiments =
  [ ("table1", table1); ("table2", table2);
    ("fig7a", fig7a); ("fig7b", fig7b); ("fig7c", fig7c);
    ("fig8a", fig8a); ("fig8b", fig8b); ("table3", table3);
    ("ablation-banks", ablation_banks);
    ("ablation-occupancy", ablation_occupancy);
    ("ablation-ir", ablation_ir);
    ("wrappers", wrappers);
    ("svm", svm);
    ("analyze", analyze);
    ("validate", validate_bench);
    ("smoke", smoke);
    ("fuzz", fuzz_bench);
    ("backends", backends);
    ("parallel", parallel_bench);
    ("lockstep", lockstep_bench);
    ("attribute", attribute_bench);
    ("bechamel", bechamel) ]

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  (match args with
   | [] -> List.iter (fun (_, f) -> f ()) experiments
   | names ->
     List.iter
       (fun n ->
          match List.assoc_opt n experiments with
          | Some f -> f ()
          | None ->
            Printf.eprintf "unknown experiment %s; available: %s\n" n
              (String.concat " " (List.map fst experiments));
            exit 1)
       names);
  write_results ()
