(* The benchmark's operations.

   An operation is one unit of the paper's workload: an OpenCL app run
   natively and through the OpenCL->CUDA wrappers (Figure 7), a CUDA
   program translated and run natively and on OpenCL (Figure 8), or one
   source through the translator front end alone.  [run] does the timed
   work and hands back a thunk that builds the operation's observation
   — output digests, simulated times, verdicts — off the clock; the
   harness compares that observation with the committed oracle. *)

open Bridge.Framework
module J = Trace.Json

type op = {
  id : string;
  run : unit -> unit -> (string * J.t) list;
}

let digest s = Digest.to_hex (Digest.string s)

let run_obs (r : run) =
  J.Obj [ ("sim_ns", J.Float r.r_time_ns); ("out", J.Str (digest r.r_output)) ]

let verdict_of findings =
  J.List
    (List.sort_uniq compare
       (List.map
          (fun f -> Xlat.Feature.category_name f.Xlat.Feature.f_category)
          findings)
     |> List.map (fun s -> J.Str s))

(* --- Figure 7: OpenCL apps, native and through the wrappers ---------- *)

let ocl_op (a : ocl_app) =
  { id = "cl:" ^ a.oa_name;
    run =
      (fun () ->
         let native =
           Probe.sample @@ fun () ->
           Probe.step ~key:"native" ~layer:"opencl" (fun () ->
               Probe.run_app_native a)
         in
         let on_cuda =
           Probe.sample @@ fun () ->
           Probe.step ~key:"on_cuda" ~layer:"cl_on_cuda" (fun () ->
               Probe.run_app_on_cuda a)
         in
         fun () ->
           [ ("native", run_obs native); ("on_cuda", run_obs on_cuda);
             ("agree", J.Bool (outputs_agree native.r_output on_cuda.r_output)) ]) }

(* --- Figure 8: CUDA programs, translated, native and on OpenCL ------- *)

let cuda_op (c : Suite.Registry.cuda_app) =
  { id = "cu:" ^ c.cu_name;
    run =
      (fun () ->
         Probe.record_cu c.cu_src c.cu_tex1d_texels;
         let native =
           Probe.sample @@ fun () ->
           Probe.step ~key:"native" ~layer:"bridge.cuda_native" (fun () ->
               run_cuda_native c.cu_src)
         in
         (* the translated configuration as a user runs it: translate
            (a cache hit once warm), then run on OpenCL *)
         let translated =
           Probe.sample @@ fun () ->
           match
             Probe.call "xlat.translate_cuda" (fun () ->
                 translate_cuda ~tex1d_texels:c.cu_tex1d_texels c.cu_src)
           with
           | Failed findings -> Error findings
           | Translated res ->
             Ok
               ( res,
                 Probe.step ~key:"on_ocl" ~layer:"bridge.cuda_on_cl" (fun () ->
                     run_translated_cuda res) )
         in
         match translated with
         | Error findings -> fun () -> [ ("verdict", verdict_of findings) ]
         | Ok (res, on_ocl) ->
           fun () ->
             [ ("verdict", J.Str "translated");
               ("xlat",
                J.Str
                  (digest
                     (Xlat.Cuda_to_ocl.cl_source res ^ "\n"
                      ^ Xlat.Cuda_to_ocl.host_source res)));
               ("native", run_obs native); ("on_ocl", run_obs on_ocl);
               ("agree",
                J.Bool (outputs_agree native.r_output on_ocl.r_output)) ]) }

(* --- translation corpus: the front end alone --------------------------- *)

let warp = Gpusim.Device.titan.Gpusim.Device.warp_size

let kernels (prog : Minic.Ast.program) =
  List.filter_map
    (function
      | Minic.Ast.TFunc f
        when f.Minic.Ast.fn_kind = Minic.Ast.FK_kernel && f.fn_body <> None ->
        Some f.fn_name
      | _ -> None)
    prog

(* IR-compile a device program the way the launcher does on first
   launch, then plan every kernel for the lockstep engine. *)
let ir_and_plans prog =
  let est =
    Probe.call "ir.build" (fun () ->
        Ir.Emit.make ~special_ty:Gpusim.Exec.special_ty
          ~cfg:!Ir.Pipeline.selected prog)
  in
  let plans =
    Probe.call "lockstep.plan" (fun () ->
        List.map
          (fun name -> Gpusim.Lockstep.plan_for est ~name ~warp)
          (kernels prog))
  in
  (est, plans)

let ir_obs ests =
  let lowered = ref 0 and rejected = ref 0 and rewrites = ref 0 in
  let eligible = ref 0 and fused = ref 0 and nk = ref 0 in
  List.iter
    (fun (est, plans) ->
       List.iter
         (fun n ->
            (match Ir.Emit.ir est n with
             | Some (Ok _) -> incr lowered
             | _ -> incr rejected);
            match Ir.Emit.stats est n with
            | Some s ->
              List.iter (fun (_, k) -> rewrites := !rewrites + k)
                (Ir.Passes.stats_list s)
            | None -> ())
         (Ir.Emit.function_names est);
       List.iter
         (fun p ->
            incr nk;
            match p with
            | Ok p ->
              incr eligible;
              fused := !fused + p.Gpusim.Lockstep.p_fused
            | Error _ -> ())
         plans)
    ests;
  [ ("ir",
     J.Obj
       [ ("lowered_fns", J.Int !lowered); ("rejected_fns", J.Int !rejected);
         ("rewrites", J.Int !rewrites) ]);
    ("lockstep",
     J.Obj
       [ ("kernels", J.Int !nk); ("eligible_kernels", J.Int !eligible);
         ("fused_regions", J.Int !fused) ]) ]

let parse dialect src =
  Probe.call ~bytes:(String.length src) "minic.parse" (fun () ->
      Minic.Parser.program ~dialect src)

(* One captured OpenCL kernel source: parse, translate to CUDA, print,
   and IR-compile both programs the two Figure-7 run paths launch (the
   parsed source natively, the translated AST through the wrappers). *)
let cl_src_op id src =
  { id;
    run =
      (fun () ->
         Probe.record_cl src;
         let prog = parse Minic.Parser.OpenCL src in
         let r =
           Probe.call "xlat.ocl_to_cuda" (fun () -> Xlat.Ocl_to_cuda.translate prog)
         in
         let text =
           Probe.call "minic.print" (fun () ->
               Minic.Pretty.program_str Minic.Pretty.Cuda r.Xlat.Ocl_to_cuda.cuda_prog)
         in
         let native = ir_and_plans prog in
         let xlat = ir_and_plans r.Xlat.Ocl_to_cuda.cuda_prog in
         fun () ->
           [ ("bytes", J.Int (String.length src));
             ("verdict", J.Str "translated"); ("xlat", J.Str (digest text)) ]
           @ ir_obs [ native; xlat ]) }

(* One CUDA program: parse, Table-3 feature check and, when it passes,
   translate, print both output files, re-parse the printed device
   program (the OpenCL runtime builds from text) and IR-compile the two
   programs the Figure-8 run paths launch. *)
let cu_src_op (c : Suite.Registry.cuda_app) =
  let src = c.cu_src in
  { id = "cu-src:" ^ c.cu_name;
    run =
      (fun () ->
         Probe.record_cu src c.cu_tex1d_texels;
         let prog =
           match parse Minic.Parser.Cuda src with
           | p -> Some p
           | exception _ -> None
         in
         let findings =
           Probe.call "xlat.feature_check" (fun () ->
               Xlat.Feature.check_cuda_app ~tex1d_texels:c.cu_tex1d_texels
                 ~max_1d_image:(fst Gpusim.Device.titan.Gpusim.Device.max_image2d)
                 ~src prog)
         in
         let base = [ ("bytes", J.Int (String.length src)) ] in
         match prog with
         | Some p when findings = [] ->
           let r =
             Probe.call "xlat.cuda_to_ocl" (fun () -> Xlat.Cuda_to_ocl.translate p)
           in
           let cl_text, host_text =
             Probe.call "minic.print" (fun () ->
                 (Xlat.Cuda_to_ocl.cl_source r, Xlat.Cuda_to_ocl.host_source r))
           in
           let cl_prog = parse Minic.Parser.OpenCL cl_text in
           let native = ir_and_plans p in
           let xlat = ir_and_plans cl_prog in
           fun () ->
             base
             @ [ ("verdict", J.Str "translated");
                 ("xlat", J.Str (digest (cl_text ^ "\n" ^ host_text))) ]
             @ ir_obs [ native; xlat ]
         | _ -> fun () -> base @ [ ("verdict", verdict_of findings) ]) }

(* --- operation inventories ------------------------------------------- *)

let fig7_ops () = List.map ocl_op Suite.Registry.all_opencl

let translatable =
  List.filter
    (fun (c : Suite.Registry.cuda_app) -> c.cu_expect_translatable)
    Suite.Registry.all_cuda

let fig8_ops () = List.map cuda_op translatable

(* The distinct kernel sources [apps] build, captured by running each
   app natively ({!Suite.Capture}); ids name the first app building a
   source and its build index there. *)
let capture_cl_sources (apps : ocl_app list) =
  let seen = Hashtbl.create 64 in
  List.concat_map
    (fun (a : ocl_app) ->
       List.mapi (fun i s -> (Printf.sprintf "cl-src:%s#%d" a.oa_name i, s))
         (Suite.Capture.kernel_sources a)
       |> List.filter (fun (_, s) ->
           if Hashtbl.mem seen s then false
           else (Hashtbl.replace seen s (); true)))
    apps

(* [cl] is the output of {!capture_cl_sources}. *)
let corpus_ops ~cl ~cuda =
  List.map (fun (id, s) -> cl_src_op id s) cl @ List.map cu_src_op cuda
