(* Top-level translation framework: the run configurations of the
   paper's evaluation (§6) and convenience entry points used by the
   benchmark harness, tests and examples. *)

type target =
  | Titan_cuda        (* CUDA framework on the GTX Titan *)
  | Titan_opencl      (* NVIDIA OpenCL framework on the GTX Titan *)
  | Amd_opencl        (* AMD OpenCL framework on the HD7970 *)

let target_name = function
  | Titan_cuda -> "CUDA/Titan"
  | Titan_opencl -> "OpenCL/Titan"
  | Amd_opencl -> "OpenCL/HD7970"

let device_of ?config target =
  let create = Gpusim.Device.create ?config in
  match target with
  | Titan_cuda -> create Gpusim.Device.titan Gpusim.Device.cuda_on_nvidia
  | Titan_opencl -> create Gpusim.Device.titan Gpusim.Device.opencl_on_nvidia
  | Amd_opencl -> create Gpusim.Device.hd7970 Gpusim.Device.opencl_on_amd

type run = Hostrun.run = {
  r_output : string;
  r_time_ns : float;        (* already excludes what the paper excludes *)
}

(* ------------------------------------------------------------------ *)
(* OpenCL applications (Figure 7 direction)                            *)
(* ------------------------------------------------------------------ *)

(* An OpenCL application is a function of a packed host context, so the
   same source runs against the native framework and against the
   OpenCL-on-CUDA wrapper library, and applications live in lists. *)
type clctx = Clctx : (module Cl_api.S with type t = 'a) * 'a -> clctx

type ocl_app = {
  oa_name : string;
  oa_suite : string;
  oa_run : clctx -> string;
  (* relative transfer overhead knob used by apps whose OpenCL and CUDA
     Rodinia versions differ structurally (hybridSort, §6.2) *)
  oa_uses_subdevices : bool;
}

let ocl_app ?(suite = "misc") ?(uses_subdevices = false) name run =
  { oa_name = name; oa_suite = suite; oa_run = run;
    oa_uses_subdevices = uses_subdevices }

let run_app_native (app : ocl_app) ?dev () =
  let dev = match dev with Some d -> d | None -> device_of Titan_opencl in
  let c = Cl_api.Native.make dev in
  let out = app.oa_run (Clctx ((module Cl_api.Native), c)) in
  { r_output = out;
    r_time_ns = Cl_api.Native.time_ns c -. Cl_api.Native.build_time_ns c }

let run_app_on_cuda (app : ocl_app) ?dev () =
  let dev = match dev with Some d -> d | None -> device_of Titan_cuda in
  let c = Cl_on_cuda.Api.make dev in
  let out = app.oa_run (Clctx ((module Cl_on_cuda.Api), c)) in
  { r_output = out;
    r_time_ns = Cl_on_cuda.Api.time_ns c -. Cl_on_cuda.Api.build_time_ns c }

(* ------------------------------------------------------------------ *)
(* CUDA applications (Figure 8 direction)                              *)
(* ------------------------------------------------------------------ *)

type translation_outcome =
  | Translated of Xlat.Cuda_to_ocl.result
  | Failed of Xlat.Feature.finding list

(* Outcomes keyed by source digest plus the options that change the
   result (texture geometry and OpenCL target version). *)
let translate_cache : translation_outcome Trace.Build_cache.t =
  Trace.Build_cache.create "cuda->ocl translate"

(* Feature check (Table 3) then source-to-source translation.
   [cl_target] selects the OpenCL version the translation targets; under
   CL20, unified-virtual-address-space programs translate via shared
   virtual memory (the paper's anticipated extension, §3.7).
   [attribute] annotates source sites before translating. *)
let translate_cuda ?(tex1d_texels = None) ?(cl_target = Xlat.Feature.CL12)
    ?(attribute = false) (src : string) : translation_outcome =
  let opts =
    Printf.sprintf ";tex1d=%s;target=%s"
      (match tex1d_texels with None -> "-" | Some n -> string_of_int n)
      (match cl_target with Xlat.Feature.CL12 -> "cl12" | CL20 -> "cl20")
  in
  Trace.Build_cache.find_or_build translate_cache
    ~key:(Trace.Build_cache.key src ^ opts ^ Minic.Site.cache_salt attribute)
  @@ fun () ->
  let prog =
    match Minic.Parser.program ~dialect:Minic.Parser.Cuda src with
    | p -> Some p
    | exception _ -> None
  in
  let max_1d_image = fst Gpusim.Device.titan.Gpusim.Device.max_image2d in
  let findings =
    Xlat.Feature.check_cuda_app ~tex1d_texels ~max_1d_image ~cl_target ~src prog
  in
  if findings <> [] then Failed findings
  else
    match prog with
    | None -> Failed []
    | Some p ->
      (match Xlat.Cuda_to_ocl.translate ~attribute p with
       | r -> Translated r
       | exception Xlat.Cuda_to_ocl.Untranslatable msg ->
         Failed
           [ { Xlat.Feature.f_category = Xlat.Feature.Unsupported_language_extension;
               f_construct = msg } ])

let run_cuda_native ?dev (src : string) : run =
  let dev = match dev with Some d -> d | None -> device_of Titan_cuda in
  Cuda_native.run ~dev ~src

let run_translated_cuda ?dev (result : Xlat.Cuda_to_ocl.result) : run =
  let dev = match dev with Some d -> d | None -> device_of Titan_opencl in
  Cuda_on_cl.run ~dev ~result

(* ------------------------------------------------------------------ *)
(* Verification                                                        *)
(* ------------------------------------------------------------------ *)

(* Outputs are checksum lines printed by the applications themselves;
   two runs agree when every numeric token matches within a relative
   tolerance (floating-point results may differ in the last digits when
   the translation reorders arithmetic). *)
let outputs_agree ?(rtol = 1e-4) a b =
  let tokens s =
    String.split_on_char '\n' s
    |> List.concat_map (String.split_on_char ' ')
    |> List.filter (fun x -> x <> "")
  in
  let ta = tokens a and tb = tokens b in
  List.length ta = List.length tb
  && List.for_all2
       (fun x y ->
          if x = y then true
          else
            match float_of_string_opt x, float_of_string_opt y with
            | Some fx, Some fy ->
              Float.abs (fx -. fy)
              <= rtol *. Float.max 1.0 (Float.max (Float.abs fx) (Float.abs fy))
            | _ -> false)
       ta tb
