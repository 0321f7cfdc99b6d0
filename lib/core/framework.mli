(** Top-level translation framework: the run configurations of the
    paper's evaluation (§6) and the entry points used by the benchmark
    harness, tests, examples and the [oclcu] command-line tool. *)

(** A (device, framework) pair of the evaluation. *)
type target =
  | Titan_cuda    (** CUDA framework on the GTX Titan *)
  | Titan_opencl  (** NVIDIA OpenCL framework on the GTX Titan *)
  | Amd_opencl    (** AMD OpenCL framework on the HD7970 *)

val target_name : target -> string

(** A fresh simulated device for a target (arenas, clock at zero),
    launching under [config] ({!Gpusim.Config.default}[ ()] if absent). *)
val device_of : ?config:Gpusim.Config.t -> target -> Gpusim.Device.t

(** Result of one application run: the program's printed output and its
    simulated duration.  Durations already exclude what the paper
    excludes (the OpenCL on-line build, §6.2). *)
type run = Hostrun.run = {
  r_output : string;
  r_time_ns : float;
}

(** {2 OpenCL applications (Figure 7 direction)} *)

(** First-class-module packaging of a host context.  An application is
    a plain function of one, so the same code runs against the native
    framework and the OpenCL-on-CUDA wrapper library unchanged, and
    applications live in lists (see {!Suite.Dsl.ops}). *)
type clctx = Clctx : (module Cl_api.S with type t = 'a) * 'a -> clctx

type ocl_app = {
  oa_name : string;
  oa_suite : string;
  oa_run : clctx -> string;   (** runs the app, returns its checksum text *)
  oa_uses_subdevices : bool;  (** clCreateSubDevices blocks translation *)
}

val ocl_app :
  ?suite:string -> ?uses_subdevices:bool -> string -> (clctx -> string) ->
  ocl_app

(** Run on the native OpenCL framework / via the OpenCL-to-CUDA wrapper
    library (Fig. 2).  A fresh Titan device is created unless [dev] is
    given. *)

val run_app_native : ocl_app -> ?dev:Gpusim.Device.t -> unit -> run
val run_app_on_cuda : ocl_app -> ?dev:Gpusim.Device.t -> unit -> run

(** {2 CUDA applications (Figure 8 direction)} *)

type translation_outcome =
  | Translated of Xlat.Cuda_to_ocl.result
  | Failed of Xlat.Feature.finding list

(** Feature check (Table 3) followed by source-to-source translation.
    [tex1d_texels] is the application's runtime 1D-texture size hint
    (§5's limit); [cl_target] defaults to OpenCL 1.2 — under
    {!Xlat.Feature.CL20}, unified-virtual-address-space programs
    translate via shared virtual memory (§3.7's anticipated path).
    [attribute] (default false) annotates source sites first. *)
val translate_cuda :
  ?tex1d_texels:int option -> ?cl_target:Xlat.Feature.cl_target ->
  ?attribute:bool -> string -> translation_outcome

(** Interpret an original .cu program against the native CUDA runtime. *)
val run_cuda_native : ?dev:Gpusim.Device.t -> string -> run

(** Run a translated program against the CUDA-on-OpenCL wrapper runtime
    (Fig. 3) on a Titan or AMD OpenCL device. *)
val run_translated_cuda : ?dev:Gpusim.Device.t -> Xlat.Cuda_to_ocl.result -> run

(** {2 Verification} *)

(** Token-wise output comparison with a relative tolerance on numeric
    tokens (translation may reorder floating-point arithmetic). *)
val outputs_agree : ?rtol:float -> string -> string -> bool
