(* Structured trace events: completed spans with simulated-time and
   wall-time stamps.

   A span is recorded once, when it ends; nesting is captured by parent
   pointers assigned from the sink's span stack, so the wrapper
   amplification of the paper's deviceQuery story (one cudaGetDeviceProperties
   wrapper span enclosing many clGetDeviceInfo API spans) is directly
   countable from the stream. *)

type cat =
  | Api        (* a native cl* / cuda* / cu* entry point *)
  | Wrapper    (* a wrapper-library entry point (Cl_on_cuda / Cuda_on_cl) *)
  | Xlat       (* a source-to-source translator pass *)
  | Build      (* run-time device-code build pipeline *)
  | Kernel     (* simulated kernel execution on the device *)
  | Memcpy     (* simulated host<->device / device<->device transfer *)

let cat_name = function
  | Api -> "api"
  | Wrapper -> "wrapper"
  | Xlat -> "xlat"
  | Build -> "build"
  | Kernel -> "kernel"
  | Memcpy -> "memcpy"

(* GPU activities vs host API calls: the two sections of an
   nvprof-style summary. *)
let is_gpu_activity = function
  | Kernel | Memcpy -> true
  | Api | Wrapper | Xlat | Build -> false

type span = {
  sp_id : int;                  (* unique, dense, begin order *)
  sp_parent : int;              (* 0 = root *)
  sp_depth : int;               (* 0 = root *)
  sp_cat : cat;
  sp_name : string;
  sp_t0 : float;                (* simulated ns, monotone across the trace *)
  sp_t1 : float;                (* simulated ns, >= sp_t0 *)
  sp_wall0 : float;             (* host wall-clock ns, monotonic clock *)
  sp_wall1 : float;
  sp_args : (string * string) list;
}

let duration_ns sp = sp.sp_t1 -. sp.sp_t0
