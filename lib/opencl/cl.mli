(** Simulated OpenCL 1.2 host API over the Gpusim device model.

    This is the "native OpenCL framework" of the paper's evaluation: the
    original OpenCL applications run against it directly, and the
    CUDA-to-OpenCL wrapper library ({!Bridge.Cuda_on_cl}) is implemented
    on top of it, exactly as the paper implements cuda* wrappers with
    cl* calls.  Each entry point charges the framework's per-call
    overhead to the simulated clock; the in-order queue of OpenCL 1.x
    maps to immediate execution against that clock. *)

(** Error code + message, mirroring CL return codes. *)
exception Cl_error of int * string

val cl_success : int
val cl_invalid_value : int
val cl_invalid_kernel_args : int
val cl_build_program_failure : int
val cl_invalid_image_size : int

(** A device memory object; the handle a [cl_mem] stands for. *)
type buffer = {
  b_id : int;
  b_addr : int;        (** offset in the device global arena *)
  b_size : int;
  b_read_only : bool;
}

type image = Gpusim.Imagelib.image
type sampler = Gpusim.Imagelib.sampler

(** A recorded clSetKernelArg value; [A_local] is the dynamic local
    memory form (size with a NULL pointer, §4.1). *)
type set_arg =
  | A_buffer of buffer
  | A_image of image
  | A_sampler of sampler
  | A_local of int
  | A_scalar of Vm.Interp.tval

type program = {
  p_id : int;
  p_src : string;
  p_pre : Minic.Ast.program option;
      (** [create_program_with_source]'s [pre]; built in place of
          re-parsing [p_src] so site annotations survive *)
  mutable p_module : Gpusim.Exec.modul option;
      (** set by clBuildProgram; owns the compiled kernels *)
  mutable p_globals : (string, Vm.Interp.binding) Hashtbl.t;
  mutable p_log : string;                    (** build log on failure *)
}

type kernel = {
  k_id : int;
  k_prog : program;
  k_name : string;
  k_fn : Minic.Ast.func;
  mutable k_args : set_arg option array;
}

(** Profiling event (nanosecond timestamps, like OpenCL's). *)
type event = {
  e_queued : float;
  e_start : float;
  e_end : float;
}

type obj =
  | O_buffer of buffer
  | O_image of image
  | O_sampler of sampler
  | O_program of program
  | O_kernel of kernel

(** One platform + context + in-order queue bundle per device. *)
type t = {
  dev : Gpusim.Device.t;
  host : Vm.Memory.arena;
  objects : (int, obj) Hashtbl.t;   (** handle registry *)
  mutable next_id : int;
  mutable build_count : int;
}

val create : ?host:Vm.Memory.arena -> Gpusim.Device.t -> t

val find_obj : t -> int -> obj

(** {2 Device queries} — each one API round trip; the fan-out of the
    translated cudaGetDeviceProperties is what slows deviceQuery. *)

val get_device_info : t -> string -> int64
val get_device_name : t -> string

(** {2 Buffers} *)

val create_buffer : t -> ?read_only:bool -> int -> buffer

(** The [cl_mem]-cast-to-[void*] device pointer of a buffer (§4). *)
val buffer_device_ptr : buffer -> int64

val enqueue_write_buffer :
  t -> buffer -> ?offset:int -> size:int -> host_ptr:int64 -> unit -> event
val enqueue_read_buffer :
  t -> buffer -> ?offset:int -> size:int -> host_ptr:int64 -> unit -> event
val enqueue_copy_buffer :
  t -> buffer -> buffer -> ?src_offset:int -> ?dst_offset:int -> size:int ->
  unit -> event

val release_mem_object : t -> buffer -> unit

(** {2 Images and samplers} *)

val create_image :
  t -> dim:int -> width:int -> ?height:int -> ?depth:int ->
  order:Gpusim.Imagelib.channel_order ->
  chtype:Gpusim.Imagelib.channel_type -> ?host_ptr:int64 -> unit -> image

val create_sampler :
  t -> normalized:bool -> address:Gpusim.Imagelib.address_mode ->
  filter:Gpusim.Imagelib.filter_mode -> sampler

(** [enqueue_write_image cl img ?bytes ~host_ptr ()] copies the whole
    image from [host_ptr], or with [bytes] only that many: a row-major
    prefix from the origin, charged as a copy of those bytes.
    @raise Cl_error when [bytes] is negative or exceeds the image. *)
val enqueue_write_image :
  t -> image -> ?bytes:int -> host_ptr:int64 -> unit -> event

val enqueue_read_image : t -> image -> host_ptr:int64 -> unit -> event

(** {2 Programs and kernels} *)

(** With [pre], the device code is that already-annotated AST rather
    than a parse of the text: the CUDA wrapper hands over a translation
    that carries sites, so origin site ids survive (a textual round-trip
    would renumber them). *)
val create_program_with_source : ?pre:Minic.Ast.program -> t -> string -> program

(** Parse and load the device program, materialising its file-scope
    [__constant]/[__global] variables into the device arenas (the
    run-time build the paper excludes from Figure 7 timings), with
    source sites on a device configured to attribute. *)
val build_program : t -> program -> unit

val create_kernel : t -> program -> string -> kernel

val set_kernel_arg : t -> kernel -> int -> set_arg -> unit

val set_arg_buffer : t -> kernel -> int -> buffer -> unit
val set_arg_image : t -> kernel -> int -> image -> unit
val set_arg_sampler : t -> kernel -> int -> sampler -> unit
val set_arg_local : t -> kernel -> int -> int -> unit
val set_arg_int : t -> kernel -> int -> int -> unit
val set_arg_float : t -> kernel -> int -> float -> unit
val set_arg_double : t -> kernel -> int -> float -> unit

(** The read_image*/write_image* built-ins bound to this context's
    handle registry. *)
val image_externals :
  t -> (string * (Vm.Interp.ctx -> Vm.Interp.tval list -> Vm.Interp.tval)) list

(** Launch with OpenCL conventions: [gws] counts work-items (an NDRange,
    not a grid — Fig. 1's pitfall lives in the callers).  Returns the
    profiling event and the launch statistics. *)
val enqueue_nd_range :
  t -> kernel -> gws:int array -> ?lws:int array -> unit ->
  event * Gpusim.Exec.launch_stats

val finish : t -> unit

(** {2 OpenCL 2.0 shared virtual memory (extension E1)} *)

(** clSVMAlloc: memory visible to host and device under one address
    (§3.7's anticipated path for translating CUDA's UVA). *)
val svm_alloc : t -> int -> int64

val svm_free : t -> int64 -> unit

(** clCreateSubDevices has no CUDA counterpart (§3.7); always raises. *)
val create_sub_devices : t -> 'a

val profiling_command_start : event -> float
val profiling_command_end : event -> float
