(* The OpenCL host API surface that benchmark applications program
   against.  Two implementations exist:

   - [Native]  -- the simulated vendor OpenCL framework (Opencl.Cl);
   - [Cl_on_cuda.Api] -- the paper's OpenCL-to-CUDA wrapper library,
     where every entry point is a wrapper over the CUDA driver API and
     clBuildProgram invokes the source-to-source translator (Fig. 2).

   An application is written once as a function of a host context
   packed with its [S] implementation ([Framework.clctx]), so it runs in
   both the "original OpenCL" and the "translated CUDA" configurations of
   Figure 7 without any source change -- which is precisely the paper's
   claim about wrapper-based translation. *)

module type S = sig
  type t
  type buffer
  type kernel
  type image
  type sampler

  val framework_name : string

  val host : t -> Vm.Memory.arena
  val time_ns : t -> float

  (* simulated time spent inside build_program; Figure 7 reports
     execution time excluding the OpenCL on-line build *)
  val build_time_ns : t -> float
  val device_name : t -> string
  val device_info : t -> string -> int64

  val create_buffer : t -> ?read_only:bool -> int -> buffer
  val write_buffer : t -> buffer -> ?offset:int -> size:int -> ptr:int64 -> unit -> unit
  val read_buffer : t -> buffer -> ?offset:int -> size:int -> ptr:int64 -> unit -> unit
  val release_buffer : t -> buffer -> unit

  (* Build the (single) device program of the application; OpenCL builds
     at run time, so the cost lands on the simulated clock. *)
  val build_program : t -> string -> unit
  val create_kernel : t -> string -> kernel

  val set_arg_buffer : t -> kernel -> int -> buffer -> unit
  val set_arg_int : t -> kernel -> int -> int -> unit
  val set_arg_float : t -> kernel -> int -> float -> unit
  val set_arg_double : t -> kernel -> int -> float -> unit
  val set_arg_local : t -> kernel -> int -> int -> unit
  val set_arg_image : t -> kernel -> int -> image -> unit
  val set_arg_sampler : t -> kernel -> int -> sampler -> unit

  val create_image2d :
    t -> width:int -> height:int -> order:Gpusim.Imagelib.channel_order ->
    chtype:Gpusim.Imagelib.channel_type -> ?host_ptr:int64 -> unit -> image
  val create_sampler :
    t -> normalized:bool -> address:Gpusim.Imagelib.address_mode ->
    filter:Gpusim.Imagelib.filter_mode -> sampler
  val read_image : t -> image -> ptr:int64 -> unit

  val enqueue_nd_range : t -> kernel -> gws:int array -> lws:int array -> unit
  val finish : t -> unit
end

(* --- native implementation over the simulated OpenCL framework ------- *)

module Native : sig
  include S
  val make : Gpusim.Device.t -> t
end = struct
  type t = {
    cl : Opencl.Cl.t;
    mutable prog : Opencl.Cl.program option;
    mutable build_ns : float;
  }

  type buffer = Opencl.Cl.buffer
  type kernel = Opencl.Cl.kernel
  type image = Opencl.Cl.image
  type sampler = Opencl.Cl.sampler

  let framework_name = "OpenCL(native)"

  let make dev = { cl = Opencl.Cl.create dev; prog = None; build_ns = 0.0 }

  let host t = t.cl.Opencl.Cl.host
  let time_ns t = t.cl.Opencl.Cl.dev.Gpusim.Device.sim_time_ns
  let device_name t = Opencl.Cl.get_device_name t.cl
  let device_info t p = Opencl.Cl.get_device_info t.cl p

  let create_buffer t ?read_only size =
    Opencl.Cl.create_buffer t.cl ?read_only size

  let write_buffer t b ?offset ~size ~ptr () =
    ignore (Opencl.Cl.enqueue_write_buffer t.cl b ?offset ~size ~host_ptr:ptr ())

  let read_buffer t b ?offset ~size ~ptr () =
    ignore (Opencl.Cl.enqueue_read_buffer t.cl b ?offset ~size ~host_ptr:ptr ())

  let release_buffer t b = Opencl.Cl.release_mem_object t.cl b

  let build_time_ns t = t.build_ns

  let build_program t src =
    let t0 = time_ns t in
    let p = Opencl.Cl.create_program_with_source t.cl src in
    Opencl.Cl.build_program t.cl p;
    t.build_ns <- t.build_ns +. (time_ns t -. t0);
    t.prog <- Some p

  let the_prog t =
    match t.prog with
    | Some p -> p
    | None -> failwith "create_kernel before build_program"

  let create_kernel t name = Opencl.Cl.create_kernel t.cl (the_prog t) name

  let set_arg_buffer t k i b = Opencl.Cl.set_arg_buffer t.cl k i b
  let set_arg_int t k i n = Opencl.Cl.set_arg_int t.cl k i n
  let set_arg_float t k i x = Opencl.Cl.set_arg_float t.cl k i x
  let set_arg_double t k i x = Opencl.Cl.set_arg_double t.cl k i x
  let set_arg_local t k i n = Opencl.Cl.set_arg_local t.cl k i n
  let set_arg_image t k i img = Opencl.Cl.set_arg_image t.cl k i img
  let set_arg_sampler t k i s = Opencl.Cl.set_arg_sampler t.cl k i s

  let create_image2d t ~width ~height ~order ~chtype ?host_ptr () =
    Opencl.Cl.create_image t.cl ~dim:2 ~width ~height ~order ~chtype ?host_ptr ()

  let create_sampler t ~normalized ~address ~filter =
    Opencl.Cl.create_sampler t.cl ~normalized ~address ~filter

  let read_image t img ~ptr =
    ignore (Opencl.Cl.enqueue_read_image t.cl img ~host_ptr:ptr ())

  let enqueue_nd_range t k ~gws ~lws =
    ignore (Opencl.Cl.enqueue_nd_range t.cl k ~gws ~lws ())

  let finish t = Opencl.Cl.finish t.cl
end
