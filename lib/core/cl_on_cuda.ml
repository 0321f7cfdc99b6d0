(* The OpenCL-to-CUDA wrapper library (paper §3.4, Figure 2).

   Every OpenCL host entry point is implemented as a wrapper over the
   simulated CUDA driver/runtime API:

   - clCreateBuffer       -> cudaMalloc (handle = device pointer, cast);
   - clEnqueue*Buffer     -> cudaMemcpy;
   - clBuildProgram       -> run the OpenCL-to-CUDA source translator,
                             "nvcc" the result, cuModuleLoad it;
   - clCreateKernel       -> cuModuleGetFunction;
   - clSetKernelArg       -> records the argument (type information is
                             propagated at run time, which is how the
                             wrapper approach sidesteps separate
                             compilation);
   - clEnqueueNDRangeKernel -> cuLaunchKernel, converting the NDRange
                             (work-items) to a grid (blocks), feeding
                             dynamic __local arguments as one extern
                             __shared__ block plus size_t parameters, and
                             staging dynamic __constant buffers into the
                             __OC2CU_const_mem pool (Fig. 5);
   - clCreateImage / read_image* -> the CLImage scheme of Fig. 6 over
                             CUDA memory objects. *)

open Minic.Ast

exception Wrapper_error of string

let err fmt = Printf.ksprintf (fun s -> raise (Wrapper_error s)) fmt

type buffer = {
  b_ptr : int64;             (* device pointer, the cast cl_mem handle *)
  b_size : int;
}

type set_arg =
  | A_buffer of buffer
  | A_image of Gpusim.Imagelib.image
  | A_sampler of Gpusim.Imagelib.sampler
  | A_local of int
  | A_scalar of Vm.Interp.tval

type kernel = {
  k_name : string;
  k_fn : func;                          (* translated CUDA kernel *)
  k_info : Xlat.Ocl_to_cuda.kernel_info;
  mutable k_args : set_arg option array;
}

type t = {
  cu : Cuda.Cudart.t;
  mutable built : (Cuda.Cudart.modul * Xlat.Ocl_to_cuda.result) option;
  mutable build_ns : float;
  images : (int, Gpusim.Imagelib.image) Hashtbl.t;
  samplers : (int, Gpusim.Imagelib.sampler) Hashtbl.t;
  mutable next_id : int;
}

(* the translator itself runs at clBuildProgram time; model its cost like
   an on-line compiler *)
let translate_ns_per_byte = 2500.0

let make dev =
  { cu = Cuda.Cudart.create dev;
    built = None;
    build_ns = 0.0;
    images = Hashtbl.create 8;
    samplers = Hashtbl.create 8;
    next_id = 1 }

let dev t = t.cu.Cuda.Cudart.dev

(* Wrapper-category spans: each cl* wrapper span *encloses* the cuda*/cu*
   API spans it issues, so the per-call fan-out of the wrapper approach
   is directly countable from the trace (paper §6.4). *)
let clock t () = (dev t).Gpusim.Device.sim_time_ns

let wspan ?args t name f =
  Trace.Sink.with_span ~cat:Trace.Event.Wrapper ~name ?args ~clock:(clock t) f

(* Source-to-source results keyed by OpenCL source digest: the same .cl
   text always translates to the same .cu text, so repeat builds (fresh
   context per benchmark iteration) skip the translator. *)
let xlat_cache : (string * Xlat.Ocl_to_cuda.result) Trace.Build_cache.t =
  Trace.Build_cache.create "ocl->cuda translate"

let build_program t src =
  wspan t "clBuildProgram" @@ fun () ->
  let t0 = (dev t).Gpusim.Device.sim_time_ns in
  Gpusim.Device.api_call (dev t);
  (* kernel.cl -> kernel.cl.cu -> PTX -> cuModuleLoad (Fig. 2) *)
  let attribute = (dev t).Gpusim.Device.config.attribute in
  let cuda_src, result =
    Trace.Build_cache.find_or_build xlat_cache
      ~key:(Trace.Build_cache.key src ^ Minic.Site.cache_salt attribute)
      (fun () -> Xlat.Ocl_to_cuda.translate_source ~attribute src)
  in
  (* cache hits skip the translator's wall-clock cost only: the simulated
     build time and the per-context module load are unchanged *)
  Gpusim.Device.add_time (dev t)
    (translate_ns_per_byte *. float_of_int (String.length cuda_src));
  let m = Cuda.Cudart.load_module t.cu result.cuda_prog in
  t.built <- Some (m, result);
  t.build_ns <- t.build_ns +. ((dev t).Gpusim.Device.sim_time_ns -. t0)

let the_module t =
  match t.built with
  | Some m -> m
  | None -> err "clCreateKernel before clBuildProgram"

let create_kernel t name =
  wspan t "clCreateKernel" ~args:[ ("kernel", name) ] @@ fun () ->
  Gpusim.Device.api_call (dev t);
  let m, result = the_module t in
  let fn = Cuda.Cudart.module_get_function m name in
  let info =
    match
      List.find_opt
        (fun ki -> ki.Xlat.Ocl_to_cuda.ki_name = name)
        result.Xlat.Ocl_to_cuda.kernels
    with
    | Some ki -> ki
    | None -> err "no translation metadata for kernel %s" name
  in
  { k_name = name; k_fn = fn; k_info = info;
    k_args = Array.make (List.length info.Xlat.Ocl_to_cuda.ki_roles) None }

let set_arg t k i (a : set_arg) =
  wspan t "clSetKernelArg" @@ fun () ->
  Gpusim.Device.api_call_light (dev t);
  if i < 0 || i >= Array.length k.k_args then
    err "clSetKernelArg(%s): index %d out of range" k.k_name i;
  k.k_args.(i) <- Some a

(* --- CLImage (Fig. 6): OpenCL images over CUDA memory objects -------- *)

let create_image2d t ~width ~height ~order ~chtype ?host_ptr () =
  wspan t "clCreateImage" @@ fun () ->
  let open Gpusim.Imagelib in
  let hw = (dev t).Gpusim.Device.hw in
  let maxw, maxh = hw.max_image2d in
  if width > maxw || height > maxh then
    err "clCreateImage: %dx%d exceeds device limits" width height;
  let elem = channels_of_order order * channel_bytes chtype in
  let bytes = width * height * elem in
  let ptr = Cuda.Cudart.malloc t.cu bytes in
  let id = t.next_id in
  t.next_id <- id + 1;
  let img =
    { i_id = id; i_addr = Vm.Value.ptr_offset ptr; i_dim = 2; i_width = width;
      i_height = height; i_depth = 1; i_order = order; i_chtype = chtype }
  in
  Hashtbl.replace t.images id img;
  (match host_ptr with
   | Some p -> Cuda.Cudart.memcpy t.cu ~dst:ptr ~src:p ~bytes
   | None -> ());
  img

let create_sampler t ~normalized ~address ~filter =
  wspan t "clCreateSampler" @@ fun () ->
  Gpusim.Device.api_call (dev t);
  let id = t.next_id in
  t.next_id <- id + 1;
  let s =
    { Gpusim.Imagelib.s_id = id; s_normalized = normalized;
      s_address = address; s_filter = filter }
  in
  Hashtbl.replace t.samplers id s;
  s

let read_image t (img : Gpusim.Imagelib.image) ~ptr =
  wspan t "clEnqueueReadImage" @@ fun () ->
  Cuda.Cudart.memcpy t.cu ~dst:ptr
    ~src:(Vm.Value.make_ptr AS_global img.Gpusim.Imagelib.i_addr)
    ~bytes:(Gpusim.Imagelib.byte_size img)

let image_externals t =
  Gpusim.Imagelib.externals ~arena:(dev t).Gpusim.Device.global
    ~image_of:(fun id ->
        match Hashtbl.find_opt t.images id with
        | Some i -> i
        | None -> err "not an image handle: %d" id)
    ~sampler_of:(fun id -> Hashtbl.find_opt t.samplers id)

(* --- launch ----------------------------------------------------------- *)

(* Resolve recorded clSetKernelArg values against the translated kernel's
   parameter roles (Fig. 5): dynamic __local and __constant pointer
   arguments became size_t parameters. *)
let resolve_args t (k : kernel) =
  let m, _ = the_module t in
  let params = k.k_fn.fn_params in
  let const_pool =
    Hashtbl.find_opt m.Cuda.Cudart.m_globals Xlat.Ocl_to_cuda.const_pool
  in
  let shmem = ref 0 in
  let const_off = ref 0 in
  let size_arg n =
    Gpusim.Exec.Arg_val
      (Vm.Interp.tv (VInt (Int64.of_int n)) (TScalar SizeT))
  in
  let args =
    List.mapi
      (fun i role ->
         let pa = List.nth params i in
         let arg =
           match k.k_args.(i) with
           | Some a -> a
           | None -> err "%s: argument %d (%s) not set" k.k_name i pa.pa_name
         in
         match role, arg with
         | Xlat.Ocl_to_cuda.P_local_size, A_local bytes ->
           shmem := !shmem + bytes;
           size_arg bytes
         | Xlat.Ocl_to_cuda.P_local_size, _ ->
           err "%s: argument %d must be a dynamic __local size" k.k_name i
         | Xlat.Ocl_to_cuda.P_const_size, A_buffer b ->
           (* stage the buffer contents into the constant pool at the
              accumulated offset (§4.2): the data was written to global
              memory by clEnqueueWriteBuffer, and is copied to constant
              memory when the kernel launches *)
           (match const_pool with
            | None -> err "%s: constant pool missing from module" k.k_name
            | Some pool ->
              let d = dev t in
              Vm.Memory.blit ~src:d.Gpusim.Device.global
                ~src_addr:(Vm.Value.ptr_offset b.b_ptr)
                ~dst:d.Gpusim.Device.constant
                ~dst_addr:(pool.Vm.Interp.b_addr + !const_off)
                ~len:b.b_size;
              const_off := !const_off + b.b_size;
              size_arg b.b_size)
         | Xlat.Ocl_to_cuda.P_const_size, _ ->
           err "%s: argument %d must be a __constant buffer" k.k_name i
         | Xlat.Ocl_to_cuda.P_keep, A_buffer b ->
           Gpusim.Exec.Arg_val (Vm.Interp.tv (VInt b.b_ptr) pa.pa_ty)
         | Xlat.Ocl_to_cuda.P_keep, A_image img ->
           Gpusim.Exec.Arg_val
             (Vm.Interp.tv (VInt (Int64.of_int img.Gpusim.Imagelib.i_id)) pa.pa_ty)
         | Xlat.Ocl_to_cuda.P_keep, A_sampler s ->
           Gpusim.Exec.Arg_val
             (Vm.Interp.tv (VInt (Int64.of_int s.Gpusim.Imagelib.s_id)) pa.pa_ty)
         | Xlat.Ocl_to_cuda.P_keep, A_scalar v -> Gpusim.Exec.Arg_val v
         | Xlat.Ocl_to_cuda.P_keep, A_local _ ->
           err "%s: unexpected local-memory argument at %d" k.k_name i)
      k.k_info.Xlat.Ocl_to_cuda.ki_roles
  in
  (args, !shmem)

let enqueue_nd_range t (k : kernel) ~gws ?lws () =
  wspan t "clEnqueueNDRangeKernel" ~args:[ ("kernel", k.k_name) ]
  @@ fun () ->
  Gpusim.Device.api_call (dev t);
  let lws =
    match lws with
    | Some l -> l
    | None -> [| (if gws.(0) mod 64 = 0 then 64 else 1); 1; 1 |]
  in
  let get a i = if i < Array.length a then max 1 a.(i) else 1 in
  (* NDRange counts work-items, a CUDA grid counts blocks (Fig. 1) *)
  let grid =
    ( get gws 0 / get lws 0,
      get gws 1 / get lws 1,
      get gws 2 / get lws 2 )
  in
  let block = (get lws 0, get lws 1, get lws 2) in
  let args, shmem = resolve_args t k in
  let m, _ = the_module t in
  ignore
    (Cuda.Cudart.launch_kernel t.cu ~m ~kernel:k.k_fn ~grid ~block ~shmem
       ~extra_externals:(image_externals t) ~args ())

(* --- the Cl_api.S instance -------------------------------------------- *)

module Api : sig
  include Cl_api.S
  val make : Gpusim.Device.t -> t
end = struct
  type nonrec t = t
  type nonrec buffer = buffer
  type nonrec kernel = kernel
  type image = Gpusim.Imagelib.image
  type sampler = Gpusim.Imagelib.sampler

  let framework_name = "OpenCL-on-CUDA(translated)"

  let make = make

  let host t = t.cu.Cuda.Cudart.host
  let time_ns t = (dev t).Gpusim.Device.sim_time_ns
  let build_time_ns t = t.build_ns

  let device_name t =
    wspan t "clGetDeviceInfo" ~args:[ ("param", "CL_DEVICE_NAME") ]
    @@ fun () ->
    (Cuda.Cudart.get_device_properties t.cu).Cuda.Cudart.name

  (* clGetDeviceInfo wrapper over CUDA device attributes *)
  let device_info t param =
    wspan t "clGetDeviceInfo" ~args:[ ("param", param) ] @@ fun () ->
    Gpusim.Device.api_call (dev t);
    let hw = (dev t).Gpusim.Device.hw in
    match param with
    | "CL_DEVICE_MAX_COMPUTE_UNITS" -> Int64.of_int hw.sm_count
    | "CL_DEVICE_MAX_WORK_GROUP_SIZE" -> 1024L
    | "CL_DEVICE_GLOBAL_MEM_SIZE" -> Int64.of_int hw.global_mem
    | "CL_DEVICE_LOCAL_MEM_SIZE" -> Int64.of_int hw.smem_per_sm
    | "CL_DEVICE_MAX_CONSTANT_BUFFER_SIZE" -> Int64.of_int hw.const_mem
    | "CL_DEVICE_MAX_CLOCK_FREQUENCY" -> Int64.of_float (hw.clock_ghz *. 1000.0)
    | "CL_DEVICE_IMAGE2D_MAX_WIDTH" -> Int64.of_int (fst hw.max_image2d)
    | "CL_DEVICE_IMAGE2D_MAX_HEIGHT" -> Int64.of_int (snd hw.max_image2d)
    | _ -> err "unknown device info %s" param

  let create_buffer t ?read_only size =
    wspan t "clCreateBuffer" ~args:[ ("size", string_of_int size) ]
    @@ fun () ->
    ignore read_only;
    (* clCreateBuffer -> cudaMalloc; the returned cl_mem is the device
       pointer cast to the handle type (§4) *)
    let p = Cuda.Cudart.malloc t.cu size in
    { b_ptr = p; b_size = size }

  let write_buffer t b ?(offset = 0) ~size ~ptr () =
    wspan t "clEnqueueWriteBuffer" ~args:[ ("bytes", string_of_int size) ]
    @@ fun () ->
    Cuda.Cudart.memcpy t.cu
      ~dst:(Int64.add b.b_ptr (Int64.of_int offset))
      ~src:ptr ~bytes:size

  let read_buffer t b ?(offset = 0) ~size ~ptr () =
    wspan t "clEnqueueReadBuffer" ~args:[ ("bytes", string_of_int size) ]
    @@ fun () ->
    Cuda.Cudart.memcpy t.cu ~dst:ptr
      ~src:(Int64.add b.b_ptr (Int64.of_int offset))
      ~bytes:size

  let release_buffer t b =
    wspan t "clReleaseMemObject" @@ fun () -> Cuda.Cudart.free t.cu b.b_ptr

  let build_program = build_program
  let create_kernel = create_kernel

  let set_arg_buffer t k i b = set_arg t k i (A_buffer b)
  let set_arg_image t k i img = set_arg t k i (A_image img)
  let set_arg_sampler t k i s = set_arg t k i (A_sampler s)
  let set_arg_local t k i bytes = set_arg t k i (A_local bytes)

  let set_arg_int t k i n =
    set_arg t k i
      (A_scalar (Vm.Interp.tv (VInt (Int64.of_int n)) (TScalar Int)))

  let set_arg_float t k i x =
    set_arg t k i (A_scalar (Vm.Interp.tv (VFloat x) (TScalar Float)))

  let set_arg_double t k i x =
    set_arg t k i (A_scalar (Vm.Interp.tv (VFloat x) (TScalar Double)))

  let create_image2d = create_image2d
  let create_sampler = create_sampler
  let read_image = read_image

  let enqueue_nd_range t k ~gws ~lws = enqueue_nd_range t k ~gws ~lws ()

  let finish t = wspan t "clFinish" @@ fun () -> Gpusim.Device.api_call (dev t)
end
