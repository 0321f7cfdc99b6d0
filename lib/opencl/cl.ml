(* Simulated OpenCL 1.2 host API over the Gpusim device model.

   This is the "native OpenCL framework" of the paper's evaluation: the
   original OpenCL applications run against it directly, and the
   CUDA-to-OpenCL wrapper library (Bridge.Cuda_on_cl) is implemented on
   top of it, exactly as the paper implements cuda* wrappers with cl*
   calls.  Each entry point charges the framework's per-call overhead to
   the simulated clock. *)

open Minic.Ast

exception Cl_error of int * string

let cl_success = 0
let cl_invalid_value = -30
let cl_invalid_kernel_args = -52
let cl_build_program_failure = -11
let cl_invalid_image_size = -40

let err code fmt =
  Printf.ksprintf (fun s -> raise (Cl_error (code, s))) fmt

(* ------------------------------------------------------------------ *)
(* Object model                                                        *)
(* ------------------------------------------------------------------ *)

type buffer = {
  b_id : int;
  b_addr : int;                  (* offset in device global arena *)
  b_size : int;
  b_read_only : bool;
}

(* Image and sampler objects are the shared CLImage model (Fig. 6). *)
type image = Gpusim.Imagelib.image
type sampler = Gpusim.Imagelib.sampler

open Gpusim.Imagelib

type set_arg =
  | A_buffer of buffer
  | A_image of image
  | A_sampler of sampler
  | A_local of int
  | A_scalar of Vm.Interp.tval

type program = {
  p_id : int;
  p_src : string;
  (* pre-built AST supplied at creation (the hand-off of a translation
     that carries sites, whose origin-site markers must survive);
     [build_program] uses it instead of re-parsing [p_src] *)
  p_pre : Minic.Ast.program option;
  mutable p_module : Gpusim.Exec.modul option;  (* set by clBuildProgram *)
  mutable p_globals : (string, Vm.Interp.binding) Hashtbl.t;
  mutable p_log : string;
}

type kernel = {
  k_id : int;
  k_prog : program;
  k_name : string;
  k_fn : func;
  mutable k_args : set_arg option array;
}

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

(* One OpenCL "platform + context + queue" bundle per device.  The
   in-order queue of OpenCL 1.x maps to immediate execution against the
   simulated clock. *)
type t = {
  dev : Gpusim.Device.t;
  host : Vm.Memory.arena;
  objects : (int, obj) Hashtbl.t;
  mutable next_id : int;
  mutable build_count : int;
}

let create ?host dev =
  (* Deviceless probes (the translator's xlat spans) read this clock, so
     their spans land on the active device's simulated timeline. *)
  Trace.Sink.set_default_clock (fun () -> dev.Gpusim.Device.sim_time_ns);
  { dev;
    host = (match host with Some h -> h | None -> Vm.Memory.create ~initial:(1 lsl 16) "host");
    objects = Hashtbl.create 64;
    next_id = 1;
    build_count = 0 }

let fresh cl obj =
  let id = cl.next_id in
  cl.next_id <- id + 1;
  Hashtbl.replace cl.objects id obj;
  id

let find_obj cl id =
  match Hashtbl.find_opt cl.objects id with
  | Some o -> o
  | None -> err cl_invalid_value "invalid object handle %d" id

let api cl = Gpusim.Device.api_call cl.dev

(* Tracing probes: each entry point records an api-category span on the
   device's simulated timeline.  With the global sink disabled (the
   default), [Trace.Sink.with_span] is a single bool check, so the
   probes stay unconditionally compiled in. *)
let clock cl () = cl.dev.Gpusim.Device.sim_time_ns

let traced ?(cat = Trace.Event.Api) ?args cl name f =
  Trace.Sink.with_span ~cat ~name ?args ~clock:(clock cl) f

(* ------------------------------------------------------------------ *)
(* Device queries (clGetDeviceInfo)                                    *)
(* ------------------------------------------------------------------ *)

(* Each query is one API round-trip: this is what makes the translated
   deviceQuery slow in Figure 8 (one cudaGetDeviceProperties wrapper
   fans out into many clGetDeviceInfo calls). *)
let get_device_info cl (param : string) : int64 =
  traced cl "clGetDeviceInfo" ~args:[ ("param", param) ] @@ fun () ->
  api cl;
  let hw = cl.dev.Gpusim.Device.hw in
  match param with
  | "CL_DEVICE_MAX_COMPUTE_UNITS" -> Int64.of_int hw.sm_count
  | "CL_DEVICE_MAX_WORK_GROUP_SIZE" -> 1024L
  | "CL_DEVICE_GLOBAL_MEM_SIZE" -> Int64.of_int hw.global_mem
  | "CL_DEVICE_LOCAL_MEM_SIZE" -> Int64.of_int hw.smem_per_sm
  | "CL_DEVICE_MAX_CONSTANT_BUFFER_SIZE" -> Int64.of_int hw.const_mem
  | "CL_DEVICE_MAX_CLOCK_FREQUENCY" ->
    Int64.of_float (hw.clock_ghz *. 1000.0)
  | "CL_DEVICE_IMAGE2D_MAX_WIDTH" -> Int64.of_int (fst hw.max_image2d)
  | "CL_DEVICE_IMAGE2D_MAX_HEIGHT" -> Int64.of_int (snd hw.max_image2d)
  | "CL_DEVICE_MAX_WORK_ITEM_DIMENSIONS" -> 3L
  | "CL_DEVICE_WARP_SIZE" -> Int64.of_int hw.warp_size  (* NV extension *)
  | "CL_DEVICE_REGISTERS_PER_BLOCK_NV" -> Int64.of_int hw.regs_per_sm
  | _ -> err cl_invalid_value "unknown device info %s" param

let get_device_name cl =
  traced cl "clGetDeviceInfo" ~args:[ ("param", "CL_DEVICE_NAME") ]
  @@ fun () ->
  api cl;
  cl.dev.Gpusim.Device.hw.hw_name

(* ------------------------------------------------------------------ *)
(* Buffers                                                             *)
(* ------------------------------------------------------------------ *)

let create_buffer cl ?(read_only = false) size =
  traced cl "clCreateBuffer" ~args:[ ("size", string_of_int size) ]
  @@ fun () ->
  api cl;
  if size <= 0 then err cl_invalid_value "clCreateBuffer: size %d" size;
  let addr = Vm.Memory.alloc cl.dev.Gpusim.Device.global ~align:256 size in
  cl.dev.Gpusim.Device.alloc_bytes <-
    cl.dev.Gpusim.Device.alloc_bytes + size;
  let b = { b_id = 0; b_addr = addr; b_size = size; b_read_only = read_only } in
  let b = { b with b_id = fresh cl (O_buffer b) } in
  Hashtbl.replace cl.objects b.b_id (O_buffer b);
  b

let buffer_device_ptr (b : buffer) = Vm.Value.make_ptr AS_global b.b_addr

let now cl = cl.dev.Gpusim.Device.sim_time_ns

let mk_event cl t0 =
  { e_queued = t0; e_start = t0; e_end = now cl }

(* host_ptr is an encoded pointer (normally into the host arena). *)
let resolve_host_ptr cl p =
  let space = Vm.Value.ptr_space p in
  let arena =
    match space with
    | AS_none -> cl.host
    | AS_global -> cl.dev.Gpusim.Device.global
    | _ -> err cl_invalid_value "bad host pointer space"
  in
  (arena, Vm.Value.ptr_offset p)

(* Transfers nest a memcpy-category span (the nvprof "[memcpy ...]"
   activity) inside the API span, covering the simulated copy time. *)
let memcpy_span cl kind bytes f =
  traced cl ~cat:Trace.Event.Memcpy
    (Printf.sprintf "[memcpy %s]" kind)
    ~args:[ ("bytes", string_of_int bytes) ] f

let enqueue_write_buffer cl (b : buffer) ?(offset = 0) ~size ~host_ptr () =
  traced cl "clEnqueueWriteBuffer" ~args:[ ("bytes", string_of_int size) ]
  @@ fun () ->
  api cl;
  if offset + size > b.b_size then
    err cl_invalid_value "clEnqueueWriteBuffer: out of bounds";
  let t0 = now cl in
  memcpy_span cl "HtoD" size (fun () ->
      let src_arena, src_addr = resolve_host_ptr cl host_ptr in
      Vm.Memory.blit ~src:src_arena ~src_addr ~dst:cl.dev.Gpusim.Device.global
        ~dst_addr:(b.b_addr + offset) ~len:size;
      Gpusim.Device.add_time cl.dev (Gpusim.Device.memcpy_time_ns cl.dev size));
  mk_event cl t0

let enqueue_read_buffer cl (b : buffer) ?(offset = 0) ~size ~host_ptr () =
  traced cl "clEnqueueReadBuffer" ~args:[ ("bytes", string_of_int size) ]
  @@ fun () ->
  api cl;
  if offset + size > b.b_size then
    err cl_invalid_value "clEnqueueReadBuffer: out of bounds";
  let t0 = now cl in
  memcpy_span cl "DtoH" size (fun () ->
      let dst_arena, dst_addr = resolve_host_ptr cl host_ptr in
      Vm.Memory.blit ~src:cl.dev.Gpusim.Device.global
        ~src_addr:(b.b_addr + offset) ~dst:dst_arena ~dst_addr ~len:size;
      Gpusim.Device.add_time cl.dev (Gpusim.Device.memcpy_time_ns cl.dev size));
  mk_event cl t0

let enqueue_copy_buffer cl (src : buffer) (dst : buffer) ?(src_offset = 0)
    ?(dst_offset = 0) ~size () =
  traced cl "clEnqueueCopyBuffer" ~args:[ ("bytes", string_of_int size) ]
  @@ fun () ->
  api cl;
  let t0 = now cl in
  memcpy_span cl "DtoD" size (fun () ->
      let g = cl.dev.Gpusim.Device.global in
      Vm.Memory.blit ~src:g ~src_addr:(src.b_addr + src_offset) ~dst:g
        ~dst_addr:(dst.b_addr + dst_offset) ~len:size;
      (* device-to-device copies run at global memory bandwidth *)
      Gpusim.Device.add_time cl.dev
        (float_of_int size /. cl.dev.Gpusim.Device.hw.gmem_bw_gbps *. 2.0));
  mk_event cl t0

let release_mem_object cl (b : buffer) =
  traced cl "clReleaseMemObject" @@ fun () ->
  api cl;
  cl.dev.Gpusim.Device.alloc_bytes <-
    cl.dev.Gpusim.Device.alloc_bytes - b.b_size;
  Hashtbl.remove cl.objects b.b_id

(* ------------------------------------------------------------------ *)
(* Images and samplers                                                 *)
(* ------------------------------------------------------------------ *)

let create_image cl ~dim ~width ?(height = 1) ?(depth = 1) ~order ~chtype
    ?host_ptr () =
  traced cl "clCreateImage"
    ~args:[ ("dim", string_of_int dim); ("width", string_of_int width) ]
  @@ fun () ->
  api cl;
  let hw = cl.dev.Gpusim.Device.hw in
  let maxw, maxh = hw.max_image2d in
  if dim >= 2 && (width > maxw || height > maxh) then
    err cl_invalid_image_size "image %dx%d exceeds device limits" width height;
  let elem =
    channels_of_order order * channel_bytes chtype
  in
  let bytes = width * height * depth * elem in
  let addr = Vm.Memory.alloc cl.dev.Gpusim.Device.global ~align:256 bytes in
  let img =
    { i_id = 0; i_addr = addr; i_dim = dim; i_width = width;
      i_height = height; i_depth = depth; i_order = order; i_chtype = chtype }
  in
  let img = { img with i_id = fresh cl (O_image img) } in
  Hashtbl.replace cl.objects img.i_id (O_image img);
  (match host_ptr with
   | None -> ()
   | Some p ->
     let src_arena, src_addr = resolve_host_ptr cl p in
     Vm.Memory.blit ~src:src_arena ~src_addr ~dst:cl.dev.Gpusim.Device.global
       ~dst_addr:addr ~len:bytes;
     Gpusim.Device.add_time cl.dev (Gpusim.Device.memcpy_time_ns cl.dev bytes));
  img

let create_sampler cl ~normalized ~address ~filter =
  traced cl "clCreateSampler" @@ fun () ->
  api cl;
  let s = { s_id = 0; s_normalized = normalized; s_address = address; s_filter = filter } in
  let s = { s with s_id = fresh cl (O_sampler s) } in
  Hashtbl.replace cl.objects s.s_id (O_sampler s);
  s

let enqueue_write_image cl img ?bytes ~host_ptr () =
  traced cl "clEnqueueWriteImage" @@ fun () ->
  api cl;
  let t0 = now cl in
  let size = img.i_width * img.i_height * img.i_depth * Gpusim.Imagelib.elem_size img in
  let bytes =
    match bytes with
    | None -> size
    | Some n when n < 0 || n > size ->
      err cl_invalid_value "clEnqueueWriteImage: %d bytes for a %d-byte image" n size
    | Some n -> n
  in
  memcpy_span cl "HtoD" bytes (fun () ->
      let src_arena, src_addr = resolve_host_ptr cl host_ptr in
      Vm.Memory.blit ~src:src_arena ~src_addr ~dst:cl.dev.Gpusim.Device.global
        ~dst_addr:img.i_addr ~len:bytes;
      Gpusim.Device.add_time cl.dev (Gpusim.Device.memcpy_time_ns cl.dev bytes));
  mk_event cl t0

let enqueue_read_image cl img ~host_ptr () =
  traced cl "clEnqueueReadImage" @@ fun () ->
  api cl;
  let t0 = now cl in
  let bytes = img.i_width * img.i_height * img.i_depth * Gpusim.Imagelib.elem_size img in
  memcpy_span cl "DtoH" bytes (fun () ->
      let dst_arena, dst_addr = resolve_host_ptr cl host_ptr in
      Vm.Memory.blit ~src:cl.dev.Gpusim.Device.global ~src_addr:img.i_addr
        ~dst:dst_arena ~dst_addr ~len:bytes;
      Gpusim.Device.add_time cl.dev (Gpusim.Device.memcpy_time_ns cl.dev bytes));
  mk_event cl t0

(* ------------------------------------------------------------------ *)
(* Programs and kernels                                                *)
(* ------------------------------------------------------------------ *)

(* [pre] is the translator hand-off: the program text is [src] (build
   time is still charged per byte) but the device code is the given,
   already-annotated AST — origin site ids survive where a textual
   round-trip would drop them and renumber. *)
let create_program_with_source ?pre cl src =
  traced cl "clCreateProgramWithSource"
    ~args:[ ("bytes", string_of_int (String.length src)) ]
  @@ fun () ->
  api cl;
  let p =
    { p_id = 0; p_src = src; p_pre = pre; p_module = None;
      p_globals = Hashtbl.create 8; p_log = "" }
  in
  let p = { p with p_id = fresh cl (O_program p) } in
  Hashtbl.replace cl.objects p.p_id (O_program p);
  p

(* Materialise file-scope __constant/__global variables of the device
   program into the device arenas. *)
let materialize_globals cl ast globals =
  let arena_of : addr_space -> Vm.Memory.arena = function
    | AS_global -> cl.dev.Gpusim.Device.global
    | AS_constant -> cl.dev.Gpusim.Device.constant
    | AS_local | AS_private | AS_none -> cl.host
  in
  let ctx = Vm.Interp.make ~prog:ast ~arena_of ~globals () in
  Vm.Interp.init_globals ctx ast;
  (* record symbols on the device so cudaMemcpyToSymbol-style access works *)
  Hashtbl.iter
    (fun name b -> Hashtbl.replace cl.dev.Gpusim.Device.symbols name b)
    globals

(* Parse results keyed by source digest.  Each build still loads its own
   module, which compiles on its first launch. *)
let parse_cache : Minic.Ast.program Trace.Build_cache.t =
  Trace.Build_cache.create "clBuildProgram parse"

let build_program cl (p : program) =
  traced cl ~cat:Trace.Event.Build "clBuildProgram"
    ~args:[ ("bytes", string_of_int (String.length p.p_src)) ]
  @@ fun () ->
  api cl;
  cl.build_count <- cl.build_count + 1;
  (match
     match p.p_pre with
     | Some ast ->
       (* translator hand-off: no parse, and no re-annotation — the AST
          already carries its origin sites *)
       ast
     | None ->
       let attribute = cl.dev.Gpusim.Device.config.attribute in
       Trace.Build_cache.find_or_build parse_cache
         ~key:(Trace.Build_cache.key p.p_src ^ Minic.Site.cache_salt attribute)
         (fun () ->
            let ast = Minic.Parser.program ~dialect:Minic.Parser.OpenCL p.p_src in
            if attribute then Minic.Site.annotate ast else ast)
   with
   | ast ->
     p.p_module <- Some (Gpusim.Exec.load ast);
     (* a cache hit skips the parse, not the per-context device state or
        the simulated build time: figure shapes are unchanged *)
     materialize_globals cl ast p.p_globals;
     Gpusim.Device.add_time cl.dev
       (cl.dev.Gpusim.Device.fw.build_ns_per_byte
        *. float_of_int (String.length p.p_src))
   | exception Minic.Parser.Error (msg, line) ->
     p.p_log <- Printf.sprintf "line %d: %s" line msg;
     err cl_build_program_failure "clBuildProgram: %s" p.p_log
   | exception Minic.Lexer.Error (msg, line) ->
     p.p_log <- Printf.sprintf "line %d: %s" line msg;
     err cl_build_program_failure "clBuildProgram: %s" p.p_log)

let create_kernel cl (p : program) name =
  traced cl "clCreateKernel" ~args:[ ("kernel", name) ] @@ fun () ->
  api cl;
  let ast =
    match p.p_module with
    | Some m -> Gpusim.Exec.program m
    | None -> err cl_invalid_value "clCreateKernel before clBuildProgram"
  in
  match find_function ast name with
  | Some f when f.fn_kind = FK_kernel ->
    let k =
      { k_id = 0; k_prog = p; k_name = name; k_fn = f;
        k_args = Array.make (List.length f.fn_params) None }
    in
    let k = { k with k_id = fresh cl (O_kernel k) } in
    Hashtbl.replace cl.objects k.k_id (O_kernel k);
    k
  | Some _ -> err cl_invalid_value "%s is not a kernel" name
  | None -> err cl_invalid_value "no kernel named %s" name

let set_kernel_arg cl (k : kernel) idx (arg : set_arg) =
  traced cl "clSetKernelArg" @@ fun () ->
  Gpusim.Device.api_call_light cl.dev;
  if idx < 0 || idx >= Array.length k.k_args then
    err cl_invalid_kernel_args "clSetKernelArg: index %d out of range" idx;
  k.k_args.(idx) <- Some arg

(* Convenience wrappers mirroring common clSetKernelArg uses. *)
let set_arg_buffer cl k idx b = set_kernel_arg cl k idx (A_buffer b)
let set_arg_image cl k idx i = set_kernel_arg cl k idx (A_image i)
let set_arg_sampler cl k idx s = set_kernel_arg cl k idx (A_sampler s)
let set_arg_local cl k idx bytes = set_kernel_arg cl k idx (A_local bytes)

let set_arg_int cl k idx n =
  set_kernel_arg cl k idx
    (A_scalar (Vm.Interp.tv (VInt (Int64.of_int n)) (TScalar Int)))

let set_arg_float cl k idx x =
  set_kernel_arg cl k idx (A_scalar (Vm.Interp.tv (VFloat x) (TScalar Float)))

let set_arg_double cl k idx x =
  set_kernel_arg cl k idx (A_scalar (Vm.Interp.tv (VFloat x) (TScalar Double)))

(* Kernel-side image built-ins, closed over this OpenCL state. *)
let image_externals cl =
  Gpusim.Imagelib.externals ~arena:cl.dev.Gpusim.Device.global
    ~image_of:(fun id ->
        match find_obj cl id with
        | O_image i -> i
        | _ -> err cl_invalid_value "kernel argument %d is not an image" id)
    ~sampler_of:(fun id ->
        match Hashtbl.find_opt cl.objects id with
        | Some (O_sampler s) -> Some s
        | _ -> None)

(* ------------------------------------------------------------------ *)
(* Kernel launch                                                       *)
(* ------------------------------------------------------------------ *)

let karg_of_setarg _cl (k : kernel) i (arg : set_arg option) : Gpusim.Exec.karg =
  let pa = List.nth k.k_fn.fn_params i in
  match arg with
  | None ->
    err cl_invalid_kernel_args "%s: argument %d (%s) not set" k.k_name i
      pa.pa_name
  | Some (A_buffer b) ->
    Arg_val (Vm.Interp.tv (VInt (buffer_device_ptr b)) pa.pa_ty)
  | Some (A_image img) ->
    Arg_val (Vm.Interp.tv (VInt (Int64.of_int img.i_id)) pa.pa_ty)
  | Some (A_sampler s) ->
    Arg_val (Vm.Interp.tv (VInt (Int64.of_int s.s_id)) pa.pa_ty)
  | Some (A_local bytes) -> Arg_local bytes
  | Some (A_scalar v) -> Arg_val v

(* Paper note (Fig. 1): an OpenCL NDRange counts work-items while a CUDA
   grid counts blocks -- this API takes the OpenCL convention. *)
let enqueue_nd_range cl (k : kernel) ~gws ?lws () =
  traced cl "clEnqueueNDRangeKernel" ~args:[ ("kernel", k.k_name) ]
  @@ fun () ->
  api cl;
  let t0 = now cl in
  let lws =
    match lws with
    | Some l -> l
    | None -> [| (if gws.(0) mod 64 = 0 then 64 else 1); 1; 1 |]
  in
  let args = Array.to_list (Array.mapi (karg_of_setarg cl k) k.k_args) in
  let stats =
    Gpusim.Exec.launch ~dev:cl.dev ~modul:(Option.get k.k_prog.p_module)
      ~globals:k.k_prog.p_globals ~host_arena:cl.host
      ~extra_externals:(image_externals cl) ~kernel:k.k_fn
      ~cfg:{ global_size = gws; local_size = lws; dyn_shared = 0 }
      ~args ()
  in
  Gpusim.Timing.finish_launch cl.dev ~name:k.k_name stats;
  (mk_event cl t0, stats)

let finish cl = traced cl "clFinish" @@ fun () -> api cl

(* --- OpenCL 2.0 shared virtual memory ------------------------------- *)

(* clSVMAlloc (OpenCL 2.0): memory visible to host and device under one
   address.  The paper leaves CUDA's unified virtual address space
   untranslated because it targets OpenCL 1.2 (§3.7) and anticipates SVM
   as the fix; this entry point enables that extension.  The returned
   pointer is a device-global address the interpreted host can also
   dereference directly. *)
let svm_alloc cl size =
  traced cl "clSVMAlloc" ~args:[ ("size", string_of_int size) ] @@ fun () ->
  api cl;
  if size <= 0 then err cl_invalid_value "clSVMAlloc: size %d" size;
  let addr = Vm.Memory.alloc cl.dev.Gpusim.Device.global ~align:256 size in
  cl.dev.Gpusim.Device.alloc_bytes <- cl.dev.Gpusim.Device.alloc_bytes + size;
  Vm.Value.make_ptr AS_global addr

let svm_free cl _ptr = traced cl "clSVMFree" @@ fun () -> api cl

(* Sub-device creation is the OpenCL-only feature of §3.7: it exists
   here (trivially) so the CUDA translation path can *detect* and reject
   it, as the paper does. *)
let create_sub_devices _cl =
  err cl_invalid_value "clCreateSubDevices: not supported by the translation framework"

(* Profiling info from an event (nanoseconds, like OpenCL). *)
let profiling_command_start e = e.e_start
let profiling_command_end e = e.e_end
