(* The CUDA-to-OpenCL wrapper runtime (paper §3.4, Figure 3).

   A translated application consists of the host program (main.cu.cpp,
   still full of cuda* calls plus the rewritten launch sequences) and the
   OpenCL device program (main.cu.cl).  This module runs the host
   program (see Hostrun.run) with:

   - the cuda* calls it shares with original programs bound once
     (Cuda_api) to [Runtime], wrappers over the simulated OpenCL API
     (cudaMalloc -> clCreateBuffer with the cl_mem handle cast to void*,
     cudaMemcpy -> clEnqueue{Read,Write,Copy}Buffer, ...);
   - the __c2o_* helper functions emitted by the source translator for
     the three constructs that could not be wrapped (kernel launches and
     cudaMemcpy{To,From}Symbol);
   - texture wrappers that realise CUDA texture references as OpenCL
     image + sampler pairs (§5);
   - cudaGetDeviceProperties implemented by fanning out one
     clGetDeviceInfo call per field -- the wrapper amplification that
     slows deviceQuery in Figure 8.

   Per §3.4, the OpenCL device program is built lazily, at the first
   CUDA API call. *)

open Minic.Ast
open Vm
open Vm.Interp

exception Wrapper_error of string

let errf fmt = Printf.ksprintf (fun s -> raise (Wrapper_error s)) fmt

type t = {
  cl : Opencl.Cl.t;
  result : Xlat.Cuda_to_ocl.result;
  session : Hostrun.session;
  mutable prog : Opencl.Cl.program option;
  kernels : (string, Opencl.Cl.kernel) Hashtbl.t;
  khandles : (int, Opencl.Cl.kernel) Hashtbl.t;
  mutable next_handle : int;
  sym_buffers : (string, Opencl.Cl.buffer) Hashtbl.t;
  mutable buffers : (int * Opencl.Cl.buffer) list;   (* base addr, object *)
  tex_state : (string, Opencl.Cl.image * Opencl.Cl.sampler) Hashtbl.t;
  arrays : (int, Opencl.Cl.image) Hashtbl.t;
  mutable next_array : int;
  mutable build_ns : float;
  cl_layout : Layout.env Lazy.t;
}

let make dev result session =
  let cl = Opencl.Cl.create ~host:session.Hostrun.arena dev in
  { cl; result; session;
    prog = None;
    kernels = Hashtbl.create 8;
    khandles = Hashtbl.create 8;
    next_handle = 1;
    sym_buffers = Hashtbl.create 8;
    buffers = [];
    tex_state = Hashtbl.create 4;
    arrays = Hashtbl.create 4;
    next_array = 1;
    build_ns = 0.0;
    cl_layout = lazy (Layout.make_env result.Xlat.Cuda_to_ocl.cl_prog) }

(* Per §3.4: "our translation framework builds the device code when any
   CUDA API function is called for the first time at run-time". *)
let ensure_built t =
  match t.prog with
  | Some p -> p
  | None ->
    let t0 = t.cl.Opencl.Cl.dev.Gpusim.Device.sim_time_ns in
    (* the device program is the pretty-printed .cl file, re-parsed and
       built by the OpenCL runtime exactly like a hand-written one.
       A translation that carries sites hands its AST over directly
       instead: the textual round-trip would drop the origin-site
       markers and renumber them against the translated text, breaking
       the native-vs-translated alignment `prof --diff` depends on. *)
    let src = Xlat.Cuda_to_ocl.cl_source t.result in
    let cl_prog = t.result.Xlat.Cuda_to_ocl.cl_prog in
    let pre = if Minic.Site.present cl_prog then Some cl_prog else None in
    let p = Opencl.Cl.create_program_with_source ?pre t.cl src in
    Opencl.Cl.build_program t.cl p;
    t.prog <- Some p;
    (* symbols (__device__ globals and runtime-initialised __constant__)
       get backing buffers (§4.2, §4.3) *)
    let layout = Lazy.force t.cl_layout in
    List.iter
      (fun sy ->
         let bytes = Layout.sizeof layout sy.Xlat.Cuda_to_ocl.sy_ty in
         let b =
           Opencl.Cl.create_buffer t.cl
             ~read_only:(sy.Xlat.Cuda_to_ocl.sy_space = AS_constant)
             (max 8 bytes)
         in
         Hashtbl.replace t.sym_buffers sy.Xlat.Cuda_to_ocl.sy_name b)
      t.result.Xlat.Cuda_to_ocl.symbols;
    t.build_ns <- t.cl.Opencl.Cl.dev.Gpusim.Device.sim_time_ns -. t0;
    p

let get_kernel t name =
  let p = ensure_built t in
  match Hashtbl.find_opt t.kernels name with
  | Some k -> k
  | None ->
    let k = Opencl.Cl.create_kernel t.cl p name in
    Hashtbl.replace t.kernels name k;
    k

let kernel_handle t name =
  let k = get_kernel t name in
  let existing =
    Hashtbl.fold
      (fun id k' acc -> if k' == k then Some id else acc)
      t.khandles None
  in
  match existing with
  | Some id -> id
  | None ->
    let id = t.next_handle in
    t.next_handle <- id + 1;
    Hashtbl.replace t.khandles id k;
    id

let kernel_of_handle t id =
  match Hashtbl.find_opt t.khandles id with
  | Some k -> k
  | None -> errf "invalid cl_kernel handle %d" id

let find_buffer t addr =
  let rec go = function
    | [] -> errf "device pointer 0x%x is not inside any buffer" addr
    | (base, b) :: rest ->
      if addr >= base && addr < base + b.Opencl.Cl.b_size then (b, addr - base)
      else go rest
  in
  go t.buffers

let sym_buffer t name =
  ignore (ensure_built t);
  match Hashtbl.find_opt t.sym_buffers name with
  | Some b -> b
  | None -> errf "no device symbol named %s" name

let tex_info t name =
  match
    List.find_opt
      (fun tx -> tx.Xlat.Cuda_to_ocl.tx_name = name)
      t.result.Xlat.Cuda_to_ocl.textures
  with
  | Some tx -> tx
  | None -> errf "unknown texture reference %s" name

let default_sampler t =
  Opencl.Cl.create_sampler t.cl ~normalized:false
    ~address:Gpusim.Imagelib.AM_clamp_to_edge
    ~filter:Gpusim.Imagelib.FM_nearest

let image_chtype_of_scalar sc mode =
  if mode = RM_normalized_float then Gpusim.Imagelib.CT_unorm_int8
  else if is_float_scalar sc then Gpusim.Imagelib.CT_float
  else if is_unsigned sc then Gpusim.Imagelib.CT_uint32
  else Gpusim.Imagelib.CT_sint32

(* Convert an argument value to a kernel parameter's type. *)
let convert_to_param layout (pa : param) (v : tval) : tval =
  match Layout.resolve layout pa.pa_ty with
  | TScalar (Float | Double) -> tv (VFloat (Value.to_float v.v)) pa.pa_ty
  | TScalar _ -> tv (VInt (Value.to_int v.v)) pa.pa_ty
  | _ -> tv v.v pa.pa_ty


(* ------------------------------------------------------------------ *)
(* The runtime behind the shared binding: wrappers over OpenCL         *)
(* ------------------------------------------------------------------ *)

module Runtime = struct
  type nonrec t = t
  type event = float ref
  type array = Opencl.Cl.image
  type texref = string

  let dev t = t.cl.Opencl.Cl.dev

  let malloc t size =
    ignore (ensure_built t);
    (* clCreateBuffer; the cl_mem handle is cast to void* and returned
       through the out parameter (§2, §4) *)
    let b = Opencl.Cl.create_buffer t.cl size in
    t.buffers <- (b.Opencl.Cl.b_addr, b) :: t.buffers;
    Opencl.Cl.buffer_device_ptr b

  let free t p =
    let addr = Value.ptr_offset p in
    match List.assoc_opt addr t.buffers with
    | Some b ->
      Opencl.Cl.release_mem_object t.cl b;
      t.buffers <- List.remove_assoc addr t.buffers
    | None -> ()

  let memcpy t ~dst:d ~src:s ~bytes =
    ignore (ensure_built t);
    match Value.ptr_space d, Value.ptr_space s with
    | AS_global, AS_none ->
      let b, off = find_buffer t (Value.ptr_offset d) in
      ignore
        (Opencl.Cl.enqueue_write_buffer t.cl b ~offset:off ~size:bytes
           ~host_ptr:s ())
    | AS_none, AS_global ->
      let b, off = find_buffer t (Value.ptr_offset s) in
      ignore
        (Opencl.Cl.enqueue_read_buffer t.cl b ~offset:off ~size:bytes
           ~host_ptr:d ())
    | AS_global, AS_global ->
      let bd, od = find_buffer t (Value.ptr_offset d) in
      let bs, os = find_buffer t (Value.ptr_offset s) in
      ignore
        (Opencl.Cl.enqueue_copy_buffer t.cl bs bd ~src_offset:os
           ~dst_offset:od ~size:bytes ())
    | AS_none, AS_none ->
      Memory.blit ~src:t.session.Hostrun.arena
        ~src_addr:(Value.ptr_offset s) ~dst:t.session.Hostrun.arena
        ~dst_addr:(Value.ptr_offset d) ~len:bytes
    | _ -> errf "cudaMemcpy: unsupported direction"

  let memset t ~dst ~byte ~bytes =
    let b, off = find_buffer t (Value.ptr_offset dst) in
    Memory.store_bytes (dev t).Gpusim.Device.global
      (b.Opencl.Cl.b_addr + off)
      (Bytes.make bytes (Char.chr (byte land 0xff)))

  (* UVA wrappers over OpenCL 2.0 shared virtual memory (§3.7's
     anticipated clSVMAlloc translation): the SVM pointer serves as
     both the host and the device pointer. *)
  let host_alloc t size =
    ignore (ensure_built t);
    Opencl.Cl.svm_alloc t.cl size

  let free_host t p = Opencl.Cl.svm_free t.cl p

  (* the paper's nn/mummergpu failure: OpenCL has no counterpart *)
  let mem_get_info _ =
    errf "cudaMemGetInfo cannot be implemented over OpenCL (§3.7)"

  (* one clGetDeviceInfo round-trip per field: the deviceQuery
     amplification of Figure 8 *)
  let device_properties t =
    List.map
      (fun (field, param, scale) ->
         (field, Int64.mul scale (Opencl.Cl.get_device_info t.cl param)))
      [ ("multiProcessorCount", "CL_DEVICE_MAX_COMPUTE_UNITS", 1L);
        ("totalGlobalMem", "CL_DEVICE_GLOBAL_MEM_SIZE", 1L);
        ("sharedMemPerBlock", "CL_DEVICE_LOCAL_MEM_SIZE", 1L);
        ("maxThreadsPerBlock", "CL_DEVICE_MAX_WORK_GROUP_SIZE", 1L);
        ("clockRate", "CL_DEVICE_MAX_CLOCK_FREQUENCY", 1000L);
        ("warpSize", "CL_DEVICE_WARP_SIZE", 1L);
        ("regsPerBlock", "CL_DEVICE_REGISTERS_PER_BLOCK_NV", 1L) ]
    (* no OpenCL query yields a compute capability; report 3.5 *)
    @ [ ("major", 3L); ("minor", 5L) ]

  let synchronize t = Opencl.Cl.finish t.cl
  let event_create _ = ref 0.0
  let event_record t e = e := (dev t).Gpusim.Device.sim_time_ns
  let event_elapsed_ms _ e0 e1 = (!e1 -. !e0) /. 1e6

  let malloc_array t sc ~width ~height =
    ignore (ensure_built t);
    let img =
      Opencl.Cl.create_image t.cl ~dim:2 ~width ~height
        ~order:Gpusim.Imagelib.CO_r
        ~chtype:(image_chtype_of_scalar sc RM_element) ()
    in
    let id = t.next_array in
    t.next_array <- id + 1;
    Hashtbl.replace t.arrays id img;
    id

  let array t id = Hashtbl.find_opt t.arrays id

  let memcpy_to_array t img ~src ~bytes =
    ignore (Opencl.Cl.enqueue_write_image t.cl img ~bytes ~host_ptr:src ())

  (* the translator passes a texture reference by name *)
  let texture _ ctx (name : tval) = read_string ctx name.v

  let bind_texture t name ~ptr ~bytes =
    ignore (ensure_built t);
    let tx = tex_info t name in
    let elem = scalar_size tx.Xlat.Cuda_to_ocl.tx_scalar in
    let texels = bytes / max 1 elem in
    (* a 1D image buffer is capped at the max 2D image width (§5) *)
    let maxw = fst (dev t).Gpusim.Device.hw.max_image2d in
    if texels > maxw then
      errf "cudaBindTexture: %d texels exceed the OpenCL 1D image limit %d"
        texels maxw;
    let img =
      Opencl.Cl.create_image t.cl ~dim:1 ~width:texels
        ~order:Gpusim.Imagelib.CO_r
        ~chtype:
          (image_chtype_of_scalar tx.Xlat.Cuda_to_ocl.tx_scalar
             tx.Xlat.Cuda_to_ocl.tx_mode)
        ()
    in
    (* copy the linear data into the image *)
    let global = (dev t).Gpusim.Device.global in
    Memory.blit ~src:global ~src_addr:(Value.ptr_offset ptr) ~dst:global
      ~dst_addr:img.Gpusim.Imagelib.i_addr ~len:bytes;
    Hashtbl.replace t.tex_state name (img, default_sampler t)

  let bind_texture_to_array t name img =
    Hashtbl.replace t.tex_state name (img, default_sampler t)

  let unbind_texture t name = Hashtbl.remove t.tex_state name
end

module Binding = Cuda_api.Make (Runtime)

(* ------------------------------------------------------------------ *)
(* The translator-emitted helpers                                      *)
(* ------------------------------------------------------------------ *)

let helper_externals (t : t) =
  let open Cuda_api in
  let ok = tint 0 in
  let read_sizet_array ctx p i =
    let ptr = ptr_of p in
    let arena = ctx.arena_of (Value.ptr_space ptr) in
    Int64.to_int (Memory.load_int arena (Value.ptr_offset ptr + (8 * i)) 8)
  in
  checked
    [ ("__c2o_kernel",
       fun ctx -> function
         | [ name ] ->
           let n = read_string ctx name.v in
           tv (VInt (Int64.of_int (kernel_handle t n))) (TNamed "cl_kernel")
         | _ -> raise Arity);
      ("__c2o_set_arg",
       fun _ -> function
         | [ kh; idx; v ] ->
           let k = kernel_of_handle t (int_of kh) in
           let i = int_of idx in
           let pa = List.nth k.Opencl.Cl.k_fn.fn_params i in
           let layout = Lazy.force t.cl_layout in
           Opencl.Cl.set_kernel_arg t.cl k i
             (Opencl.Cl.A_scalar (convert_to_param layout pa v));
           ok
         | _ -> raise Arity);
      ("clSetKernelArg",
       fun _ -> function
         | [ kh; idx; size; nullp ] when Value.to_int nullp.v = 0L ->
           (* dynamic __local argument (§4.1) *)
           let k = kernel_of_handle t (int_of kh) in
           Opencl.Cl.set_kernel_arg t.cl k (int_of idx)
             (Opencl.Cl.A_local (int_of size));
           ok
         | _ -> errf "clSetKernelArg: only the NULL (local) form is emitted");
      ("__c2o_set_symbol_arg",
       fun ctx -> function
         | [ kh; idx; name ] ->
           let k = kernel_of_handle t (int_of kh) in
           let b = sym_buffer t (read_string ctx name.v) in
           Opencl.Cl.set_kernel_arg t.cl k (int_of idx) (Opencl.Cl.A_buffer b);
           ok
         | _ -> raise Arity);
      ("__c2o_set_texture_args",
       fun ctx -> function
         | [ kh; idx; name ] ->
           let k = kernel_of_handle t (int_of kh) in
           let n = read_string ctx name.v in
           (match Hashtbl.find_opt t.tex_state n with
            | Some (img, smp) ->
              Opencl.Cl.set_kernel_arg t.cl k (int_of idx) (Opencl.Cl.A_image img);
              Opencl.Cl.set_kernel_arg t.cl k (int_of idx + 1)
                (Opencl.Cl.A_sampler smp);
              ok
            | None -> errf "texture %s used before cudaBindTexture*" n)
         | _ -> raise Arity);
      ("__c2o_fill_dims",
       fun ctx -> function
         | [ grid; block; gws; lws ] ->
           let gx, gy, gz = decode_dim3 ctx grid in
           let bx, by, bz = decode_dim3 ctx block in
           let store p i v =
             let ptr = ptr_of p in
             let arena = ctx.arena_of (Value.ptr_space ptr) in
             Memory.store_int arena (Value.ptr_offset ptr + (8 * i)) 8
               (Int64.of_int v)
           in
           (* NDRange = grid x block (Fig. 1) *)
           store gws 0 (gx * bx); store gws 1 (gy * by); store gws 2 (gz * bz);
           store lws 0 bx; store lws 1 by; store lws 2 bz;
           ok
         | _ -> raise Arity);
      ("clEnqueueNDRangeKernel",
       fun ctx -> function
         | _q :: kh :: _dim :: _off :: gws :: lws :: _ ->
           let k = kernel_of_handle t (int_of kh) in
           let g = Array.init 3 (read_sizet_array ctx gws) in
           let l = Array.init 3 (read_sizet_array ctx lws) in
           let g = Array.map (max 1) g and l = Array.map (max 1) l in
           ignore (Opencl.Cl.enqueue_nd_range t.cl k ~gws:g ~lws:l ());
           ok
         | _ -> raise Arity);
      ("__c2o_queue", fun _ _ -> tv (VInt 1L) (TNamed "cl_command_queue"));
      ("__c2o_memcpy_to_symbol",
       fun ctx -> function
         | name :: src :: n :: _ ->
           let b = sym_buffer t (read_string ctx name.v) in
           ignore
             (Opencl.Cl.enqueue_write_buffer t.cl b ~size:(int_of n)
                ~host_ptr:(ptr_of src) ());
           ok
         | _ -> raise Arity);
      ("__c2o_memcpy_from_symbol",
       fun ctx -> function
         | dst :: name :: n :: _ ->
           let b = sym_buffer t (read_string ctx name.v) in
           ignore
             (Opencl.Cl.enqueue_read_buffer t.cl b ~size:(int_of n)
                ~host_ptr:(ptr_of dst) ());
           ok
         | _ -> raise Arity) ]

(* ------------------------------------------------------------------ *)
(* Entry point                                                         *)
(* ------------------------------------------------------------------ *)

let run ~(dev : Gpusim.Device.t) ~(result : Xlat.Cuda_to_ocl.result) :
  Hostrun.run =
  let session = Hostrun.make_session () in
  let t = make dev result session in
  (* every entry point in a wrapper-category span: the cl* API spans a
     wrapper issues nest inside it, so the deviceQuery fan-out of §6.4
     (one cudaGetDeviceProperties call issuing one clGetDeviceInfo per
     property) is countable from the trace *)
  let clock () = dev.Gpusim.Device.sim_time_ns in
  let traced (name, fn) =
    ( name,
      fun ctx args ->
        Trace.Sink.with_span ~cat:Trace.Event.Wrapper ~name ~clock
          (fun () -> fn ctx args) )
  in
  let r =
    Hostrun.run ~dev ~session ~prog:result.Xlat.Cuda_to_ocl.host_prog
      ~externals:(List.map traced (Binding.externals t @ helper_externals t)) ()
  in
  (* like Figure 7, the on-line build is excluded: CUDA needs no on-line
     compilation, so including it would not compare like with like *)
  { r with Hostrun.r_time_ns = r.Hostrun.r_time_ns -. t.build_ns }
