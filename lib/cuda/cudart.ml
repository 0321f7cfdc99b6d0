(* Simulated CUDA runtime API (cudaMalloc, cudaMemcpy, textures, events)
   and driver API (cuModuleLoad / cuLaunchKernel) over the Gpusim device.

   This is the "native CUDA framework" the original CUDA applications run
   against, and the target of the OpenCL-to-CUDA wrapper library, whose
   cl* entry points are implemented with the driver API (paper Fig. 2 and
   Fig. 4(d)). *)

open Minic.Ast
open Vm.Value

exception Cuda_error of string

let err fmt = Printf.ksprintf (fun s -> raise (Cuda_error s)) fmt

(* ------------------------------------------------------------------ *)
(* Textures                                                            *)
(* ------------------------------------------------------------------ *)

type cuda_array = {
  a_id : int;
  a_addr : int;
  a_width : int;
  a_height : int;
  a_depth : int;
  a_elem_scalar : scalar;
  a_channels : int;
}

type linear_binding = { l_addr : int; l_bytes : int; l_elem : scalar }

type tex_binding =
  | B_unbound
  | B_linear of linear_binding
  | B_array of cuda_array

type texture_ref = {
  t_name : string;
  t_scalar : scalar;
  t_dim : int;
  t_mode : read_mode;
  mutable t_bound : tex_binding;
}

(* ------------------------------------------------------------------ *)
(* State                                                               *)
(* ------------------------------------------------------------------ *)

type modul = {
  m_code : Gpusim.Exec.modul;
  m_globals : (string, Vm.Interp.binding) Hashtbl.t;
}

type event = { mutable ev_time : float }

type t = {
  dev : Gpusim.Device.t;
  host : Vm.Memory.arena;
  textures : (int, texture_ref) Hashtbl.t;          (* handle -> ref *)
  tex_by_name : (string, texture_ref) Hashtbl.t;
  arrays : (int, cuda_array) Hashtbl.t;
  mutable next_id : int;
  mutable allocs : (int64 * int) list;              (* ptr, size *)
}

let create ?host dev =
  (* Deviceless probes (the translator's xlat spans) read this clock, so
     their spans land on the active device's simulated timeline. *)
  Trace.Sink.set_default_clock (fun () -> dev.Gpusim.Device.sim_time_ns);
  { dev;
    host = (match host with Some h -> h | None -> Vm.Memory.create ~initial:(1 lsl 16) "host");
    textures = Hashtbl.create 8;
    tex_by_name = Hashtbl.create 8;
    arrays = Hashtbl.create 8;
    next_id = 1;
    allocs = [] }

let api cu = Gpusim.Device.api_call cu.dev

(* Tracing probes: api-category spans on the simulated timeline, one
   bool check when the global sink is disabled (see lib/trace). *)
let clock cu () = cu.dev.Gpusim.Device.sim_time_ns

let traced ?(cat = Trace.Event.Api) ?args cu name f =
  Trace.Sink.with_span ~cat ~name ?args ~clock:(clock cu) f

let memcpy_span cu kind bytes f =
  traced cu ~cat:Trace.Event.Memcpy
    (Printf.sprintf "[CUDA memcpy %s]" kind)
    ~args:[ ("bytes", string_of_int bytes) ] f

let fresh cu =
  let id = cu.next_id in
  cu.next_id <- id + 1;
  id

(* ------------------------------------------------------------------ *)
(* Module loading (shared by native runs and cuModuleLoad)             *)
(* ------------------------------------------------------------------ *)

(* Materialise a CUDA module: device/constant globals are allocated in
   the device arenas and recorded as symbols; texture references get
   runtime handles stored in their global slot. *)
let load_module cu (prog : Minic.Ast.program) : modul =
  traced cu ~cat:Trace.Event.Build "cuModuleLoad" @@ fun () ->
  api cu;
  let globals = Hashtbl.create 16 in
  let arena_of : addr_space -> Vm.Memory.arena = function
    | AS_global -> cu.dev.Gpusim.Device.global
    | AS_constant -> cu.dev.Gpusim.Device.constant
    | AS_local | AS_private | AS_none -> cu.host
  in
  let ctx = Vm.Interp.make ~prog ~arena_of ~globals () in
  (* only device-side globals belong to the module *)
  let is_device_global (d : decl) =
    match unqual d.d_ty, type_space d.d_ty, d.d_storage.s_space with
    | TTexture _, _, _ -> false     (* handled below *)
    | _, (AS_global | AS_constant), _ -> true
    | _, _, (AS_global | AS_constant) -> true
    | _ -> false
  in
  Vm.Interp.init_globals ctx ~filter:is_device_global prog;
  Hashtbl.iter
    (fun name b -> Hashtbl.replace cu.dev.Gpusim.Device.symbols name b)
    globals;
  (* texture references: allocate a handle slot in constant memory *)
  List.iter
    (function
      | TVar d ->
        (match unqual d.d_ty with
         | TTexture (sc, dim, mode) ->
           let tref =
             { t_name = d.d_name; t_scalar = sc; t_dim = dim; t_mode = mode;
               t_bound = B_unbound }
           in
           let id = fresh cu in
           Hashtbl.replace cu.textures id tref;
           Hashtbl.replace cu.tex_by_name d.d_name tref;
           let addr = Vm.Memory.alloc cu.dev.Gpusim.Device.constant ~align:8 8 in
           Vm.Memory.store_int cu.dev.Gpusim.Device.constant addr 8
             (Int64.of_int id);
           Hashtbl.replace globals d.d_name
             { Vm.Interp.b_space = AS_constant; b_addr = addr; b_ty = d.d_ty }
         | _ -> ())
      | _ -> ())
    prog;
  { m_code = Gpusim.Exec.load prog; m_globals = globals }

let module_get_function (m : modul) name =
  match find_function (Gpusim.Exec.program m.m_code) name with
  | Some f when f.fn_kind = FK_kernel -> f
  | Some _ -> err "cuModuleGetFunction: %s is not a __global__ function" name
  | None -> err "cuModuleGetFunction: no function %s" name

(* ------------------------------------------------------------------ *)
(* Memory management                                                   *)
(* ------------------------------------------------------------------ *)

let malloc cu size =
  traced cu "cudaMalloc" ~args:[ ("size", string_of_int size) ] @@ fun () ->
  api cu;
  if size <= 0 then err "cudaMalloc: bad size %d" size;
  let addr = Vm.Memory.alloc cu.dev.Gpusim.Device.global ~align:256 size in
  cu.dev.Gpusim.Device.alloc_bytes <- cu.dev.Gpusim.Device.alloc_bytes + size;
  let p = make_ptr AS_global addr in
  cu.allocs <- (p, size) :: cu.allocs;
  p

let free cu p =
  traced cu "cudaFree" @@ fun () ->
  api cu;
  match List.assoc_opt p cu.allocs with
  | Some size ->
    cu.dev.Gpusim.Device.alloc_bytes <- cu.dev.Gpusim.Device.alloc_bytes - size;
    cu.allocs <- List.remove_assoc p cu.allocs
  | None -> ()

let arena_for cu space =
  match space with
  | AS_none -> cu.host
  | AS_global -> cu.dev.Gpusim.Device.global
  | AS_constant -> cu.dev.Gpusim.Device.constant
  | AS_local | AS_private -> err "cudaMemcpy: bad pointer space"

(* cudaMemcpy: the direction is implied by the encoded pointer spaces
   (unified-virtual-addressing style); host code's binding ignores the
   explicit kind argument of the C API. *)
let memcpy cu ~dst ~src ~bytes =
  traced cu "cudaMemcpy" ~args:[ ("bytes", string_of_int bytes) ]
  @@ fun () ->
  api cu;
  let dsp = ptr_space dst and ssp = ptr_space src in
  let kind =
    match ssp, dsp with
    | AS_none, AS_none -> "HtoH"
    | AS_none, _ -> "HtoD"
    | _, AS_none -> "DtoH"
    | _, _ -> "DtoD"
  in
  memcpy_span cu kind bytes (fun () ->
      Vm.Memory.blit
        ~src:(arena_for cu ssp) ~src_addr:(ptr_offset src)
        ~dst:(arena_for cu dsp) ~dst_addr:(ptr_offset dst) ~len:bytes;
      let crosses = dsp <> ssp in
      if crosses then
        Gpusim.Device.add_time cu.dev (Gpusim.Device.memcpy_time_ns cu.dev bytes)
      else
        Gpusim.Device.add_time cu.dev
          (float_of_int bytes /. cu.dev.Gpusim.Device.hw.gmem_bw_gbps *. 2.0))

let memset cu ~dst ~byte ~bytes =
  traced cu "cudaMemset" ~args:[ ("bytes", string_of_int bytes) ]
  @@ fun () ->
  api cu;
  let arena = arena_for cu (ptr_space dst) in
  Vm.Memory.store_bytes arena (ptr_offset dst)
    (Bytes.make bytes (Char.chr (byte land 0xff)));
  (* a memset is a small DMA-like operation on the device *)
  Gpusim.Device.add_time cu.dev (Gpusim.Device.memcpy_time_ns cu.dev bytes)

let find_symbol cu name =
  match Hashtbl.find_opt cu.dev.Gpusim.Device.symbols name with
  | Some b -> b
  | None -> err "no device symbol named %s" name

(* cudaMemcpyToSymbol / cudaMemcpyFromSymbol (§4.2, §4.3): data moves
   between the host and a statically-declared __device__/__constant__
   variable.  These are two of the three constructs that cannot become
   wrappers in CUDA-to-OpenCL translation. *)
let memcpy_to_symbol cu name ~src ~bytes ?(offset = 0) () =
  traced cu "cudaMemcpyToSymbol"
    ~args:[ ("symbol", name); ("bytes", string_of_int bytes) ]
  @@ fun () ->
  api cu;
  let b = find_symbol cu name in
  let dst_arena = arena_for cu b.Vm.Interp.b_space in
  memcpy_span cu "HtoD" bytes (fun () ->
      Vm.Memory.blit
        ~src:(arena_for cu (ptr_space src)) ~src_addr:(ptr_offset src)
        ~dst:dst_arena ~dst_addr:(b.Vm.Interp.b_addr + offset) ~len:bytes;
      Gpusim.Device.add_time cu.dev (Gpusim.Device.memcpy_time_ns cu.dev bytes))

let memcpy_from_symbol cu name ~dst ~bytes ?(offset = 0) () =
  traced cu "cudaMemcpyFromSymbol"
    ~args:[ ("symbol", name); ("bytes", string_of_int bytes) ]
  @@ fun () ->
  api cu;
  let b = find_symbol cu name in
  let src_arena = arena_for cu b.Vm.Interp.b_space in
  memcpy_span cu "DtoH" bytes (fun () ->
      Vm.Memory.blit ~src:src_arena ~src_addr:(b.Vm.Interp.b_addr + offset)
        ~dst:(arena_for cu (ptr_space dst)) ~dst_addr:(ptr_offset dst)
        ~len:bytes;
      Gpusim.Device.add_time cu.dev (Gpusim.Device.memcpy_time_ns cu.dev bytes))

let mem_get_info cu =
  traced cu "cudaMemGetInfo" @@ fun () ->
  api cu;
  let total = cu.dev.Gpusim.Device.hw.global_mem in
  (total - cu.dev.Gpusim.Device.alloc_bytes, total)

(* ------------------------------------------------------------------ *)
(* Arrays and texture binding                                          *)
(* ------------------------------------------------------------------ *)

let malloc_array cu ~scalar ~channels ~width ?(height = 1) ?(depth = 1) () =
  traced cu "cudaMallocArray" @@ fun () ->
  api cu;
  let bytes = width * height * depth * scalar_size scalar * channels in
  let addr = Vm.Memory.alloc cu.dev.Gpusim.Device.global ~align:256 bytes in
  let a =
    { a_id = fresh cu; a_addr = addr; a_width = width; a_height = height;
      a_depth = depth; a_elem_scalar = scalar; a_channels = channels }
  in
  Hashtbl.replace cu.arrays a.a_id a;
  cu.dev.Gpusim.Device.alloc_bytes <- cu.dev.Gpusim.Device.alloc_bytes + bytes;
  a

let memcpy_to_array cu (a : cuda_array) ~src ~bytes =
  traced cu "cudaMemcpyToArray" ~args:[ ("bytes", string_of_int bytes) ]
  @@ fun () ->
  api cu;
  memcpy_span cu "HtoD" bytes (fun () ->
      Vm.Memory.blit
        ~src:(arena_for cu (ptr_space src)) ~src_addr:(ptr_offset src)
        ~dst:cu.dev.Gpusim.Device.global ~dst_addr:a.a_addr ~len:bytes;
      Gpusim.Device.add_time cu.dev (Gpusim.Device.memcpy_time_ns cu.dev bytes))

let texture_by_name cu name =
  match Hashtbl.find_opt cu.tex_by_name name with
  | Some tref -> tref
  | None -> err "unknown texture reference %s" name

(* Texture references evaluate to integer handles in device and host
   code; the runtime resolves them back to the reference object. *)
let texture_by_handle cu id =
  match Hashtbl.find_opt cu.textures id with
  | Some tref -> tref
  | None -> err "invalid texture handle %d" id

let array_by_handle cu id =
  match Hashtbl.find_opt cu.arrays id with
  | Some a -> a
  | None -> err "invalid cudaArray handle %d" id

let bind_texture_ref cu tref ~ptr ~bytes ~elem =
  traced cu "cudaBindTexture" ~args:[ ("texture", tref.t_name) ] @@ fun () ->
  api cu;
  let width = bytes / max 1 (scalar_size elem) in
  if width > cu.dev.Gpusim.Device.hw.max_tex1d_linear then
    err "cudaBindTexture: linear texture of %d texels exceeds 2^27" width;
  tref.t_bound <-
    B_linear { l_addr = ptr_offset ptr; l_bytes = bytes; l_elem = elem }

let bind_texture cu name ~ptr ~bytes ~elem =
  bind_texture_ref cu (texture_by_name cu name) ~ptr ~bytes ~elem

let bind_texture_to_array_ref cu tref (a : cuda_array) =
  traced cu "cudaBindTextureToArray" ~args:[ ("texture", tref.t_name) ]
  @@ fun () ->
  api cu;
  tref.t_bound <- B_array a

let unbind_texture_ref cu tref =
  traced cu "cudaUnbindTexture" @@ fun () ->
  api cu;
  tref.t_bound <- B_unbound

(* Kernel-side texture fetch built-ins. *)
let texture_externals cu =
  let open Vm.Interp in
  let tex_of (h : tval) =
    match Hashtbl.find_opt cu.textures (Int64.to_int (Vm.Value.to_int h.v)) with
    | Some t -> t
    | None -> err "texture fetch on unbound handle"
  in
  let g = cu.dev.Gpusim.Device.global in
  let fetch_linear ctx l i =
    let es = scalar_size l.l_elem in
    let i = max 0 (min i ((l.l_bytes / es) - 1)) in
    ctx.Vm.Interp.on_access Load AS_global (l.l_addr + (i * es)) es;
    if is_float_scalar l.l_elem then
      VFloat (Vm.Memory.load_float g (l.l_addr + (i * es)) es)
    else VInt (Vm.Memory.load_int g (l.l_addr + (i * es)) es)
  in
  let fetch_array ctx (a : cuda_array) tref x y z =
    let clampi v hi = max 0 (min v (hi - 1)) in
    let x = clampi x a.a_width
    and y = clampi y a.a_height
    and z = clampi z a.a_depth in
    let es = scalar_size a.a_elem_scalar in
    let idx = (((z * a.a_height) + y) * a.a_width) + x in
    let base = a.a_addr + (idx * es * a.a_channels) in
    ctx.Vm.Interp.on_access Load AS_global base (es * a.a_channels);
    let comp c =
      if is_float_scalar a.a_elem_scalar then
        VFloat (Vm.Memory.load_float g (base + (c * es)) es)
      else begin
        let n = Vm.Memory.load_int g (base + (c * es)) es in
        match tref.t_mode with
        | RM_normalized_float ->
          VFloat (Int64.to_float n /. 255.0)
        | RM_element -> VInt n
      end
    in
    if a.a_channels = 1 then comp 0
    else VVec (Array.init a.a_channels comp)
  in
  let icoord (a : tval) = Int64.to_int (Vm.Value.to_int a.v) in
  let fcoord (a : tval) = int_of_float (Float.floor (Vm.Value.to_float a.v)) in
  let result_ty tref =
    if is_float_scalar tref.t_scalar || tref.t_mode = RM_normalized_float then
      TScalar Float
    else TScalar tref.t_scalar
  in
  [ ("tex1Dfetch",
     (fun ctx args ->
        match args with
        | [ h; i ] ->
          let tref = tex_of h in
          (match tref.t_bound with
           | B_linear l -> tv (fetch_linear ctx l (icoord i)) (result_ty tref)
           | B_array a -> tv (fetch_array ctx a tref (icoord i) 0 0) (result_ty tref)
           | B_unbound -> err "tex1Dfetch: %s not bound" tref.t_name)
        | _ -> err "tex1Dfetch arity"));
    ("tex1D",
     (fun ctx args ->
        match args with
        | [ h; x ] ->
          let tref = tex_of h in
          (match tref.t_bound with
           | B_array a -> tv (fetch_array ctx a tref (fcoord x) 0 0) (result_ty tref)
           | B_linear l -> tv (fetch_linear ctx l (fcoord x)) (result_ty tref)
           | B_unbound -> err "tex1D: %s not bound" tref.t_name)
        | _ -> err "tex1D arity"));
    ("tex2D",
     (fun ctx args ->
        match args with
        | [ h; x; y ] ->
          let tref = tex_of h in
          (match tref.t_bound with
           | B_array a ->
             tv (fetch_array ctx a tref (fcoord x) (fcoord y) 0) (result_ty tref)
           | B_linear _ | B_unbound -> err "tex2D: %s not bound to an array" tref.t_name)
        | _ -> err "tex2D arity"));
    ("tex3D",
     (fun ctx args ->
        match args with
        | [ h; x; y; z ] ->
          let tref = tex_of h in
          (match tref.t_bound with
           | B_array a ->
             tv (fetch_array ctx a tref (fcoord x) (fcoord y) (fcoord z)) (result_ty tref)
           | B_linear _ | B_unbound -> err "tex3D: %s not bound to an array" tref.t_name)
        | _ -> err "tex3D arity")) ]

(* ------------------------------------------------------------------ *)
(* Kernel launch                                                       *)
(* ------------------------------------------------------------------ *)

(* CUDA grids count blocks; the execution engine takes OpenCL-style
   total work-item counts, so convert (Fig. 1's NDRange/grid gotcha). *)
let launch_kernel cu ~(m : modul) ~(kernel : func)
    ~grid:(gx, gy, gz) ~block:(bx, by, bz) ?(shmem = 0)
    ?(extra_externals = []) ~(args : Gpusim.Exec.karg list) () =
  traced cu "cuLaunchKernel" ~args:[ ("kernel", kernel.fn_name) ]
  @@ fun () ->
  api cu;
  let cfg =
    { Gpusim.Exec.global_size = [| gx * bx; gy * by; gz * bz |];
      local_size = [| bx; by; bz |];
      dyn_shared = shmem }
  in
  let stats =
    Gpusim.Exec.launch ~dev:cu.dev ~modul:m.m_code ~globals:m.m_globals
      ~host_arena:cu.host
      ~extra_externals:(texture_externals cu @ extra_externals) ~kernel ~cfg
      ~args ()
  in
  Gpusim.Timing.finish_launch cu.dev ~name:kernel.fn_name stats;
  stats

(* ------------------------------------------------------------------ *)
(* Device management, events, properties                               *)
(* ------------------------------------------------------------------ *)

type device_prop = {
  name : string;
  major : int;
  minor : int;
  multi_processor_count : int;
  total_global_mem : int;
  shared_mem_per_block : int;
  regs_per_block : int;
  warp_size : int;
  clock_rate_khz : int;
  max_threads_per_block : int;
}

(* The wrapper in the other direction issues one clGetDeviceInfo per
   field; natively this is a single call. *)
let get_device_properties cu =
  traced cu "cudaGetDeviceProperties" @@ fun () ->
  api cu;
  let hw = cu.dev.Gpusim.Device.hw in
  { name = hw.hw_name;
    major = 3;
    minor = 5;
    multi_processor_count = hw.sm_count;
    total_global_mem = hw.global_mem;
    shared_mem_per_block = hw.smem_per_sm;
    regs_per_block = hw.regs_per_sm;
    warp_size = hw.warp_size;
    clock_rate_khz = int_of_float (hw.clock_ghz *. 1e6);
    max_threads_per_block = 1024 }

let device_synchronize cu =
  traced cu "cudaDeviceSynchronize" @@ fun () -> api cu

let event_create cu =
  traced cu "cudaEventCreate" @@ fun () ->
  api cu;
  { ev_time = 0.0 }

let event_record cu ev =
  traced cu "cudaEventRecord" @@ fun () ->
  api cu;
  ev.ev_time <- cu.dev.Gpusim.Device.sim_time_ns

let event_elapsed_ms _cu e0 e1 = (e1.ev_time -. e0.ev_time) /. 1e6
