(* Run an original CUDA application natively: device code is loaded as a
   module on the simulated device, host code runs (see Hostrun.run_main)
   with cuda* bound to the simulated CUDA runtime, and <<<...>>> kernel
   calls go through the launch handler (this is the "original CUDA on
   Titan" configuration of Figures 7 and 8). *)

open Minic.Ast
open Vm
open Vm.Interp

exception Native_error of string

let errf fmt = Printf.ksprintf (fun s -> raise (Native_error s)) fmt

type run_result = {
  output : string;
  time_ns : float;
  kernel_launches : int;
}

let int_of (a : tval) = Int64.to_int (Value.to_int a.v)
let ptr_of (a : tval) = Value.to_int a.v

(* Decode an int-or-dim3 launch configuration value. *)
let decode_dim3 ctx (a : tval) =
  match Layout.resolve ctx.layout a.ty with
  | TNamed "dim3" ->
    let p = ptr_of a in
    let arena = ctx.arena_of (Value.ptr_space p) in
    let base = Value.ptr_offset p in
    let g i = Int64.to_int (Memory.load_int arena (base + (4 * i)) 4) in
    (max 1 (g 0), max 1 (g 1), max 1 (g 2))
  | _ -> (max 1 (int_of a), 1, 1)

(* Store through an out-pointer argument (e.g. cudaMalloc's first arg). *)
let store_out ctx (p : tval) ty v =
  let ptr = ptr_of p in
  Vm.Interp.store ctx (Value.ptr_space ptr) (Value.ptr_offset ptr) ty v

let scalar_of_channel_desc ctx (desc : tval) =
  (* cudaChannelFormatDesc { x bits; y; z; w; f kind } *)
  let p = ptr_of desc in
  let arena = ctx.arena_of (Value.ptr_space p) in
  let base = Value.ptr_offset p in
  let bits = Int64.to_int (Memory.load_int arena base 4) in
  let kind = Int64.to_int (Memory.load_int arena (base + 16) 4) in
  match kind, bits with
  | 2, _ -> Float
  | 1, 8 -> UChar
  | 1, 32 -> UInt
  | 0, 8 -> Char
  | _, _ -> Int

let channel_desc_of_scalar ctx sc =
  let addr = Memory.alloc (ctx.arena_of AS_none) ~align:4 20 in
  let arena = ctx.arena_of AS_none in
  let bits = 8 * scalar_size sc in
  Memory.store_int arena addr 4 (Int64.of_int bits);
  Memory.store_int arena (addr + 16) 4
    (Int64.of_int
       (if is_float_scalar sc then 2 else if is_unsigned sc then 1 else 0));
  tv (VInt (Value.make_ptr AS_none addr)) (TNamed "cudaChannelFormatDesc")

(* ------------------------------------------------------------------ *)
(* CUDA runtime externals                                              *)
(* ------------------------------------------------------------------ *)

let cuda_externals (cu : Cuda.Cudart.t) ~launches () =
  let events : (int, Cuda.Cudart.event) Hashtbl.t = Hashtbl.create 4 in
  let next_event = ref 1 in
  let ok = tint 0 in
  [ ("cudaMalloc",
     (fun ctx args ->
        match args with
        | [ pp; size ] ->
          let p = Cuda.Cudart.malloc cu (int_of size) in
          store_out ctx pp (TPtr (TScalar Void)) (VInt p);
          ok
        | _ -> errf "cudaMalloc arity"));
    ("cudaFree",
     (fun _ args ->
        match args with
        | [ p ] -> Cuda.Cudart.free cu (ptr_of p); ok
        | _ -> errf "cudaFree arity"));
    ("cudaMemcpy",
     (fun _ args ->
        match args with
        | [ dst; src; n; _ ] | [ dst; src; n ] ->
          Cuda.Cudart.memcpy cu ~dst:(ptr_of dst) ~src:(ptr_of src)
            ~bytes:(int_of n);
          ok
        | _ -> errf "cudaMemcpy arity"));
    ("cudaMemset",
     (fun _ args ->
        match args with
        | [ dst; v; n ] ->
          Cuda.Cudart.memset cu ~dst:(ptr_of dst) ~byte:(int_of v)
            ~bytes:(int_of n);
          ok
        | _ -> errf "cudaMemset arity"));
    (* the first argument evaluated to the symbol's device address *)
    ("cudaMemcpyToSymbol",
     (fun _ args ->
        match args with
        | sym :: src :: n :: rest ->
          let offset = match rest with o :: _ -> int_of o | [] -> 0 in
          Cuda.Cudart.memcpy cu
            ~dst:(Int64.add (ptr_of sym) (Int64.of_int offset))
            ~src:(ptr_of src) ~bytes:(int_of n);
          ok
        | _ -> errf "cudaMemcpyToSymbol arity"));
    ("cudaMemcpyFromSymbol",
     (fun _ args ->
        match args with
        | dst :: sym :: n :: rest ->
          let offset = match rest with o :: _ -> int_of o | [] -> 0 in
          Cuda.Cudart.memcpy cu ~dst:(ptr_of dst)
            ~src:(Int64.add (ptr_of sym) (Int64.of_int offset))
            ~bytes:(int_of n);
          ok
        | _ -> errf "cudaMemcpyFromSymbol arity"));
    ("cudaHostAlloc",
     (fun ctx args ->
        match args with
        | pp :: size :: _ ->
          let p = Cuda.Cudart.malloc cu (int_of size) in
          store_out ctx pp (TPtr (TScalar Void)) (VInt p);
          ok
        | _ -> errf "cudaHostAlloc arity"));
    ("cudaMallocHost",
     (fun ctx args ->
        match args with
        | pp :: size :: _ ->
          let p = Cuda.Cudart.malloc cu (int_of size) in
          store_out ctx pp (TPtr (TScalar Void)) (VInt p);
          ok
        | _ -> errf "cudaMallocHost arity"));
    ("cudaHostGetDevicePointer",
     (fun ctx args ->
        match args with
        | dpp :: hp :: _ ->
          store_out ctx dpp (TPtr (TScalar Void)) (VInt (ptr_of hp));
          ok
        | _ -> errf "cudaHostGetDevicePointer arity"));
    ("cudaFreeHost",
     (fun _ args ->
        match args with
        | [ p ] -> Cuda.Cudart.free cu (ptr_of p); ok
        | _ -> errf "cudaFreeHost arity"));
    ("cudaMemGetInfo",
     (fun ctx args ->
        match args with
        | [ pfree; ptotal ] ->
          let free, total = Cuda.Cudart.mem_get_info cu in
          store_out ctx pfree (TScalar SizeT) (VInt (Int64.of_int free));
          store_out ctx ptotal (TScalar SizeT) (VInt (Int64.of_int total));
          ok
        | _ -> errf "cudaMemGetInfo arity"));
    ("cudaGetDeviceProperties",
     (fun ctx args ->
        match args with
        | pp :: _ ->
          let prop = Cuda.Cudart.get_device_properties cu in
          let base = ptr_of pp in
          let sp = Value.ptr_space base and off = Value.ptr_offset base in
          let put field v =
            match Layout.field_offset ctx.layout "cudaDeviceProp" field with
            | Some (fo, fty) ->
              Vm.Interp.store ctx sp (off + fo) fty (VInt (Int64.of_int v))
            | None -> ()
          in
          put "major" prop.Cuda.Cudart.major;
          put "minor" prop.Cuda.Cudart.minor;
          put "multiProcessorCount" prop.Cuda.Cudart.multi_processor_count;
          put "totalGlobalMem" prop.Cuda.Cudart.total_global_mem;
          put "sharedMemPerBlock" prop.Cuda.Cudart.shared_mem_per_block;
          put "regsPerBlock" prop.Cuda.Cudart.regs_per_block;
          put "warpSize" prop.Cuda.Cudart.warp_size;
          put "clockRate" prop.Cuda.Cudart.clock_rate_khz;
          put "maxThreadsPerBlock" prop.Cuda.Cudart.max_threads_per_block;
          ok
        | _ -> errf "cudaGetDeviceProperties arity"));
    ("cudaGetDeviceCount",
     (fun ctx args ->
        match args with
        | [ pn ] -> store_out ctx pn (TScalar Int) (VInt 1L); ok
        | _ -> errf "cudaGetDeviceCount arity"));
    ("cudaSetDevice", (fun _ _ -> ok));
    ("cudaGetLastError", (fun _ _ -> ok));
    ("cudaGetErrorString",
     (fun ctx _ -> tv (VInt (string_ptr ctx "no error")) (TPtr (TScalar Char))));
    ("cudaDeviceSynchronize", (fun _ _ -> Cuda.Cudart.device_synchronize cu; ok));
    ("cudaThreadSynchronize", (fun _ _ -> Cuda.Cudart.device_synchronize cu; ok));
    ("cudaDeviceReset", (fun _ _ -> ok));
    (* events *)
    ("cudaEventCreate",
     (fun ctx args ->
        match args with
        | [ pe ] ->
          let e = Cuda.Cudart.event_create cu in
          let id = !next_event in
          incr next_event;
          Hashtbl.replace events id e;
          store_out ctx pe (TNamed "cudaEvent_t") (VInt (Int64.of_int id));
          ok
        | _ -> errf "cudaEventCreate arity"));
    ("cudaEventRecord",
     (fun _ args ->
        match args with
        | e :: _ ->
          Cuda.Cudart.event_record cu (Hashtbl.find events (int_of e));
          ok
        | _ -> errf "cudaEventRecord arity"));
    ("cudaEventSynchronize", (fun _ _ -> ok));
    ("cudaEventDestroy", (fun _ _ -> ok));
    ("cudaEventElapsedTime",
     (fun ctx args ->
        match args with
        | [ pms; e0; e1 ] ->
          let ms =
            Cuda.Cudart.event_elapsed_ms cu
              (Hashtbl.find events (int_of e0))
              (Hashtbl.find events (int_of e1))
          in
          store_out ctx pms (TScalar Float) (VFloat ms);
          ok
        | _ -> errf "cudaEventElapsedTime arity"));
    ("cudaStreamCreate",
     (fun ctx args ->
        match args with
        | [ ps ] -> store_out ctx ps (TNamed "cudaStream_t") (VInt 0L); ok
        | _ -> errf "cudaStreamCreate arity"));
    ("cudaStreamSynchronize", (fun _ _ -> ok));
    (* textures *)
    ("cudaCreateChannelDesc",
     (fun ctx args ->
        ignore args;
        channel_desc_of_scalar ctx Float));
    ("cudaMallocArray",
     (fun ctx args ->
        match args with
        | parr :: desc :: w :: rest ->
          let h = match rest with hh :: _ -> max 1 (int_of hh) | [] -> 1 in
          let sc =
            if Value.to_int desc.v = 0L then Float
            else scalar_of_channel_desc ctx desc
          in
          let a =
            Cuda.Cudart.malloc_array cu ~scalar:sc ~channels:1
              ~width:(int_of w) ~height:h ()
          in
          store_out ctx parr (TPtr (TNamed "cudaArray"))
            (VInt (Int64.of_int a.Cuda.Cudart.a_id));
          ok
        | _ -> errf "cudaMallocArray arity"));
    ("cudaMemcpyToArray",
     (fun _ args ->
        match args with
        | [ arr; _; _; src; bytes; _ ] | [ arr; _; _; src; bytes ] ->
          let a = Cuda.Cudart.array_by_handle cu (int_of arr) in
          Cuda.Cudart.memcpy_to_array cu a ~src:(ptr_of src) ~bytes:(int_of bytes);
          ok
        | _ -> errf "cudaMemcpyToArray arity"));
    ("cudaBindTexture",
     (fun _ args ->
        match args with
        | [ _offset; texh; p; size ] ->
          let tref = Cuda.Cudart.texture_by_handle cu (int_of texh) in
          Cuda.Cudart.bind_texture_ref cu tref ~ptr:(ptr_of p)
            ~bytes:(int_of size) ~elem:tref.Cuda.Cudart.t_scalar;
          ok
        | _ -> errf "cudaBindTexture arity"));
    ("cudaBindTextureToArray",
     (fun _ args ->
        match args with
        | texh :: arr :: _ ->
          let tref = Cuda.Cudart.texture_by_handle cu (int_of texh) in
          let a = Cuda.Cudart.array_by_handle cu (int_of arr) in
          Cuda.Cudart.bind_texture_to_array_ref cu tref a;
          ok
        | _ -> errf "cudaBindTextureToArray arity"));
    ("cudaUnbindTexture",
     (fun _ args ->
        match args with
        | [ texh ] ->
          Cuda.Cudart.unbind_texture_ref cu
            (Cuda.Cudart.texture_by_handle cu (int_of texh));
          ok
        | _ -> errf "cudaUnbindTexture arity"));
    ("cudaFreeArray", (fun _ _ -> ok));
    ("__launches", (fun _ _ -> tint !launches)) ]

(* ------------------------------------------------------------------ *)
(* Launch handler                                                      *)
(* ------------------------------------------------------------------ *)

let launch_handler (cu : Cuda.Cudart.t) (m : Cuda.Cudart.modul) launches =
  fun ctx (c : launch_call) ->
    incr launches;
    let kernel =
      match
        find_function (Gpusim.Exec.program m.Cuda.Cudart.m_code) c.lc_kernel
      with
      | Some f when f.fn_tmpl = [] -> f
      | Some f -> Minic.Specialize.func f c.lc_tmpl
      | None -> errf "launch of unknown kernel %s" c.lc_kernel
    in
    let grid = decode_dim3 ctx c.lc_grid in
    let block = decode_dim3 ctx c.lc_block in
    let shmem = match c.lc_shmem with Some v -> int_of v | None -> 0 in
    let args = List.map (fun a -> Gpusim.Exec.Arg_val a) c.lc_args in
    ignore
      (Cuda.Cudart.launch_kernel cu ~m ~kernel ~grid ~block ~shmem ~args ());
    tunit

(* ------------------------------------------------------------------ *)
(* Entry point                                                         *)
(* ------------------------------------------------------------------ *)

let run ~(dev : Gpusim.Device.t) ~(src : string) : run_result =
  let prog =
    Minic.Site.maybe_annotate
      (Minic.Parser.program ~dialect:Minic.Parser.Cuda src)
  in
  let session = Hostrun.make_session () in
  let cu = Cuda.Cudart.create ~host:session.Hostrun.arena dev in
  let m = Cuda.Cudart.load_module cu prog in
  let launches = ref 0 in
  let arena_of : addr_space -> Memory.arena = function
    | AS_none -> session.Hostrun.arena
    | AS_global -> dev.Gpusim.Device.global
    | AS_constant -> dev.Gpusim.Device.constant
    | AS_local | AS_private -> errf "host code touched device-only memory"
  in
  (* host code sees device symbols (incl. texture handles) *)
  let globals = Hashtbl.copy m.Cuda.Cudart.m_globals in
  let t0 = dev.Gpusim.Device.sim_time_ns in
  let output =
    Hostrun.run_main ~config:dev.Gpusim.Device.config ~session ~prog ~arena_of
      ~externals:(cuda_externals cu ~launches ())
      ~special_ident:Hostrun.host_constants ~globals
      ~launch_handler:(launch_handler cu m launches) ()
  in
  { output;
    time_ns = dev.Gpusim.Device.sim_time_ns -. t0;
    kernel_launches = !launches }
