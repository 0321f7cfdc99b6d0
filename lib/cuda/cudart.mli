(** Simulated CUDA runtime API (cudaMalloc, cudaMemcpy, symbols,
    textures, events) and driver API (cuModuleLoad / cuLaunchKernel)
    over the Gpusim device.

    This is the "native CUDA framework" the original CUDA applications
    run against, and the target of the OpenCL-to-CUDA wrapper library,
    whose cl* entry points are implemented with the driver API (paper
    Fig. 2 and Fig. 4(d)). *)

exception Cuda_error of string

(** {2 Textures} *)

type cuda_array = {
  a_id : int;
  a_addr : int;          (** backing storage in the global arena *)
  a_width : int;
  a_height : int;
  a_depth : int;
  a_elem_scalar : Minic.Ast.scalar;
  a_channels : int;
}

type linear_binding = {
  l_addr : int;
  l_bytes : int;
  l_elem : Minic.Ast.scalar;
}

type tex_binding =
  | B_unbound
  | B_linear of linear_binding  (** cudaBindTexture on device memory *)
  | B_array of cuda_array       (** cudaBindTextureToArray *)

type texture_ref = {
  t_name : string;
  t_scalar : Minic.Ast.scalar;
  t_dim : int;
  t_mode : Minic.Ast.read_mode;
  mutable t_bound : tex_binding;
}

(** {2 State} *)

(** A loaded module: the device program with its compiled kernels, plus
    its materialised global symbols (the analogue of a cuModuleLoad'ed
    PTX image). *)
type modul = {
  m_code : Gpusim.Exec.modul;
  m_globals : (string, Vm.Interp.binding) Hashtbl.t;
}

type event = { mutable ev_time : float }

type t = {
  dev : Gpusim.Device.t;
  host : Vm.Memory.arena;
  textures : (int, texture_ref) Hashtbl.t;   (** runtime handle -> ref *)
  tex_by_name : (string, texture_ref) Hashtbl.t;
  arrays : (int, cuda_array) Hashtbl.t;
  mutable next_id : int;
  mutable allocs : (int64 * int) list;
}

val create : ?host:Vm.Memory.arena -> Gpusim.Device.t -> t

(** {2 Module loading} *)

(** Materialise a CUDA module: [__device__]/[__constant__] globals are
    allocated in the device arenas and recorded as symbols so
    cudaMemcpyToSymbol reaches them; texture references get runtime
    handles stored in their global slot. *)
val load_module : t -> Minic.Ast.program -> modul

(** cuModuleGetFunction: only [__global__] functions are launchable. *)
val module_get_function : modul -> string -> Minic.Ast.func

(** {2 Memory management} *)

(** cudaMalloc: returns an encoded device pointer. *)
val malloc : t -> int -> int64

val free : t -> int64 -> unit

(** cudaMemcpy: direction is implied by the encoded pointer spaces. *)
val memcpy : t -> dst:int64 -> src:int64 -> bytes:int -> unit

val memset : t -> dst:int64 -> byte:int -> bytes:int -> unit

val find_symbol : t -> string -> Vm.Interp.binding

(** cudaMemcpy{To,From}Symbol (§4.2, §4.3): two of the three constructs
    that cannot become wrappers in CUDA-to-OpenCL translation. *)

val memcpy_to_symbol :
  t -> string -> src:int64 -> bytes:int -> ?offset:int -> unit -> unit
val memcpy_from_symbol :
  t -> string -> dst:int64 -> bytes:int -> ?offset:int -> unit -> unit

(** cudaMemGetInfo: (free, total) — the call with no OpenCL counterpart
    that dooms nn and mummergpu (§3.7). *)
val mem_get_info : t -> int * int

(** {2 Arrays and texture binding} *)

val malloc_array :
  t -> scalar:Minic.Ast.scalar -> channels:int -> width:int -> ?height:int ->
  ?depth:int -> unit -> cuda_array

val memcpy_to_array : t -> cuda_array -> src:int64 -> bytes:int -> unit

val texture_by_name : t -> string -> texture_ref
val texture_by_handle : t -> int -> texture_ref
val array_by_handle : t -> int -> cuda_array

(** Binding a linear 1D texture enforces the 2^27-texel CUDA limit. *)

val bind_texture_ref :
  t -> texture_ref -> ptr:int64 -> bytes:int -> elem:Minic.Ast.scalar -> unit
val bind_texture :
  t -> string -> ptr:int64 -> bytes:int -> elem:Minic.Ast.scalar -> unit
val bind_texture_to_array_ref : t -> texture_ref -> cuda_array -> unit
val unbind_texture_ref : t -> texture_ref -> unit

(** The tex1Dfetch/tex1D/tex2D/tex3D kernel built-ins, resolving texture
    handles against this runtime's registry. *)
val texture_externals :
  t -> (string * (Vm.Interp.ctx -> Vm.Interp.tval list -> Vm.Interp.tval)) list

(** {2 Kernel launch} *)

(** cuLaunchKernel: a CUDA grid counts blocks; this converts to the
    execution engine's work-item convention (Fig. 1's gotcha). *)
val launch_kernel :
  t -> m:modul -> kernel:Minic.Ast.func -> grid:int * int * int ->
  block:int * int * int -> ?shmem:int ->
  ?extra_externals:(string * (Vm.Interp.ctx -> Vm.Interp.tval list -> Vm.Interp.tval)) list ->
  args:Gpusim.Exec.karg list -> unit -> Gpusim.Exec.launch_stats

(** {2 Device management, events, properties} *)

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

(** One API call natively — the wrapper in the other direction fans out
    into one clGetDeviceInfo per field (Figure 8's deviceQuery). *)
val get_device_properties : t -> device_prop

val device_synchronize : t -> unit

val event_create : t -> event
val event_record : t -> event -> unit
val event_elapsed_ms : t -> event -> event -> float
