(** Simulated device and framework profiles.

    A {!hw} profile models the GPU silicon (Table 2's GTX Titan and
    Radeon HD7970).  A {!framework} profile models what the paper
    attributes to the {e programming framework} on that silicon: the
    shared-memory addressing mode (the paper discovered OpenCL-on-Titan
    uses the 32-bit mode while CUDA uses the 64-bit mode, §6.2) and the
    native compiler's register-allocation appetite (which sets occupancy,
    §6.3). *)

type hw = {
  hw_name : string;
  vendor : string;
  sm_count : int;              (** SMs / compute units *)
  warp_size : int;             (** warp / wavefront width *)
  smem_banks : int;
  max_threads_per_sm : int;
  max_blocks_per_sm : int;
  regs_per_sm : int;
  smem_per_sm : int;           (** bytes *)
  const_mem : int;             (** bytes *)
  global_mem : int;            (** bytes *)
  clock_ghz : float;
  gmem_bw_gbps : float;
  gmem_latency_cycles : float;
  pcie_bw_gbps : float;
  max_image2d : int * int;     (** max width, height of a 2D image *)
  max_tex1d_linear : int;      (** CUDA linear 1D texture width (2^27) *)
}

val titan : hw
val hd7970 : hw

type framework = {
  fw_name : string;
  smem_word : int;             (** bank word: 4 = 32-bit mode, 8 = 64-bit *)
  reg_multiplier : float;      (** native compiler register appetite *)
  cpi : float;                 (** instruction scheduling efficiency *)
  api_overhead_ns : float;     (** fixed cost per host API call *)
  launch_overhead_ns : float;
  build_ns_per_byte : float;   (** on-line device-code build cost *)
}

val cuda_on_nvidia : framework
val opencl_on_nvidia : framework
val opencl_on_amd : framework

(** A live device: profiles, engine configuration, memory arenas, loaded
    symbols, accumulated simulated time, and the ablation switches of
    experiments A1/A2. *)
type t = {
  hw : hw;
  fw : framework;
  config : Config.t;           (** backend, engine, domains and passes of
                                   every launch on this device, and
                                   whether its builds annotate sites *)
  global : Vm.Memory.arena;
  constant : Vm.Memory.arena;
  symbols : (string, Vm.Interp.binding) Hashtbl.t;
      (** device-global symbols, for cudaMemcpyToSymbol and textures *)
  mutable alloc_bytes : int;   (** live cudaMalloc/clCreateBuffer bytes *)
  mutable sim_time_ns : float;
  mutable model_bank_conflicts : bool;
  mutable model_occupancy : bool;
}

(** [config] defaults to {!Config.default}[ ()]. *)
val create : ?config:Config.t -> hw -> framework -> t

val add_time : t -> float -> unit

(** Charge one host API round trip. *)
val api_call : t -> unit

(** Charge a cheap entry point (clSetKernelArg and friends). *)
val api_call_light : t -> unit

(** Host<->device transfer cost: DMA setup latency plus PCIe bandwidth. *)
val memcpy_time_ns : t -> int -> float
