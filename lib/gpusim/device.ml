(* Simulated device and framework profiles.

   A [hw] profile models the GPU silicon (Table 2's GTX Titan and Radeon
   HD7970).  A [framework] profile models what the paper attributes to
   the *programming framework* on that silicon: the shared-memory
   addressing mode (the paper discovered OpenCL-on-Titan uses the 32-bit
   mode while CUDA uses the 64-bit mode, §6.2/FT) and the native
   compiler's register-allocation appetite (which sets occupancy,
   §6.3/cfd). *)

type hw = {
  hw_name : string;
  vendor : string;
  sm_count : int;                (* SMs / compute units *)
  warp_size : int;               (* warp / wavefront *)
  smem_banks : int;
  max_threads_per_sm : int;
  max_blocks_per_sm : int;
  regs_per_sm : int;
  smem_per_sm : int;             (* bytes *)
  const_mem : int;               (* bytes *)
  global_mem : int;              (* bytes *)
  clock_ghz : float;
  gmem_bw_gbps : float;          (* GB/s *)
  gmem_latency_cycles : float;
  pcie_bw_gbps : float;
  max_image2d : int * int;       (* width, height *)
  max_tex1d_linear : int;        (* CUDA linear 1D texture width, 2^27 *)
}

let titan = {
  hw_name = "NVIDIA GeForce GTX Titan";
  vendor = "NVIDIA";
  sm_count = 14;
  warp_size = 32;
  smem_banks = 32;
  max_threads_per_sm = 2048;
  max_blocks_per_sm = 16;
  regs_per_sm = 65536;
  smem_per_sm = 49152;
  const_mem = 65536;
  global_mem = 6 * 1024 * 1024 * 1024;
  clock_ghz = 0.837;
  gmem_bw_gbps = 288.4;
  gmem_latency_cycles = 400.0;
  pcie_bw_gbps = 8.0;
  max_image2d = (65536, 65535);
  max_tex1d_linear = 1 lsl 27;
}

let hd7970 = {
  hw_name = "AMD Radeon HD7970";
  vendor = "AMD";
  sm_count = 32;
  warp_size = 64;
  smem_banks = 32;
  max_threads_per_sm = 2560;
  max_blocks_per_sm = 16;
  regs_per_sm = 65536;
  smem_per_sm = 65536;
  const_mem = 65536;
  global_mem = 3 * 1024 * 1024 * 1024;
  clock_ghz = 0.925;
  gmem_bw_gbps = 264.0;
  gmem_latency_cycles = 450.0;
  pcie_bw_gbps = 8.0;
  max_image2d = (16384, 16384);
  max_tex1d_linear = 1 lsl 27;
}

type framework = {
  fw_name : string;
  smem_word : int;           (* shared-memory bank word: 4 (32-bit mode)
                                or 8 (64-bit mode) *)
  reg_multiplier : float;    (* native compiler register appetite *)
  cpi : float;               (* instruction scheduling efficiency *)
  api_overhead_ns : float;   (* fixed cost per host API call *)
  launch_overhead_ns : float;
  build_ns_per_byte : float; (* on-line device-code build cost *)
}

(* CUDA on Kepler selects the 64-bit shared addressing mode for CC 3.x;
   NVIDIA's OpenCL runtime leaves the default 32-bit mode (paper §6.2). *)
let cuda_on_nvidia = {
  fw_name = "CUDA";
  smem_word = 8;
  reg_multiplier = 1.10;
  cpi = 1.0;
  api_overhead_ns = 700.0;
  launch_overhead_ns = 2500.0;
  build_ns_per_byte = 0.0;
}

let opencl_on_nvidia = {
  fw_name = "OpenCL/NVIDIA";
  smem_word = 4;
  reg_multiplier = 1.0;
  cpi = 1.02;
  api_overhead_ns = 760.0;
  launch_overhead_ns = 2600.0;
  build_ns_per_byte = 2500.0;
}

let opencl_on_amd = {
  fw_name = "OpenCL/AMD";
  smem_word = 4;
  reg_multiplier = 0.92;
  cpi = 1.08;
  api_overhead_ns = 1000.0;
  launch_overhead_ns = 3600.0;
  build_ns_per_byte = 3000.0;
}

(* A live device: profile + engine configuration + memory arenas +
   loaded symbols.  The host APIs allocate buffers in [global] and keep
   device-global symbols in [symbols] so cudaMemcpyToSymbol can reach
   them. *)
type t = {
  hw : hw;
  fw : framework;
  config : Config.t;                  (* how builds and launches run *)
  global : Vm.Memory.arena;
  constant : Vm.Memory.arena;
  symbols : (string, Vm.Interp.binding) Hashtbl.t;
  mutable alloc_bytes : int;          (* live cudaMalloc/clCreateBuffer *)
  mutable sim_time_ns : float;        (* accumulated simulated time *)
  (* ablation switches for the A1/A2 experiments *)
  mutable model_bank_conflicts : bool;
  mutable model_occupancy : bool;
}

let create ?(config = Config.default ()) hw fw =
  { hw; fw; config;
    global = Vm.Memory.create ~initial:(1 lsl 20) "global";
    constant = Vm.Memory.create ~initial:65536 "constant";
    symbols = Hashtbl.create 17;
    alloc_bytes = 0;
    sim_time_ns = 0.0;
    model_bank_conflicts = true;
    model_occupancy = true }

let add_time dev ns = dev.sim_time_ns <- dev.sim_time_ns +. ns

let api_call dev = add_time dev dev.fw.api_overhead_ns

(* cheap entry points (clSetKernelArg and friends) only store a value *)
let api_call_light dev = add_time dev 60.0

(* Host<->device transfer cost over PCIe: GB/s is bytes/ns, so
   bytes / (GB/s) yields nanoseconds; 10us fixed DMA setup latency. *)
let memcpy_time_ns dev bytes =
  5_000.0 +. (float_of_int bytes /. dev.hw.pcie_bw_gbps)
