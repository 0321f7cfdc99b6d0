(* Run an original CUDA application natively: device code is loaded as a
   module on the simulated device, host code runs (see Hostrun.run) with
   the shared cuda* calls bound (Cuda_api) to the simulated CUDA runtime,
   and <<<...>>> kernel calls go through the launch handler (this is the
   "original CUDA on Titan" configuration of Figures 7 and 8). *)

open Minic.Ast
open Vm.Interp
module C = Cuda.Cudart

(* The runtime behind the shared binding: the simulated CUDA runtime. *)
module Runtime = struct
  type t = C.t
  type event = C.event
  type array = C.cuda_array
  type texref = C.texture_ref

  let malloc = C.malloc
  let free = C.free
  let memcpy = C.memcpy
  let memset = C.memset
  let host_alloc = C.malloc
  let free_host = C.free
  let mem_get_info = C.mem_get_info

  let device_properties cu =
    let p = C.get_device_properties cu in
    List.map
      (fun (field, v) -> (field, Int64.of_int v))
      [ ("major", p.C.major);
        ("minor", p.C.minor);
        ("multiProcessorCount", p.C.multi_processor_count);
        ("totalGlobalMem", p.C.total_global_mem);
        ("sharedMemPerBlock", p.C.shared_mem_per_block);
        ("regsPerBlock", p.C.regs_per_block);
        ("warpSize", p.C.warp_size);
        ("clockRate", p.C.clock_rate_khz);
        ("maxThreadsPerBlock", p.C.max_threads_per_block) ]

  let synchronize = C.device_synchronize
  let event_create = C.event_create
  let event_record = C.event_record
  let event_elapsed_ms = C.event_elapsed_ms

  let malloc_array cu scalar ~width ~height =
    (C.malloc_array cu ~scalar ~channels:1 ~width ~height ()).C.a_id

  let array cu id = Hashtbl.find_opt cu.C.arrays id
  let memcpy_to_array = C.memcpy_to_array

  (* host code holds a texture reference as its runtime handle *)
  let texture cu _ h = C.texture_by_handle cu (Cuda_api.int_of h)

  let bind_texture cu tref ~ptr ~bytes =
    C.bind_texture_ref cu tref ~ptr ~bytes ~elem:tref.C.t_scalar

  let bind_texture_to_array = C.bind_texture_to_array_ref
  let unbind_texture = C.unbind_texture_ref
end

module Binding = Cuda_api.Make (Runtime)

(* cudaMemcpy{To,From}Symbol: the first argument evaluated to the
   symbol's device address *)
let symbol_externals cu =
  let open Cuda_api in
  let at sym rest =
    let offset = match rest with o :: _ -> int_of o | [] -> 0 in
    Int64.add (ptr_of sym) (Int64.of_int offset)
  in
  checked
    [ ("cudaMemcpyToSymbol",
       fun _ -> function
         | sym :: src :: n :: rest ->
           C.memcpy cu ~dst:(at sym rest) ~src:(ptr_of src) ~bytes:(int_of n);
           tint 0
         | _ -> raise Arity);
      ("cudaMemcpyFromSymbol",
       fun _ -> function
         | dst :: sym :: n :: rest ->
           C.memcpy cu ~dst:(ptr_of dst) ~src:(at sym rest) ~bytes:(int_of n);
           tint 0
         | _ -> raise Arity) ]

let launch_handler cu (m : C.modul) ctx (c : launch_call) =
  let kernel =
    match find_function (Gpusim.Exec.program m.C.m_code) c.lc_kernel with
    | Some f when f.fn_tmpl = [] -> f
    | Some f -> Minic.Specialize.func f c.lc_tmpl
    | None -> raise (Hostrun.Host_error ("launch of unknown kernel " ^ c.lc_kernel))
  in
  let grid = Cuda_api.decode_dim3 ctx c.lc_grid in
  let block = Cuda_api.decode_dim3 ctx c.lc_block in
  let shmem = match c.lc_shmem with Some v -> Cuda_api.int_of v | None -> 0 in
  let args = List.map (fun a -> Gpusim.Exec.Arg_val a) c.lc_args in
  ignore (C.launch_kernel cu ~m ~kernel ~grid ~block ~shmem ~args ());
  tunit

let run ~(dev : Gpusim.Device.t) ~(src : string) : Hostrun.run =
  let prog = Minic.Parser.program ~dialect:Minic.Parser.Cuda src in
  let prog =
    if dev.Gpusim.Device.config.attribute then Minic.Site.annotate prog else prog
  in
  let session = Hostrun.make_session () in
  let cu = C.create ~host:session.Hostrun.arena dev in
  let m = C.load_module cu prog in
  (* host code sees device symbols (incl. texture handles) *)
  Hostrun.run ~dev ~session ~prog
    ~externals:(Binding.externals cu @ symbol_externals cu)
    ~globals:(Hashtbl.copy m.C.m_globals) ~launch_handler:(launch_handler cu m) ()
