(* Launch plans: one kernel launch as data, carried across the
   translators and run on a fresh simulated device.  A plan holds its
   program as a loaded module, so all of its launches share one compile
   per pass set.

   The fuzz pyramid and the layered validator both synthesize launches
   from kernel signatures; this module is the one place that builds a
   plan, maps it through either translation direction (paper Fig. 5 for
   OpenCL->CUDA, the trailing shared pool for CUDA->OpenCL) and
   executes it.  Each caller passes its own buffer fill: stored fuzz
   repros regenerate their bytes from the fuzzer's stream, and the
   validator's suite verdicts rest on its own. *)

open Minic.Ast

type arg =
  | Buf of ty * string  (* global buffer: element type, initial bytes *)
  | Local of int        (* dynamic __local, bytes *)
  | Int of int
  | Size of int         (* size_t scalar *)

type t = {
  modul : Gpusim.Exec.modul;
  kernel : string;
  args : arg list;
  dyn_shared : int;     (* CUDA <<< , , n >>> bytes *)
}

let prog p = Gpusim.Exec.program p.modul

let sizeof prog ty = Vm.Layout.sizeof (Vm.Layout.make_env prog) ty

(* A plan for kernel [k] of [prog]: each global buffer holds [elems]
   elements filled in parameter order by [fill], each dynamic __local
   holds [lws] elements, and every scalar is [scalar].  Errors name the
   parameter shapes no synthesized launch can drive. *)
let of_kernel (prog : program) (k : func) ~lws ~elems ~scalar
    ~(fill : ty -> Bytes.t -> unit) : (t, string) result =
  let rec args acc = function
    | [] ->
      Ok { modul = Gpusim.Exec.load prog; kernel = k.fn_name;
           args = List.rev acc; dyn_shared = 0 }
    | (pa : param) :: rest ->
      (match unqual pa.pa_ty with
       | TPtr t | TArr (t, _) ->
         (* the parser nests the address space inside the pointee:
            [__global int *p] is [TPtr (TQual (AS_global, int))] with
            [pa_space = AS_none] *)
         let space =
           match pa.pa_space, type_space t with
           | AS_none, sp -> sp
           | sp, _ -> sp
         in
         let elt = unqual t in
         (match space, elt with
          | AS_local, _ -> args (Local (lws * sizeof prog elt) :: acc) rest
          | AS_constant, _ -> Error "dynamic __constant parameter"
          | _, (TImage _ | TTexture _ | TSampler) ->
            Error "image/texture parameter"
          | _ ->
            let b = Bytes.create (elems * sizeof prog elt) in
            fill elt b;
            args (Buf (elt, Bytes.unsafe_to_string b) :: acc) rest)
       | TImage _ | TTexture _ | TSampler -> Error "image/texture parameter"
       | TScalar SizeT -> args (Size scalar :: acc) rest
       | TVec _ -> Error "vector-typed scalar parameter"
       | TNamed _ as ty
         when Vm.Layout.is_struct (Vm.Layout.make_env prog) ty ->
         Error "struct-typed parameter"
       | _ -> args (Int scalar :: acc) rest)
  in
  args [] k.fn_params

(* OpenCL->CUDA (Fig. 5): a dynamic __local slot became a size_t
   parameter, and its bytes move into the dynamic-shared allocation. *)
let to_cuda (p : t) (prog : program) (info : Xlat.Ocl_to_cuda.kernel_info) :
  t =
  let dyn = ref 0 in
  let args =
    List.map2
      (fun role arg ->
         match role, arg with
         | (Xlat.Ocl_to_cuda.P_local_size | Xlat.Ocl_to_cuda.P_const_size),
           Local bytes ->
           dyn := !dyn + bytes;
           Size bytes
         | _, a -> a)
      info.Xlat.Ocl_to_cuda.ki_roles p.args
  in
  { p with modul = Gpusim.Exec.load prog; args; dyn_shared = !dyn }

(* CUDA->OpenCL: the kernel keeps its parameters and appends the
   dynamic-shared pool as a trailing __local parameter.  The translator
   also appends device-symbol and texture parameters; kernels with those
   cannot be carried. *)
let to_opencl (p : t) (prog : program) (km : Xlat.Cuda_to_ocl.kmeta) : t =
  let pool =
    match km.Xlat.Cuda_to_ocl.km_dynshared with
    | Some _ -> [ Local p.dyn_shared ]
    | None -> []
  in
  { p with modul = Gpusim.Exec.load prog; args = p.args @ pool;
           dyn_shared = 0 }

(* Launch [p] over a 1-D NDRange on a fresh device configured by
   [config], with file-scope __constant/__device__ globals set up as the
   runtimes do.  Returns the launch statistics and each buffer's final
   bytes, in argument order. *)
let run ?config ?observer ?(extra_externals = []) ~gws ~lws (p : t) :
  Gpusim.Exec.launch_stats * string list =
  let dev =
    Gpusim.Device.create ?config Gpusim.Device.titan
      Gpusim.Device.opencl_on_nvidia
  in
  let prog = prog p in
  let global = dev.Gpusim.Device.global in
  let host = Vm.Memory.create "validate-host" in
  let globals = Hashtbl.create 8 in
  let arena_of = function
    | AS_global -> global
    | AS_constant -> dev.Gpusim.Device.constant
    | AS_local | AS_private | AS_none -> host
  in
  Vm.Interp.init_globals
    (Vm.Interp.make ~prog ~arena_of ~globals ())
    ~filter:(fun d ->
        not (d.d_storage.s_extern && type_space d.d_ty = AS_local))
    prog;
  let bufs = ref [] in
  let args =
    List.map
      (function
        | Buf (elt, init) ->
          let addr = Vm.Memory.alloc global ~align:256 (String.length init) in
          Vm.Memory.store_bytes global addr (Bytes.unsafe_of_string init);
          bufs := (addr, String.length init) :: !bufs;
          Gpusim.Exec.Arg_val
            (Vm.Interp.tv
               (Vm.Value.VInt (Vm.Value.make_ptr AS_global addr))
               (TPtr elt))
        | Local bytes -> Gpusim.Exec.Arg_local bytes
        | Int n -> Gpusim.Exec.Arg_val (Vm.Interp.tint n)
        | Size n ->
          Gpusim.Exec.Arg_val
            (Vm.Interp.tv (Vm.Value.VInt (Int64.of_int n)) (TScalar SizeT)))
      p.args
  in
  let kernel =
    match find_function prog p.kernel with
    | Some k -> k
    | None -> failwith ("plan: kernel not found: " ^ p.kernel)
  in
  let stats =
    Gpusim.Exec.launch ~dev ~modul:p.modul ~globals ~host_arena:host
      ~extra_externals ?observer ~kernel
      ~cfg:
        { global_size = [| gws; 1; 1 |];
          local_size = [| lws; 1; 1 |];
          dyn_shared = p.dyn_shared }
      ~args ()
  in
  ( stats,
    List.rev_map
      (fun (addr, size) ->
         Bytes.to_string (Vm.Memory.load_bytes global addr size))
      !bufs )
