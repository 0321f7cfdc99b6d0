(* NDRange / grid execution engine.

   Work-items of a group are coroutines multiplexed on one OCaml fibre
   each: an item runs until it finishes or performs the [Barrier]
   effect, at which point the scheduler parks its continuation and runs
   the next item.  When every live item of the group has reached the
   barrier, all are resumed -- faithful bulk-synchronous semantics
   including values communicated through __local/__shared__ memory.

   Work-groups run sequentially by default.  With [domains] > 1 (env
   OCLCU_DOMAINS, `oclcu run --domains N`) a persistent domain pool
   executes blocks concurrently, optimistically: every access a block
   makes to a shared address space is logged (Conflict), shared arenas
   are snapshotted and frozen, and simulated global atomics take a real
   mutex.  After the join the logs are checked for cross-block
   dependences; if any exist -- or any block faulted, allocated in a
   frozen arena, etc. -- the attempt is rolled back and the launch
   replays sequentially.  Either way the observable result (memory,
   Counters.t, traces, exceptions) is the sequential one, which the
   fuzzer's parallel stage and test_parallel verify. *)

open Minic.Ast
open Vm.Value

exception Launch_error of string

type karg =
  | Arg_val of Vm.Interp.tval          (* scalar / pointer argument *)
  | Arg_local of int                   (* OpenCL dynamic __local, bytes *)

type config = {
  global_size : int array;             (* 3 entries; OpenCL convention *)
  local_size : int array;              (* 3 entries *)
  dyn_shared : int;                    (* CUDA <<< , , n >>> bytes *)
}

let dim3_of arr i = if i < Array.length arr then max 1 arr.(i) else 1

(* indices must NOT be clamped like sizes: dimension 0 has index 0 *)
let idx_of arr i = if i >= 0 && i < Array.length arr then arr.(i) else 0

(* What a launch actually did; observability for the determinism tests
   (a directed case can assert that it exercised the concurrent path
   rather than silently replaying). *)
type parallel_outcome =
  | Seq                  (* sequential engine: 1 domain or 1 block *)
  | Parallel of int      (* ran concurrently on N workers, accepted *)
  | Replayed of string   (* parallel attempt rolled back: why *)

(* Structured pool telemetry for one launch: how the domain pool divided
   the blocks.  [worker_blocks.(i)] is the number of blocks worker [i]
   executed — length 1 on the sequential engine; on a rolled-back
   attempt it reports the aborted parallel distribution (the replay
   cause is in [outcome]). *)
type pool_stats = {
  outcome : parallel_outcome;
  worker_blocks : int array;
}

(* Execution engine within a block: per-item coroutines (scalar), or
   whole warps in lockstep over the IR (Gpusim.Lockstep) with a scalar
   fallback for ineligible kernels. *)
type engine = Scalar | Lockstep

let engine_of_string = function
  | "scalar" | "item" -> Some Scalar
  | "lockstep" | "warp" -> Some Lockstep
  | _ -> None

let engine =
  ref
    (match Sys.getenv_opt "OCLCU_ENGINE" with
     | Some s ->
       (match engine_of_string (String.trim s) with
        | Some e -> e
        | None -> Scalar)
     | None -> Scalar)

(* What the engine selection actually did for one launch; observability
   for the differential tests (assert the lockstep path really ran) and
   the bench eligibility report. *)
type engine_outcome =
  | Engine_scalar              (* scalar engine selected *)
  | Engine_lockstep            (* warps ran in lockstep, accepted *)
  | Engine_fallback of string  (* kernel ineligible: why; scalar ran *)
  | Engine_bailed of string    (* lockstep aborted mid-launch: why;
                                  rolled back and rerun scalar *)

(* Result of one launch: raw event counters plus launch geometry. *)
type launch_stats = {
  counters : Counters.t;
  attr : Attr.t option;        (* per-site attribution when [attribute] *)
  block_threads : int;
  n_blocks : int;
  occupancy : Occupancy.result;
  pool : pool_stats;
  engine : engine_outcome;
}

(* ------------------------------------------------------------------ *)
(* Domain-parallel configuration                                       *)
(* ------------------------------------------------------------------ *)

(* Worker domains per launch; blocks are distributed over them.  1 is
   the plain sequential engine.  Defaults to the machine's core count. *)
let domains =
  ref
    (match Sys.getenv_opt "OCLCU_DOMAINS" with
     | Some s ->
       (match int_of_string_opt (String.trim s) with
        | Some n when n >= 1 -> n
        | _ -> Domain.recommended_domain_count ())
     | None -> Domain.recommended_domain_count ())

(* Per-site attribution (`oclcu prof --attribute`): when on, every
   counted event is charged to the Minic.Site of the statement that
   caused it, and per-item branch decisions are recorded for the
   warp-divergence counter.  Off by default — the extra stream pushes
   cost real time on the hot path.  Initialised from OCLCU_ATTRIBUTE=1. *)
let attribute = ref (Sys.getenv_opt "OCLCU_ATTRIBUTE" = Some "1")

(* Opt-in per-block Kernel spans (OCLCU_TRACE_BLOCKS=1): buffered per
   domain and flushed in block order, so the trace is identical at every
   domain count.  Off by default -- `oclcu prof` output stays
   bit-identical to the historical golden files. *)
let trace_blocks = ref (Sys.getenv_opt "OCLCU_TRACE_BLOCKS" = Some "1")

(* The process-wide worker pool, spawned on first parallel launch. *)
let pool = lazy (Pool.create ())

(* One lock stands in for the memory controller's atomic unit: under
   real concurrency a simulated RMW on shared memory must itself be
   atomic, whatever interleaving the domains produce. *)
let atomics_lock = Mutex.create ()

(* ------------------------------------------------------------------ *)
(* Atomics                                                             *)
(* ------------------------------------------------------------------ *)

let atomic_resolve ctx (p : Vm.Interp.tval) =
  let ptr = Vm.Value.to_int p.Vm.Interp.v in
  let space = Vm.Value.ptr_space ptr in
  let addr = Vm.Value.ptr_offset ptr in
  let elt =
    match Vm.Layout.resolve ctx.Vm.Interp.layout p.Vm.Interp.ty with
    | TPtr t | TArr (t, _) -> t
    | _ -> TScalar Int
  in
  (space, addr, elt)

let atomic_apply ctx space addr elt f =
  let old = Vm.Interp.load ctx space addr elt in
  let nv = f (Vm.Interp.tv old elt) in
  Vm.Interp.store ctx space addr elt nv.Vm.Interp.v;
  Vm.Interp.tv old elt

(* Sequential read-modify-write: items are sequentialised so plain
   load/store is atomic.  The commutativity class is unused here; the
   parallel engine substitutes its own locked, logged implementation. *)
let atomic_rmw _klass ctx (p : Vm.Interp.tval) f =
  let space, addr, elt = atomic_resolve ctx p in
  atomic_apply ctx space addr elt f

let barrier_ext _ctx _args =
  Effect.perform (Vm.Interp.Barrier Vm.Interp.Barrier_local);
  Vm.Interp.tunit

(* Built-ins available in every kernel, both dialects.  Index functions
   read the mutable [cur] cell owned by the scheduler; atomics go
   through [rmw], which carries the op's commutativity class so the
   parallel engine can log it. *)
type cur = {
  gid : int array;             (* written in place on every switch *)
  mutable lid : int array;
  mutable grp : int array;
}

let kernel_externals ~(cur : cur) ~rmw () =
  let open Vm.Interp in
  let int_of_arg args =
    match args with
    | a :: _ -> Int64.to_int (Vm.Value.to_int a.v)
    | [] -> 0
  in
  let idx_fn sel = fun _ctx args -> tint (sel (int_of_arg args)) in
  [ (* OpenCL work-item functions *)
    ("get_global_id", idx_fn (fun d -> idx_of cur.gid d));
    ("get_local_id", idx_fn (fun d -> idx_of cur.lid d));
    ("get_group_id", idx_fn (fun d -> idx_of cur.grp d));
    ("get_work_dim", (fun _ _ -> tint 3));
    (* barriers and fences *)
    ("barrier", barrier_ext);
    ("__syncthreads", barrier_ext);
    ("mem_fence", (fun _ _ -> tunit));
    ("read_mem_fence", (fun _ _ -> tunit));
    ("write_mem_fence", (fun _ _ -> tunit));
    ("__threadfence", (fun _ _ -> tunit));
    ("__threadfence_block", (fun _ _ -> tunit));
    ("__syncwarp", (fun _ _ -> tunit));
    (* OpenCL atomics: atomic_inc/dec take only the pointer (§3.7) *)
    ("atomic_add",
     (fun ctx args ->
        match args with
        | [ p; v ] ->
          rmw Conflict.Kadd ctx p (fun old -> Vm.Interp.binop ctx Add old v)
        | _ -> raise (Launch_error "atomic_add arity")));
    ("atomic_sub",
     (fun ctx args ->
        match args with
        | [ p; v ] ->
          rmw Conflict.Kadd ctx p (fun old -> Vm.Interp.binop ctx Sub old v)
        | _ -> raise (Launch_error "atomic_sub arity")));
    ("atomic_inc",
     (fun ctx args ->
        match args with
        | [ p ] ->
          rmw Conflict.Kadd ctx p (fun old ->
              Vm.Interp.binop ctx Add old (tint 1))
        | _ -> raise (Launch_error "atomic_inc arity")));
    ("atomic_dec",
     (fun ctx args ->
        match args with
        | [ p ] ->
          rmw Conflict.Kadd ctx p (fun old ->
              Vm.Interp.binop ctx Sub old (tint 1))
        | _ -> raise (Launch_error "atomic_dec arity")));
    ("atomic_min",
     (fun ctx args ->
        match args with
        | [ p; v ] ->
          rmw Conflict.Kmin ctx p (fun old ->
              if Vm.Value.to_bool (Vm.Interp.binop ctx Lt old v).v then old else v)
        | _ -> raise (Launch_error "atomic_min arity")));
    ("atomic_max",
     (fun ctx args ->
        match args with
        | [ p; v ] ->
          rmw Conflict.Kmax ctx p (fun old ->
              if Vm.Value.to_bool (Vm.Interp.binop ctx Gt old v).v then old else v)
        | _ -> raise (Launch_error "atomic_max arity")));
    ("atomic_xchg",
     (fun ctx args ->
        match args with
        | [ p; v ] -> rmw Conflict.Kother ctx p (fun _ -> v)
        | _ -> raise (Launch_error "atomic_xchg arity")));
    ("atomic_cmpxchg",
     (fun ctx args ->
        match args with
        | [ p; cmp; v ] ->
          rmw Conflict.Kother ctx p (fun old ->
              if Vm.Value.to_int old.v = Vm.Value.to_int cmp.v then v else old)
        | _ -> raise (Launch_error "atomic_cmpxchg arity")));
    (* CUDA atomics; atomicInc wraps at the bound (§3.7) *)
    ("atomicAdd",
     (fun ctx args ->
        match args with
        | [ p; v ] ->
          rmw Conflict.Kadd ctx p (fun old -> Vm.Interp.binop ctx Add old v)
        | _ -> raise (Launch_error "atomicAdd arity")));
    ("atomicSub",
     (fun ctx args ->
        match args with
        | [ p; v ] ->
          rmw Conflict.Kadd ctx p (fun old -> Vm.Interp.binop ctx Sub old v)
        | _ -> raise (Launch_error "atomicSub arity")));
    ("atomicMin",
     (fun ctx args ->
        match args with
        | [ p; v ] ->
          rmw Conflict.Kmin ctx p (fun old ->
              if Vm.Value.to_bool (Vm.Interp.binop ctx Lt old v).v then old else v)
        | _ -> raise (Launch_error "atomicMin arity")));
    ("atomicMax",
     (fun ctx args ->
        match args with
        | [ p; v ] ->
          rmw Conflict.Kmax ctx p (fun old ->
              if Vm.Value.to_bool (Vm.Interp.binop ctx Gt old v).v then old else v)
        | _ -> raise (Launch_error "atomicMax arity")));
    ("atomicExch",
     (fun ctx args ->
        match args with
        | [ p; v ] -> rmw Conflict.Kother ctx p (fun _ -> v)
        | _ -> raise (Launch_error "atomicExch arity")));
    ("atomicCAS",
     (fun ctx args ->
        match args with
        | [ p; cmp; v ] ->
          rmw Conflict.Kother ctx p (fun old ->
              if Vm.Value.to_int old.v = Vm.Value.to_int cmp.v then v else old)
        | _ -> raise (Launch_error "atomicCAS arity")));
    ("atomicInc",
     (fun ctx args ->
        match args with
        | [ p; bound ] ->
          (* the hardware operates on 32-bit unsigned values: a
             sign-extended load of a negative int cell must not compare
             above the bound *)
          let u32 v = Int64.logand (Vm.Value.to_int v) 0xFFFFFFFFL in
          rmw (Conflict.Kinc (u32 bound.v)) ctx p (fun old ->
              let o = u32 old.v and b = u32 bound.v in
              if Int64.compare o b >= 0 then tint 0
              else tv (VInt (Int64.add o 1L)) old.ty)
        | _ -> raise (Launch_error "atomicInc arity")));
    ("atomicDec",
     (fun ctx args ->
        match args with
        | [ p; bound ] ->
          let u32 v = Int64.logand (Vm.Value.to_int v) 0xFFFFFFFFL in
          rmw (Conflict.Kdec (u32 bound.v)) ctx p (fun old ->
              let o = u32 old.v and b = u32 bound.v in
              if o = 0L || Int64.compare o b > 0 then
                tv (VInt b) old.ty
              else tv (VInt (Int64.sub o 1L)) old.ty)
        | _ -> raise (Launch_error "atomicDec arity")));
    (* misc *)
    ("printf", (fun _ _ -> tint 0));
  ]

let uint3 a =
  Vm.Interp.tv
    (VVec [| VInt (Int64.of_int a.(0)); VInt (Int64.of_int a.(1));
             VInt (Int64.of_int a.(2)) |])
    (TVec (UInt, 3))

(* ------------------------------------------------------------------ *)
(* Backend selection: closure-compiled VM (default) vs tree-walking    *)
(* interpreter (OCLCU_BACKEND=interp, for differential testing)        *)
(* ------------------------------------------------------------------ *)

type backend = Interp | Compiled

let backend_of_string = function
  | "interp" | "interpreter" -> Some Interp
  | "compiled" | "compile" | "closure" -> Some Compiled
  | _ -> None

let backend =
  ref
    (match Sys.getenv_opt "OCLCU_BACKEND" with
     | Some s -> (match backend_of_string s with Some b -> b | None -> Compiled)
     | None -> Compiled)

(* Types of the launcher-provided rvalue specials, for compile-time
   member resolution; must list the same names as [special_ident]. *)
let special_ty = function
  | "threadIdx" | "blockIdx" | "blockDim" | "gridDim" ->
    Some (TVec (UInt, 3))
  | "warpSize" | "CLK_LOCAL_MEM_FENCE" | "CLK_GLOBAL_MEM_FENCE" ->
    Some (TScalar Int)
  | _ -> None

(* Compiled programs, keyed by physical identity of the module AST: the
   build pipelines return a shared AST for a loaded module (and the
   build cache shares it across contexts), so each module compiles once
   per process.  Bounded; structural hashing of whole ASTs would defeat
   the point.  Mutex-protected: compiled programs are shared across
   domains and tests launch from spawned domains. *)
let compiled_cache : (Minic.Ast.program * Vm.Compile.program) list ref = ref []
let compiled_cache_limit = 16
let compiled_cache_lock = Mutex.create ()

let compiled_for prog =
  Mutex.lock compiled_cache_lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock compiled_cache_lock)
    (fun () ->
       match List.find_opt (fun (p, _) -> p == prog) !compiled_cache with
       | Some (_, cp) -> cp
       | None ->
         let cp = Vm.Compile.make ~special_ty prog in
         let rest =
           List.filteri (fun i _ -> i < compiled_cache_limit - 1) !compiled_cache
         in
         compiled_cache := (prog, cp) :: rest;
         cp)

(* IR-compiled modules: same physical-identity keying and bound as
   [compiled_cache], additionally keyed by the enabled pass set so a
   changed OCLCU_IR_PASSES (or a test toggling Ir.Pipeline.selected)
   takes effect without restarting the process.  Each entry carries its
   own Vm.Compile fallback for functions the lowering rejected. *)
let ir_cache : ((Minic.Ast.program * string) * Ir.Emit.t) list ref = ref []
let ir_cache_lock = Mutex.create ()

let ir_for prog =
  let sg = Ir.Pipeline.signature !Ir.Pipeline.selected in
  Mutex.lock ir_cache_lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock ir_cache_lock)
    (fun () ->
       match
         List.find_opt (fun ((p, s), _) -> p == prog && s = sg) !ir_cache
       with
       | Some (_, est) -> est
       | None ->
         let est = Ir.Emit.make ~special_ty ~cfg:!Ir.Pipeline.selected prog in
         let rest =
           List.filteri (fun i _ -> i < compiled_cache_limit - 1) !ir_cache
         in
         ir_cache := ((prog, sg), est) :: rest;
         est)

(* Lockstep warp plans, keyed by the IR module (physical identity — one
   [Ir.Emit.t] per (program, pass set) via [ir_cache]), kernel name,
   warp width and the region-fusion flag (fusion is baked into a
   plan's closures at emission time, so fused and unfused plans must
   not share cache entries).  Errors are cached too: ineligibility is
   decided once, not re-analysed per launch.  Bounded and
   mutex-protected like the other caches. *)
let plan_cache :
  ((Ir.Emit.t * string * int * bool) * (Lockstep.plan, string) result)
    list
    ref =
  ref []
let plan_cache_lock = Mutex.create ()

let lockstep_plan_for est ~name ~warp =
  let fuse = !Lockstep.fusion in
  Mutex.lock plan_cache_lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock plan_cache_lock)
    (fun () ->
       match
         List.find_opt
           (fun ((e, n, w, f), _) ->
              e == est && n = name && w = warp && f = fuse)
           !plan_cache
       with
       | Some (_, r) -> r
       | None ->
         let r = Lockstep.plan_for est ~name ~warp in
         let rest = List.filteri (fun i _ -> i < 63) !plan_cache in
         plan_cache := ((est, name, warp, fuse), r) :: rest;
         r)

(* Everything mutable one worker owns; see [make_worker] below. *)
type worker = {
  w_counters : Counters.t;
  w_attr : Attr.t option;
  w_layout : Vm.Layout.env;
  w_run_block : int -> unit;
  w_logs : Conflict.block_log list ref;
  w_spans : (int * string * (string * string) list) list ref;
  w_blocks : int ref;          (* blocks this worker executed *)
}

(* Launch a kernel on a device.

   [prog] is the loaded device module (kernels + helpers + globals);
   device globals must already be materialised in [globals].
   [host_arena] backs AS_none so kernels can read host constants if a
   runtime chooses to pass them (not used by well-formed code). *)
let launch ~(dev : Device.t) ~prog ~globals ~host_arena
    ?(extra_externals = []) ?observer ~(kernel : func) ~(cfg : config)
    ~(args : karg list) () : launch_stats =
  let warp = dev.hw.warp_size in
  let lx = dim3_of cfg.local_size 0
  and ly = dim3_of cfg.local_size 1
  and lz = dim3_of cfg.local_size 2 in
  let gx = dim3_of cfg.global_size 0
  and gy = dim3_of cfg.global_size 1
  and gz = dim3_of cfg.global_size 2 in
  if gx mod lx <> 0 || gy mod ly <> 0 || gz mod lz <> 0 then
    raise
      (Launch_error
         (Printf.sprintf "%s: global size (%d,%d,%d) not divisible by local (%d,%d,%d)"
            kernel.fn_name gx gy gz lx ly lz));
  let nx = gx / lx and ny = gy / ly and nz = gz / lz in
  let n_blocks = nx * ny * nz in
  let group_threads = lx * ly * lz in
  let num_groups = [| nx; ny; nz |] in
  let global_size = [| gx; gy; gz |] in
  let local_size = [| lx; ly; lz |] in

  (* launch-constant special values, shared read-only by all workers *)
  let lid_arrs =
    Array.init group_threads (fun lid ->
        [| lid mod lx; lid mod (lx * ly) / lx; lid / (lx * ly) |])
  in
  let tid_tvs = Array.map uint3 lid_arrs in
  let bdim_tv = uint3 local_size in
  let gdim_tv = uint3 num_groups in
  let warp_tv = Vm.Interp.tint warp in
  let clk_local_tv = Vm.Interp.tint 1 in
  let clk_global_tv = Vm.Interp.tint 2 in

  (* the kernel compiles once per loaded module and is reused across all
     work-items, work-groups and launches.  The optimizing IR middle-end
     takes over on the compiled backend when any pass is enabled and no
     observer is installed (the IR backend does not model per-statement
     observation); OCLCU_IR_PASSES=none restores the plain closure
     backend bit-for-bit.  A kernel the lowering rejected falls back to
     the closure backend of the same module. *)
  let use_ir =
    !backend = Compiled && observer = None
    && not (Ir.Pipeline.is_none !Ir.Pipeline.selected)
  in
  (* resolve the kernel's compiled form once; the per-item path is then
     a bare closure application *)
  let compiled_kernel =
    match !backend with
    | Interp -> None
    | Compiled ->
      if use_ir then begin
        let est = ir_for prog in
        match Ir.Emit.prepare est kernel.fn_name with
        | Some f -> Some f
        | None -> Some (Vm.Compile.prepare (Ir.Emit.fallback est) kernel)
      end
      else Some (Vm.Compile.prepare (compiled_for prog) kernel)
  in

  (* Warp-lockstep engine: resolve the kernel's warp plan if requested.
     Needs the IR backend, and no launch override of a built-in the
     plan folds in — the index functions and barriers bypass the
     external table on the fast path, and the NDRange shape queries
     seed the uniformity analysis. *)
  let lockstep_plan =
    match !engine with
    | Scalar -> None
    | Lockstep ->
      if not use_ir then
        Some
          (Error "lockstep needs the IR backend (compiled, passes on, \
                  no observer)")
      else if
        List.exists
          (fun (n, _) ->
             List.mem n
               [ "get_global_id"; "get_local_id"; "get_group_id";
                 "get_work_dim"; "get_global_size"; "get_local_size";
                 "get_num_groups"; "barrier"; "__syncthreads" ])
          extra_externals
      then
        Some (Error "launch overrides a built-in the lockstep engine folds in")
      else Some (lockstep_plan_for (ir_for prog) ~name:kernel.fn_name ~warp)
  in
  let plan = match lockstep_plan with Some (Ok p) -> Some p | _ -> None in
  let engine_note =
    ref
      (match lockstep_plan with
       | None -> Engine_scalar
       | Some (Error e) -> Engine_fallback e
       | Some (Ok _) -> Engine_lockstep)
  in
  (* whether any kernel call reads an atomic's return value; decides
     which cross-lane (and cross-block) atomic overlaps are benign *)
  let atomics_clean = lazy (not (Conflict.atomic_result_used prog kernel)) in

  (* file-scope [extern __shared__ char pool[]] declarations (the
     OpenCL-to-CUDA translator emits one, Fig. 5) alias the per-group
     dynamic shared block, like in-kernel extern __shared__ variables *)
  let extern_shared_names =
    List.filter_map
      (function
        | TVar d when d.d_storage.s_extern && type_space d.d_ty = AS_local ->
          Some d.d_name
        | _ -> None)
      prog
  in

  let block_spans = !trace_blocks && Trace.Sink.is_enabled () in

  (* One worker owns everything mutable a block touches that is not a
     shared arena: local/private arenas, counters, access streams, the
     scheduler's index cells and its interpreter context.  The
     sequential engine is a single worker run over all blocks in order;
     the parallel engine is N workers pulling blocks from a shared
     counter, plus access logging and a locked RMW. *)
  let make_worker ~par ?plan () =
    let counters = Counters.create () in
    (* warp-lockstep hazard state: one log per worker, checked and
       cleared at each warp boundary and barrier *)
    let k_flags = Lockstep.make_flags () in
    let k_log = Lockstep.make_hlog () in
    let aclean =
      match plan with Some _ -> Lazy.force atomics_clean | None -> false
    in
    let attr = if !attribute then Some (Attr.create ()) else None in
    (* the running item's index view; [set_cur] rewrites it in place *)
    let cur = { gid = [| 0; 0; 0 |]; lid = [| 0; 0; 0 |]; grp = [| 0; 0; 0 |] } in
    let cur_item = ref 0 in
    (* innermost SSite of the running item; maintained by the VM's
       SSite save/restore and re-established on barrier resume *)
    let cur_site = ref 0 in
    let cur_tid = ref bdim_tv in
    let cur_bid = ref bdim_tv in

    (* arenas *)
    let local_arena = Vm.Memory.create ~initial:8192 "local" in
    (* an item's private arena is created on its first private access:
       compiled kernels keep most locals in frame slots, and most items
       of most launches never touch one *)
    let private_pool = Array.make group_threads None in
    let private_arena i =
      match private_pool.(i) with
      | Some a -> a
      | None ->
        let a =
          Vm.Memory.create ~initial:2048 (Printf.sprintf "private.%d" i)
        in
        private_pool.(i) <- Some a;
        a
    in
    let reset_private i = Option.iter Vm.Memory.reset private_pool.(i) in
    let arena_of : addr_space -> Vm.Memory.arena = function
      | AS_global -> dev.Device.global
      | AS_constant -> dev.Device.constant
      | AS_local -> local_arena
      | AS_private -> private_arena !cur_item
      | AS_none -> host_arena
    in

    (* access streams for warp grouping *)
    let streams = Array.init group_threads (fun _ -> Counters.stream_create ()) in
    (* branch-decision streams; attribution mode only (extra pushes on
       every branch cost real time otherwise) *)
    let bstreams =
      if !attribute then
        Some (Array.init group_threads (fun _ -> Counters.bstream_create ()))
      else None
    in
    let cur_log : Conflict.block_log option ref = ref None in
    let in_atomic = ref false in
    let on_access_plain _kind space addr size =
      match space with
      | AS_global | AS_constant | AS_local ->
        Counters.stream_push streams.(!cur_item) space ~addr ~size
          ~site:!cur_site
      | AS_private | AS_none ->
        counters.Counters.private_accesses <-
          counters.Counters.private_accesses + 1
    in
    let on_access =
      if not par then on_access_plain
      else
        fun kind space addr size ->
          on_access_plain kind space addr size;
          (* the RMW wrapper logs its own cell; its raw load/store must
             not also register as an ordinary dependence *)
          if not !in_atomic then
            match space with
            | AS_global | AS_constant | AS_none ->
              (match !cur_log with
               | Some bl ->
                 let a = Conflict.tag space addr in
                 (match kind with
                  | Vm.Memory.Load -> Conflict.record_read bl a size
                  | Vm.Memory.Store -> Conflict.record_write bl a size)
               | None -> ())
            | AS_local | AS_private -> ()
    in
    (* under lockstep, every plain access also lands in the warp hazard
       log; RMWs record themselves below with their commutativity class *)
    let on_access =
      match plan with
      | None -> on_access
      | Some _ ->
        fun kind space addr size ->
          on_access kind space addr size;
          if not !in_atomic then
            Lockstep.record k_log k_flags ~lane:!cur_item kind space addr size
    in
    let on_op =
      match attr with
      | None -> fun cls -> Counters.record_op counters cls
      | Some a ->
        fun cls ->
          Counters.record_op counters cls;
          let s = Attr.get a !cur_site in
          s.Attr.ops <- s.Attr.ops + 1
    in
    let on_branch =
      match bstreams with
      | None -> None
      | Some bs ->
        Some (fun taken ->
            Counters.bstream_push bs.(!cur_item) ~site:!cur_site taken)
    in
    (* lockstep batched charge: same totals as n on_op calls at [site]
       (-1 = wherever cur_site points), without n closure crossings.
       The n = 0 guard matters for attribution: a zero charge must not
       materialise an Attr row the scalar engine never creates. *)
    let k_charge site cls n =
      if n > 0 then begin
        Counters.record_ops counters cls n;
        match attr with
        | None -> ()
        | Some a ->
          let s = Attr.get a (if site >= 0 then site else !cur_site) in
          s.Attr.ops <- s.Attr.ops + n
      end
    in
    (* lockstep per-lane branch hook: the warp engine knows the lane,
       so it bypasses the set-lane indirection on_branch needs *)
    let k_branch =
      match bstreams with
      | None -> None
      | Some bs ->
        Some
          (fun lane taken ->
             Counters.bstream_push bs.(lane) ~site:!cur_site taken)
    in
    (* IR-pass elimination credits: only materialised in attribution
       mode, where the report shows ops + ops_eliminated = the
       unoptimized ops count per site *)
    let on_elim =
      match attr with
      | None -> None
      | Some a ->
        Some (fun n ->
            let s = Attr.get a !cur_site in
            s.Attr.ops_eliminated <- s.Attr.ops_eliminated + n)
    in

    let rmw =
      if not par then atomic_rmw
      else
        fun klass ctx p f ->
          let space, addr, elt = atomic_resolve ctx p in
          match space with
          | AS_global | AS_constant | AS_none ->
            (* float RMWs never commute: rounding is order-sensitive *)
            let klass =
              match Vm.Layout.resolve ctx.Vm.Interp.layout elt with
              | TScalar s when not (is_float_scalar s) -> klass
              | _ -> Conflict.Kother
            in
            (match !cur_log with
             | Some bl ->
               let size = Vm.Layout.sizeof ctx.Vm.Interp.layout elt in
               Conflict.record_atomic bl (Conflict.tag space addr) size klass
             | None -> ());
            in_atomic := true;
            Mutex.lock atomics_lock;
            let r =
              try atomic_apply ctx space addr elt f
              with e ->
                Mutex.unlock atomics_lock;
                in_atomic := false;
                raise e
            in
            Mutex.unlock atomics_lock;
            in_atomic := false;
            r
          | AS_local | AS_private ->
            (* block-private: the owning worker is the only toucher *)
            atomic_apply ctx space addr elt f
    in
    let rmw =
      match plan with
      | None -> rmw
      | Some _ ->
        fun klass ctx p f ->
          let space, addr, elt = atomic_resolve ctx p in
          let klass_log =
            match Vm.Layout.resolve ctx.Vm.Interp.layout elt with
            | TScalar s when not (is_float_scalar s) -> klass
            | _ -> Conflict.Kother
          in
          let size = Vm.Layout.sizeof ctx.Vm.Interp.layout elt in
          Lockstep.record_atomic k_log ~lane:!cur_item space addr size
            klass_log;
          in_atomic := true;
          Fun.protect
            ~finally:(fun () -> in_atomic := false)
            (fun () -> rmw klass ctx p f)
    in

    let special_ident name =
      match name with
      | "threadIdx" -> Some !cur_tid
      | "blockIdx" -> Some !cur_bid
      | "blockDim" -> Some bdim_tv
      | "gridDim" -> Some gdim_tv
      | "warpSize" -> Some warp_tv
      | "CLK_LOCAL_MEM_FENCE" -> Some clk_local_tv
      | "CLK_GLOBAL_MEM_FENCE" -> Some clk_global_tv
      | _ -> None
    in

    (* extras are appended last so they override defaults on name clash *)
    let externals =
      kernel_externals ~cur ~rmw ()
      @ [ ("get_global_size",
           (fun _ args ->
              let d = match args with a :: _ -> Int64.to_int (Vm.Value.to_int a.Vm.Interp.v) | [] -> 0 in
              Vm.Interp.tint (dim3_of global_size d)));
          ("get_local_size",
           (fun _ args ->
              let d = match args with a :: _ -> Int64.to_int (Vm.Value.to_int a.Vm.Interp.v) | [] -> 0 in
              Vm.Interp.tint (dim3_of local_size d)));
          ("get_num_groups",
           (fun _ args ->
              let d = match args with a :: _ -> Int64.to_int (Vm.Value.to_int a.Vm.Interp.v) | [] -> 0 in
              Vm.Interp.tint (dim3_of num_groups d))) ]
      @ extra_externals
    in

    let base_ctx =
      Vm.Interp.make ~prog ~arena_of ~externals ~special_ident ~on_access
        ~on_op ~cur_site ?on_branch ~stack_space:AS_private ~globals
        ?on_elim ?observer ()
    in

    let logs : Conflict.block_log list ref = ref [] in
    let spans : (int * string * (string * string) list) list ref = ref [] in
    let blocks_run = ref 0 in

    let run_block b =
      incr blocks_run;
      let bx = b mod nx and by = (b / nx) mod ny and bz = b / (nx * ny) in
      if par then cur_log := Some (Conflict.block_log b);
      Vm.Memory.reset local_arena;
      let group_locals = Hashtbl.create 8 in
      (* dynamic shared memory (CUDA extern __shared__) *)
      let dynshared_addr =
        if cfg.dyn_shared > 0 then
          Some (Vm.Memory.alloc local_arena ~align:16 cfg.dyn_shared)
        else None
      in
      (* OpenCL dynamic __local arguments: one allocation per group *)
      let resolved_args =
        List.map
          (function
            | Arg_val v -> v
            | Arg_local bytes ->
              let addr = Vm.Memory.alloc local_arena ~align:16 (max 1 bytes) in
              Vm.Interp.tv
                (VInt (Vm.Value.make_ptr AS_local addr))
                (TPtr (TQual (AS_local, TScalar Char))))
          args
      in
      let args_arr = Array.of_list resolved_args in
      let grp_arr = [| bx; by; bz |] in
      let bid_tv = uint3 grp_arr in
      let set_cur lid_lin =
        cur_item := lid_lin;
        let lid = lid_arrs.(lid_lin) in
        let gid = cur.gid in
        gid.(0) <- (bx * lx) + lid.(0);
        gid.(1) <- (by * ly) + lid.(1);
        gid.(2) <- (bz * lz) + lid.(2);
        cur.lid <- lid;
        cur.grp <- grp_arr;
        cur_tid := tid_tvs.(lid_lin);
        cur_bid := bid_tv
      in
      (* cooperative scheduling: run items (or whole warps, under
         lockstep), parking at barriers; each parked entry carries the
         innermost site so the round can be attributed and the site
         restored on resume *)
      let waiting : (int * int * (unit, unit) Effect.Deep.continuation) Queue.t =
        Queue.create ()
      in
      let run_root lid f =
        Effect.Deep.match_with f ()
          { retc = (fun () -> ());
            exnc = (fun e -> raise e);
            effc =
              (fun (type a) (eff : a Effect.t) ->
                 match eff with
                 | Vm.Interp.Barrier _ ->
                   (* the GADT match refines a = unit *)
                   Some
                     (fun (k : (a, unit) Effect.Deep.continuation) ->
                        Queue.add (lid, !cur_site, k) waiting)
                 | _ -> None) }
      in
      (* barrier rounds; each round is charged to the site the first
         parked item was executing *)
      let rounds () =
        while not (Queue.is_empty waiting) do
          counters.Counters.barriers <- counters.Counters.barriers + 1;
          (match attr with
           | Some a ->
             let _, site, _ = Queue.peek waiting in
             let s = Attr.get a site in
             s.Attr.barriers <- s.Attr.barriers + 1
           | None -> ());
          let n = Queue.length waiting in
          for _ = 1 to n do
            let lid, site, k = Queue.pop waiting in
            (* restore this item's index view and site *)
            set_cur lid;
            cur_site := site;
            Effect.Deep.continue k ()
          done
        done
      in
      (match plan with
       | None ->
         let make_item lid_lin () =
           set_cur lid_lin;
           reset_private lid_lin;
           let ctx =
             { base_ctx with
               Vm.Interp.scopes = [];
               group_locals = Some group_locals }
           in
           (* the compiled backends bind locals in frame slots, so the
              item scope only exists to hold the $dynshared aliases *)
           if compiled_kernel = None || dynshared_addr <> None then begin
             Vm.Interp.push_scope ctx;
             match dynshared_addr with
             | Some addr ->
               let b =
                 { Vm.Interp.b_space = AS_local; b_addr = addr;
                   b_ty = TArr (TScalar Char, None) }
               in
               Vm.Interp.bind_raw ctx "$dynshared" b;
               List.iter
                 (fun n -> Vm.Interp.bind_raw ctx n b)
                 extern_shared_names
             | None -> ()
           end;
           (match compiled_kernel with
            | Some f -> ignore (f ctx args_arr)
            | None -> ignore (Vm.Interp.call_function ctx kernel resolved_args))
         in
         for lid = 0 to group_threads - 1 do
           run_root lid (make_item lid)
         done;
         rounds ()
       | Some p ->
         (* lockstep: one interpreter context per block, one fibre per
            warp; the same rounds machinery resumes parked warps *)
         (try
            for lid = 0 to group_threads - 1 do
              reset_private lid
            done;
            let ctx =
              { base_ctx with
                Vm.Interp.scopes = [];
                group_locals = Some group_locals }
            in
            (match dynshared_addr with
             | Some addr ->
               Vm.Interp.push_scope ctx;
               let bnd =
                 { Vm.Interp.b_space = AS_local; b_addr = addr;
                   b_ty = TArr (TScalar Char, None) }
               in
               Vm.Interp.bind_raw ctx "$dynshared" bnd;
               List.iter
                 (fun n -> Vm.Interp.bind_raw ctx n bnd)
                 extern_shared_names
             | None -> ());
            let k_access lane kind space addr size =
              cur_item := lane;
              on_access kind space addr size
            in
            let k_idx which lane d =
              let lid = lid_arrs.(lane) in
              match which with
              | `Gid ->
                idx_of
                  [| (bx * lx) + lid.(0); (by * ly) + lid.(1);
                     (bz * lz) + lid.(2) |]
                  d
              | `Lid -> idx_of lid d
              | `Grp -> idx_of grp_arr d
            in
            let hooks =
              { Lockstep.k_ctx = ctx; k_set_lane = set_cur; k_access;
                k_idx; k_charge; k_branch; k_flags; k_log;
                k_atomics_clean = aclean }
            in
            let n_warps = (group_threads + warp - 1) / warp in
            for wd = 0 to n_warps - 1 do
              let lane0 = wd * warp in
              let nlanes = min warp (group_threads - lane0) in
              run_root lane0 (fun () ->
                  Lockstep.run_warp p hooks ~lane0 ~nlanes ~args:args_arr)
            done;
            rounds ()
          with e ->
            (* unwind any parked warps so their arena marks and call
               depth release before the scalar rerun *)
            let bail =
              match e with
              | Lockstep.Bail _ -> e
              | _ -> Lockstep.Bail (Printexc.to_string e)
            in
            while not (Queue.is_empty waiting) do
              let _, _, k = Queue.pop waiting in
              (try Effect.Deep.discontinue k bail with _ -> ())
            done;
            raise e));
      (* cost the group's memory traffic *)
      Counters.finish_group counters ?attr ?branches:bstreams ~warp_size:warp
        ~smem_word:dev.Device.fw.smem_word ~banks:dev.Device.hw.smem_banks
        ~model_conflicts:dev.Device.model_bank_conflicts streams;
      Array.iter (fun s -> s.Counters.len <- 0) streams;
      (match bstreams with
       | Some bs -> Array.iter (fun s -> s.Counters.b_len <- 0) bs
       | None -> ());
      if par then begin
        (match !cur_log with Some bl -> logs := bl :: !logs | None -> ());
        cur_log := None
      end;
      if block_spans then
        spans :=
          (b, kernel.fn_name,
           [ ("block", Printf.sprintf "%d,%d,%d" bx by bz) ])
          :: !spans
    in
    { w_counters = counters; w_attr = attr;
      w_layout = base_ctx.Vm.Interp.layout; w_run_block = run_block;
      w_logs = logs; w_spans = spans; w_blocks = blocks_run }
  in

  (* Per-block Kernel spans are buffered and flushed in block order, so
     the emitted stream is identical at every domain count. *)
  let flush_block_spans spans =
    if spans <> [] then begin
      let buf = Trace.Sink.buffer_create () in
      let t = dev.Device.sim_time_ns in
      List.iter
        (fun (_, name, args) ->
           Trace.Sink.buffer_add buf ~cat:Trace.Event.Kernel ~name ~args
             ~t0:t ~t1:t ())
        (List.sort compare spans);
      Trace.Sink.buffer_flush buf
    end
  in

  let run_sequential ~plan () =
    let attempt pl =
      let w = make_worker ~par:false ?plan:pl () in
      for b = 0 to n_blocks - 1 do
        w.w_run_block b
      done;
      w
    in
    let w =
      match plan with
      | None -> attempt None
      | Some _ ->
        (* the lockstep attempt may bail mid-launch; snapshot the shared
           arenas so the scalar rerun starts from the pre-launch state *)
        let shared = [ dev.Device.global; dev.Device.constant; host_arena ] in
        let snaps = List.map (fun a -> (a, Vm.Memory.snapshot a)) shared in
        (match attempt plan with
         | w -> w
         | exception Lockstep.Bail reason ->
           List.iter (fun (a, s) -> Vm.Memory.restore a s) snaps;
           engine_note := Engine_bailed reason;
           attempt None)
    in
    flush_block_spans !(w.w_spans);
    (w.w_counters, w.w_attr, w.w_layout, [| !(w.w_blocks) |])
  in

  let run_parallel n_workers =
    let atomics_clean = Lazy.force atomics_clean in
    let shared = [ dev.Device.global; dev.Device.constant; host_arena ] in
    let snaps = List.map (fun a -> (a, Vm.Memory.snapshot a)) shared in
    List.iter Vm.Memory.freeze shared;
    let workers = Array.init n_workers (fun _ -> make_worker ~par:true ?plan ()) in
    let next = Atomic.make 0 in
    let hazards = Array.make n_workers None in
    let body i =
      let run_block = workers.(i).w_run_block in
      let rec loop () =
        if hazards.(i) = None then begin
          let b = Atomic.fetch_and_add next 1 in
          if b < n_blocks then begin
            (try run_block b with
             | Lockstep.Bail reason -> hazards.(i) <- Some reason
             | e -> hazards.(i) <- Some (Printexc.to_string e));
            loop ()
          end
        end
      in
      loop ()
    in
    Fun.protect
      ~finally:(fun () -> List.iter Vm.Memory.thaw shared)
      (fun () -> Pool.run (Lazy.force pool) ~workers:n_workers body);
    let hazard =
      Array.fold_left
        (fun acc h -> match acc with Some _ -> acc | None -> h)
        None hazards
    in
    let verdict =
      match hazard with
      | Some reason -> Some reason
      | None ->
        let logs =
          Array.fold_left (fun acc w -> !(w.w_logs) @ acc) [] workers
        in
        Conflict.check logs ~atomics_clean
    in
    match verdict with
    | Some reason ->
      (* roll back and replay: the sequential engine is the semantics;
         telemetry keeps the aborted attempt's block distribution.  The
         replay forces the scalar engine — a parallel rollback under
         lockstep may be a lockstep hazard, and replaying it the same
         way would just bail again. *)
      List.iter (fun (a, s) -> Vm.Memory.restore a s) snaps;
      if Option.is_some plan then engine_note := Engine_bailed reason;
      let counters, attr, layout, _ = run_sequential ~plan:None () in
      (counters, attr, layout,
       Array.map (fun w -> !(w.w_blocks)) workers, Replayed reason)
    | None ->
      let total = Counters.create () in
      Array.iter (fun w -> Counters.merge total w.w_counters) workers;
      let attr =
        if not !attribute then None
        else begin
          let t = Attr.create () in
          Array.iter
            (fun w ->
               match w.w_attr with Some a -> Attr.merge t a | None -> ())
            workers;
          Some t
        end
      in
      let spans =
        Array.fold_left (fun acc w -> !(w.w_spans) @ acc) [] workers
      in
      flush_block_spans spans;
      (total, attr, workers.(0).w_layout,
       Array.map (fun w -> !(w.w_blocks)) workers, Parallel n_workers)
  in

  let n_workers = min !domains n_blocks in
  let counters, attr, layout, worker_blocks, outcome =
    if n_workers <= 1 then begin
      let counters, attr, layout, wb = run_sequential ~plan () in
      (counters, attr, layout, wb, Seq)
    end
    else run_parallel n_workers
  in

  let occupancy =
    Occupancy.of_kernel dev layout kernel ~block_threads:group_threads
      ~dyn_shared:cfg.dyn_shared
  in
  { counters;
    attr;
    block_threads = group_threads;
    n_blocks;
    occupancy;
    pool = { outcome; worker_blocks };
    engine = !engine_note }
