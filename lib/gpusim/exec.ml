(* NDRange / grid execution engine.

   A launch is four stages composed in order.  [setup] checks the
   geometry and fixes the launch constants, the compiled form and the
   engine.  [execute] runs the blocks on one or more workers.  [merge]
   sums their counters and attribution, and [cost] adds occupancy.

   When the kernel can reach a barrier, work-items of a group are
   coroutines multiplexed on one OCaml fibre each: an item runs until it
   finishes or performs the [Barrier] effect, at which point the
   scheduler parks its continuation and runs the next item.  When every
   live item of the group has reached the barrier, all are resumed --
   faithful bulk-synchronous semantics including values communicated
   through __local/__shared__ memory.  A kernel that cannot (decided
   once per form from its IR, and per launch for the externals the
   launch supplies) runs its items as plain calls in local-id order,
   the same order.  Under the lockstep engine a fibre runs a whole warp
   instead.  A compiled item's frame holds only its boxed registers,
   and its arguments were converted to the parameter types once, in
   [setup].

   Work-groups run sequentially when the device's configuration asks
   for 1 domain.  With more (OCLCU_DOMAINS, `oclcu run --domains N`,
   the machine's core count by default) a persistent domain pool
   executes blocks concurrently, optimistically: every access a block
   makes to a shared address space is logged (Conflict), and simulated
   global atomics take a real mutex.  One rollback protocol covers that
   and the lockstep engine: the attempt runs from snapshots of the
   shared arenas (frozen while parallel), and a lockstep bail, a fault
   in the attempt or a cross-block dependence after the join restores
   them and replays the launch sequentially on the scalar engine.
   Either way the observable result (memory, Counters.t, traces,
   exceptions) is the sequential scalar one, which the fuzzer's parallel
   stage and test_parallel verify. *)

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

let dim3_of arr i = if i < Array.length arr then Int.max 1 arr.(i) else 1

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

(* The process defaults behind Config.default, re-exported where the
   CLI and bench/e2e read them. *)
type backend = Config.backend = Interp | Compiled
type engine = Config.engine = Scalar | Lockstep

let backend = Config.backend
let engine = Config.engine
let domains = Config.domains

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
  attr : Attr.t option;        (* when the module's program carries sites *)
  block_threads : int;
  n_blocks : int;
  occupancy : Occupancy.result;
  pool : pool_stats;
  engine : engine_outcome;
}

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

(* Built-ins available in every kernel, both dialects.  Index and size
   functions read the mutable [cur] cell owned by the scheduler and the
   launch geometry; atomics go through [rmw], which carries the op's
   commutativity class so the parallel engine can log it. *)
type cur = {
  gid : int array;             (* written in place on every switch *)
  mutable lid : int array;
  mutable grp : int array;
  mutable item : int;          (* the running item's local linear id *)
  mutable tid : Vm.Interp.tval;  (* its threadIdx *)
  mutable bid : Vm.Interp.tval;  (* its blockIdx *)
}

let kernel_externals ~(cur : cur) ~rmw ~global_size ~local_size ~num_groups =
  let open Vm.Interp in
  let int_of_arg args =
    match args with
    | a :: _ -> Int64.to_int (Vm.Value.to_int a.v)
    | [] -> 0
  in
  let idx_fn sel = fun _ctx args -> tint (sel (int_of_arg args)) in
  (* one implementation per atomic, bound to each of its spellings; a
     wrong arity names the spelling the kernel used *)
  let atomic names impl = List.map (fun name -> (name, impl name)) names in
  let arity name = raise (Launch_error (name ^ " arity")) in
  let binary klass f name ctx = function
    | [ p; v ] -> rmw klass ctx p (fun old -> f ctx old v)
    | _ -> arity name
  in
  let pick cmp ctx old v =
    if Vm.Value.to_bool (binop ctx cmp old v).v then old else v
  in
  (* OpenCL's atomic_inc/dec take only the pointer (§3.7) *)
  let step op name ctx = function
    | [ p ] -> rmw Conflict.Kadd ctx p (fun old -> binop ctx op old (tint 1))
    | _ -> arity name
  in
  (* CUDA's atomicInc/Dec wrap at the bound (§3.7).  The hardware
     operates on 32-bit unsigned values: a sign-extended load of a
     negative int cell must not compare above the bound. *)
  let u32 v = Int64.logand (Vm.Value.to_int v) 0xFFFFFFFFL in
  let wrapping klass f name ctx = function
    | [ p; bound ] ->
      let b = u32 bound.v in
      rmw (klass b) ctx p (fun old -> f (u32 old.v) b old.ty)
    | _ -> arity name
  in
  [ (* OpenCL work-item functions *)
    ("get_global_id", idx_fn (fun d -> idx_of cur.gid d));
    ("get_local_id", idx_fn (fun d -> idx_of cur.lid d));
    ("get_group_id", idx_fn (fun d -> idx_of cur.grp d));
    ("get_global_size", idx_fn (dim3_of global_size));
    ("get_local_size", idx_fn (dim3_of local_size));
    ("get_num_groups", idx_fn (dim3_of num_groups));
    ("get_work_dim", (fun _ _ -> tint 3));
    ("barrier", barrier_ext);
    ("__syncthreads", barrier_ext);
    ("printf", (fun _ _ -> tint 0)) ]
  (* fences are no-ops *)
  @ List.map
      (fun n -> (n, fun _ _ -> tunit))
      [ "mem_fence"; "read_mem_fence"; "write_mem_fence"; "__threadfence";
        "__threadfence_block"; "__syncwarp" ]
  @ atomic [ "atomic_add"; "atomicAdd" ]
      (binary Conflict.Kadd (fun ctx old v -> binop ctx Add old v))
  @ atomic [ "atomic_sub"; "atomicSub" ]
      (binary Conflict.Kadd (fun ctx old v -> binop ctx Sub old v))
  @ atomic [ "atomic_min"; "atomicMin" ] (binary Conflict.Kmin (pick Lt))
  @ atomic [ "atomic_max"; "atomicMax" ] (binary Conflict.Kmax (pick Gt))
  @ atomic [ "atomic_xchg"; "atomicExch" ]
      (binary Conflict.Kother (fun _ _ v -> v))
  @ atomic [ "atomic_cmpxchg"; "atomicCAS" ] (fun name ctx -> function
      | [ p; cmp; v ] ->
        rmw Conflict.Kother ctx p (fun old ->
            if Vm.Value.to_int old.v = Vm.Value.to_int cmp.v then v else old)
      | _ -> arity name)
  @ atomic [ "atomic_inc" ] (step Add)
  @ atomic [ "atomic_dec" ] (step Sub)
  @ atomic [ "atomicInc" ]
      (wrapping (fun b -> Conflict.Kinc b) (fun o b ty ->
           if Int64.compare o b >= 0 then tint 0 else tv (VInt (Int64.add o 1L)) ty))
  @ atomic [ "atomicDec" ]
      (wrapping (fun b -> Conflict.Kdec b) (fun o b ty ->
           if o = 0L || Int64.compare o b > 0 then tv (VInt b) ty
           else tv (VInt (Int64.sub o 1L)) ty))

let uint3 a =
  Vm.Interp.tv
    (VVec [| VInt (Int64.of_int a.(0)); VInt (Int64.of_int a.(1));
             VInt (Int64.of_int a.(2)) |])
    (TVec (UInt, 3))

let clk_local_tv = Vm.Interp.tint 1
let clk_global_tv = Vm.Interp.tint 2

(* ------------------------------------------------------------------ *)
(* Loaded modules and their compiled forms                             *)
(* ------------------------------------------------------------------ *)

(* Types of the launcher-provided rvalue specials, for compile-time
   member resolution; must list the same names as [special_ident]. *)
let special_ty = function
  | "threadIdx" | "blockIdx" | "blockDim" | "gridDim" ->
    Some (TVec (UInt, 3))
  | "warpSize" | "CLK_LOCAL_MEM_FENCE" | "CLK_GLOBAL_MEM_FENCE" ->
    Some (TScalar Int)
  | _ -> None

(* A loaded module: the device program, whether it carries sites (its
   launches attribute exactly when it does), and its compiled forms, one
   per IR pass set it was launched under.  A form compiles on the
   module's first launch under its pass set and holds the lockstep warp
   plans, keyed by kernel name and warp width; ineligibility is decided
   once, not re-analysed per launch.  The lock guards both: a module may
   be launched from several domains at once. *)
type form = {
  f_passes : Ir.Pipeline.config;
  f_est : Ir.Emit.t;
  f_plans : (string * int, (Lockstep.plan, string) result) Hashtbl.t;
  f_reach : (string, string list option) Hashtbl.t;  (* Ir.Emit.reached_externals *)
}

type modul = {
  m_prog : Minic.Ast.program;
  m_sited : bool;
  m_lock : Mutex.t;
  mutable m_forms : form list;
}

let load prog =
  { m_prog = prog; m_sited = Minic.Site.present prog; m_lock = Mutex.create ();
    m_forms = [] }

let program m = m.m_prog

let compiled_forms m = Mutex.protect m.m_lock (fun () -> List.length m.m_forms)

(* [m]'s form under [passes], compiled on first use. *)
let form m passes =
  Mutex.protect m.m_lock (fun () ->
      match List.find_opt (fun f -> f.f_passes = passes) m.m_forms with
      | Some f -> f
      | None ->
        let f =
          { f_passes = passes;
            f_est = Ir.Emit.make ~special_ty ~cfg:passes m.m_prog;
            f_plans = Hashtbl.create 4;
            f_reach = Hashtbl.create 4 }
        in
        m.m_forms <- f :: m.m_forms;
        f)

(* ------------------------------------------------------------------ *)
(* Stage 1: setup                                                      *)
(* ------------------------------------------------------------------ *)

(* Everything a launch decides before a block runs, shared read-only by
   every worker. *)
type setup = {
  s_dev : Device.t;
  s_prog : program;
  s_kernel : func;
  s_cfg : config;
  s_args : karg list;
  s_globals : (string, Vm.Interp.binding) Hashtbl.t;
  s_host : Vm.Memory.arena;
  s_observer : Vm.Interp.observer option;
  s_extra : (string * (Vm.Interp.ctx -> Vm.Interp.tval list -> Vm.Interp.tval)) list;
  s_local : int array;         (* clamped sizes, 3 entries *)
  s_global : int array;
  s_groups : int array;
  s_blocks : int;
  s_threads : int;             (* items per block *)
  s_workers : int;             (* 1 = the sequential engine *)
  s_attr : bool;               (* the module carries sites *)
  (* launch-constant special values *)
  s_lids : int array array;    (* local linear id -> local id *)
  s_tids : Vm.Interp.tval array;
  s_bdim : Vm.Interp.tval;
  s_gdim : Vm.Interp.tval;
  s_warp : Vm.Interp.tval;
  s_compiled : Ir.Emit.wrapper option;
  (* the arguments converted to the kernel's parameter types, for the
     IR; a dynamic __local argument's pointer converts per block *)
  s_argv : Vm.Interp.tval array;
  s_local_args : bool;
  s_fibre : bool;              (* an item may suspend at a barrier *)
  s_plan : Lockstep.plan option;
  s_engine : engine_outcome;
  (* no kernel call reads an atomic's return value: decides which
     cross-lane and cross-block atomic overlaps are benign.  Computed
     only for a launch that can roll back, before any worker runs. *)
  s_atomics_clean : bool;
  (* file-scope [extern __shared__ char pool[]] declarations (the
     OpenCL-to-CUDA translator emits one, Fig. 5) alias the per-group
     dynamic shared block, like in-kernel extern __shared__ variables *)
  s_extern_shared : string list;
}

(* The engine choice.  Lockstep needs the IR backend, and a launch that
   overrides no built-in the warp plan folds in: the index functions and
   barriers bypass the external table on its fast path, and the NDRange
   shape queries seed the uniformity analysis.  The kernel's plan is
   decided once per form and warp width, not re-analysed per launch.
   Anything else runs scalar, with the reason. *)
let choose_engine (conf : Config.t) m form ~extra ~(kernel : func) ~warp =
  let folded (n, _) =
    List.mem n
      [ "get_global_id"; "get_local_id"; "get_group_id"; "get_work_dim";
        "get_global_size"; "get_local_size"; "get_num_groups"; "barrier";
        "__syncthreads" ]
  in
  match conf.engine, form with
  | Scalar, _ -> (None, Engine_scalar)
  | Lockstep, None ->
    (None, Engine_fallback "lockstep needs the IR backend (compiled, no observer)")
  | Lockstep, Some _ when List.exists folded extra ->
    (None, Engine_fallback "launch overrides a built-in the lockstep engine folds in")
  | Lockstep, Some f ->
    let key = (kernel.fn_name, warp) in
    let plan =
      Mutex.protect m.m_lock (fun () ->
          match Hashtbl.find_opt f.f_plans key with
          | Some r -> r
          | None ->
            let r = Lockstep.plan_for f.f_est ~name:kernel.fn_name ~warp in
            Hashtbl.replace f.f_plans key r;
            r)
    in
    (match plan with
     | Ok p -> (Some p, Engine_lockstep)
     | Error e -> (None, Engine_fallback e))

(* Can an item of [kernel] suspend at a barrier?  The IR scan is made
   once per form; a launch's extra externals are checked per launch,
   since any the kernel reaches might perform the barrier effect. *)
let may_suspend m f ~extra ~(kernel : func) =
  let reach =
    Mutex.protect m.m_lock (fun () ->
        match Hashtbl.find_opt f.f_reach kernel.fn_name with
        | Some r -> r
        | None ->
          let r = Ir.Emit.reached_externals f.f_est kernel.fn_name in
          Hashtbl.replace f.f_reach kernel.fn_name r;
          r)
  in
  match reach with
  | None -> true
  | Some names -> List.exists (fun (n, _) -> List.mem n names) extra

(* Geometry, launch constants, the compiled form and the engine.
   @raise Launch_error when the global size is not a multiple of the
   local size. *)
let setup ~(dev : Device.t) ~modul ~globals ~host_arena ~extra ~observer
    ~(kernel : func) ~(cfg : config) ~args =
  let conf = dev.config in
  let local = Array.init 3 (dim3_of cfg.local_size)
  and global = Array.init 3 (dim3_of cfg.global_size) in
  if Array.exists2 (fun g l -> g mod l <> 0) global local then
    raise
      (Launch_error
         (Printf.sprintf "%s: global size (%d,%d,%d) not divisible by local (%d,%d,%d)"
            kernel.fn_name global.(0) global.(1) global.(2) local.(0)
            local.(1) local.(2)));
  let groups = Array.map2 ( / ) global local in
  let blocks = groups.(0) * groups.(1) * groups.(2) in
  let threads = local.(0) * local.(1) * local.(2) in
  let lx = local.(0) and ly = local.(1) in
  let lids =
    Array.init threads (fun lid ->
        [| lid mod lx; lid mod (lx * ly) / lx; lid / (lx * ly) |])
  in
  (* the kernel compiles once per loaded module and pass set (the empty
     pipeline included), and its closure is reused across all
     work-items, work-groups and launches.  Vm.Interp runs the kernel
     instead on the interpreter backend, under an observer (the IR
     backend does not model per-statement observation), and when the
     lowering rejected it. *)
  let form =
    if conf.backend = Compiled && observer = None then
      Some (form modul conf.passes)
    else None
  in
  let compiled = Option.bind form (fun f -> Ir.Emit.prepare f.f_est kernel.fn_name) in
  let warp = dev.hw.warp_size in
  let plan, engine =
    choose_engine conf modul form ~extra ~kernel ~warp
  in
  let workers = Int.min conf.domains blocks in
  let argv =
    match compiled with
    | None -> [||]
    | Some w ->
      Array.of_list
        (List.mapi
           (fun i -> function
              | Arg_val v -> w.Ir.Emit.convert i v
              | Arg_local _ -> Vm.Interp.tunit)
           args)
  in
  { s_dev = dev;
    s_prog = modul.m_prog;
    s_kernel = kernel;
    s_cfg = cfg;
    s_args = args;
    s_globals = globals;
    s_host = host_arena;
    s_observer = observer;
    s_extra = extra;
    s_local = local;
    s_global = global;
    s_groups = groups;
    s_blocks = blocks;
    s_threads = threads;
    s_workers = workers;
    s_attr = modul.m_sited;
    s_lids = lids;
    s_tids = Array.map uint3 lids;
    s_bdim = uint3 local;
    s_gdim = uint3 groups;
    s_warp = Vm.Interp.tint warp;
    s_compiled = compiled;
    s_argv = argv;
    s_local_args = List.exists (function Arg_local _ -> true | Arg_val _ -> false) args;
    s_fibre =
      (match form, compiled with
       | Some f, Some _ -> may_suspend modul f ~extra ~kernel
       | _ -> true);
    s_plan = plan;
    s_engine = engine;
    s_atomics_clean =
      (workers > 1 || plan <> None)
      && not (Conflict.atomic_result_used modul.m_prog kernel);
    s_extern_shared =
      List.filter_map
        (function
          | TVar d when d.d_storage.s_extern && type_space d.d_ty = AS_local ->
            Some d.d_name
          | _ -> None)
        modul.m_prog }

(* ------------------------------------------------------------------ *)
(* Stage 2: execute                                                    *)
(* ------------------------------------------------------------------ *)

(* A lockstep worker's state: the warp plan, its hazard flags and log
   (checked and cleared at each warp boundary and barrier), and the
   recorders the memory hooks feed the log from. *)
type lanes = {
  l_plan : Lockstep.plan;
  l_flags : Lockstep.flags;
  l_log : Lockstep.hlog;
  l_access : int -> Vm.Memory.access_kind -> addr_space -> int -> int -> unit;
  l_atomic : int -> addr_space -> int -> int -> Conflict.klass -> unit;
}

(* The lockstep hooks of one worker: every plain access lands in the
   hazard log, every RMW with its commutativity class. *)
let lockstep_hooks plan =
  let flags = Lockstep.make_flags () and log = Lockstep.make_hlog () in
  { l_plan = plan;
    l_flags = flags;
    l_log = log;
    l_access =
      (fun lane kind space addr size ->
         Lockstep.record log flags ~lane kind space addr size);
    l_atomic =
      (fun lane space addr size klass ->
         Lockstep.record_atomic log ~lane space addr size klass) }

(* One worker owns everything mutable a block touches that is not a
   shared arena: local/private arenas, counters, access streams, the
   scheduler's index cells and its interpreter context.  The sequential
   engine is a single worker run over all blocks in order; the parallel
   engine is N workers pulling blocks from a shared counter. *)
type worker = {
  w_counters : Counters.t;
  w_attr : Attr.t option;
  w_cur : cur;
  w_site : int ref;            (* innermost SSite of the running item *)
  w_local : Vm.Memory.arena;
  w_private : Vm.Memory.arena option array;
  w_streams : Counters.stream array;
  w_bstreams : Counters.bstream array option;
  w_ctx : Vm.Interp.ctx;       (* copied per item, or per block under lockstep *)
  w_par : bool;
  w_log : Conflict.block_log option ref;  (* the running block's, when [w_par] *)
  mutable w_logs : Conflict.block_log list;
  mutable w_blocks : int;      (* blocks this worker executed *)
  w_lanes : lanes option;      (* under lockstep *)
}

(* A worker's memory hooks, built once from [par] and its engine.  Every
   access feeds the item's stream for the coalescing model.  When
   parallel, an access to a shared space is also logged for the
   cross-block check, and under lockstep every one lands in the warp
   hazard log.  An RMW logs its own cell with its commutativity class (a
   float RMW never commutes: rounding is order-sensitive), so its raw
   load and store do not register again; when parallel, an RMW on a
   shared space takes the memory controller's lock. *)
let memory_hooks ~par ~lanes ~counters ~streams ~(cur : cur) ~site ~log =
  let in_atomic = ref false in
  let stream _kind space addr size =
    match space with
    | AS_global | AS_constant | AS_local ->
      Counters.stream_push streams.(cur.item) space ~addr ~size ~site:!site
    | AS_private | AS_none ->
      counters.Counters.private_accesses <-
        counters.Counters.private_accesses + 1
  in
  if not par && lanes = None then (stream, atomic_rmw)
  else
    let on_access kind space addr size =
      stream kind space addr size;
      if not !in_atomic then begin
        (* [log] holds a block log only when parallel *)
        (match space, !log with
         | (AS_global | AS_constant | AS_none), Some bl ->
           let a = Conflict.tag space addr in
           (match kind with
            | Vm.Memory.Load -> Conflict.record_read bl a size
            | Vm.Memory.Store -> Conflict.record_write bl a size)
         | _ -> ());
        match lanes with
        | Some l -> l.l_access cur.item kind space addr size
        | None -> ()
      end
    in
    let rmw klass ctx p f =
      let space, addr, elt = atomic_resolve ctx p in
      let layout = ctx.Vm.Interp.layout in
      let klass =
        match Vm.Layout.resolve layout elt with
        | TScalar s when not (is_float_scalar s) -> klass
        | _ -> Conflict.Kother
      in
      let size = Vm.Layout.sizeof layout elt in
      (match lanes with
       | Some l -> l.l_atomic cur.item space addr size klass
       | None -> ());
      let locked =
        par
        && (match space with
            | AS_global | AS_constant | AS_none -> true
            | AS_local | AS_private -> false)
      in
      (match !log with
       | Some bl when locked ->
         Conflict.record_atomic bl (Conflict.tag space addr) size klass
       | _ -> ());
      in_atomic := true;
      if locked then Mutex.lock atomics_lock;
      match atomic_apply ctx space addr elt f with
      | r ->
        if locked then Mutex.unlock atomics_lock;
        in_atomic := false;
        r
      | exception e ->
        if locked then Mutex.unlock atomics_lock;
        in_atomic := false;
        raise e
    in
    (on_access, rmw)

(* An item's private arena is created on its first private access:
   compiled kernels keep most locals in frame slots, and most items of
   most launches never touch one. *)
let private_arena arenas i =
  match arenas.(i) with
  | Some a -> a
  | None ->
    let a = Vm.Memory.create ~initial:2048 (Printf.sprintf "private.%d" i) in
    arenas.(i) <- Some a;
    a

let make_worker s ~par ~plan =
  let counters = Counters.create () in
  (* per-site attribution, for a module with sites: every counted event
     is charged to the site of the statement that caused it, and
     per-item branch decisions are recorded for the warp-divergence
     counter.  Off otherwise — the extra stream pushes cost real time
     on the hot path. *)
  let attr = if s.s_attr then Some (Attr.create ()) else None in
  (* the running item's index view; [set_item] rewrites it in place *)
  let cur =
    { gid = [| 0; 0; 0 |]; lid = [| 0; 0; 0 |]; grp = [| 0; 0; 0 |];
      item = 0; tid = s.s_bdim; bid = s.s_bdim }
  in
  (* maintained by the VM's SSite save/restore and re-established on
     barrier resume *)
  let site = ref 0 in
  let local = Vm.Memory.create ~initial:8192 "local" in
  let privates = Array.make s.s_threads None in
  let arena_of : addr_space -> Vm.Memory.arena = function
    | AS_global -> s.s_dev.Device.global
    | AS_constant -> s.s_dev.Device.constant
    | AS_local -> local
    | AS_private -> private_arena privates cur.item
    | AS_none -> s.s_host
  in
  (* access streams for warp grouping; branch-decision streams in
     attribution mode only (extra pushes on every branch cost real time
     otherwise) *)
  let streams = Array.init s.s_threads (fun _ -> Counters.stream_create ()) in
  let bstreams =
    Option.map
      (fun _ -> Array.init s.s_threads (fun _ -> Counters.bstream_create ()))
      attr
  in
  let log = ref None in
  let lanes = Option.map lockstep_hooks plan in
  let on_access, rmw =
    memory_hooks ~par ~lanes ~counters ~streams ~cur ~site ~log
  in
  let on_op =
    match attr with
    | None -> fun cls -> Counters.record_op counters cls
    | Some a ->
      fun cls ->
        Counters.record_op counters cls;
        let st = Attr.get a !site in
        st.Attr.ops <- st.Attr.ops + 1
  in
  let on_branch =
    Option.map
      (fun bs taken -> Counters.bstream_push bs.(cur.item) ~site:!site taken)
      bstreams
  in
  (* IR-pass elimination credits: only materialised when attributing
     (a plain module's forms emit no [Elim] closure), where the report
     shows ops + ops_eliminated = the unoptimized ops count per site *)
  let on_elim =
    Option.map
      (fun a n ->
         let st = Attr.get a !site in
         st.Attr.ops_eliminated <- st.Attr.ops_eliminated + n)
      attr
  in
  let special_ident = function
    | "threadIdx" -> Some cur.tid
    | "blockIdx" -> Some cur.bid
    | "blockDim" -> Some s.s_bdim
    | "gridDim" -> Some s.s_gdim
    | "warpSize" -> Some s.s_warp
    | "CLK_LOCAL_MEM_FENCE" -> Some clk_local_tv
    | "CLK_GLOBAL_MEM_FENCE" -> Some clk_global_tv
    | _ -> None
  in
  (* extras are appended last so they override defaults on name clash *)
  let externals =
    kernel_externals ~cur ~rmw ~global_size:s.s_global ~local_size:s.s_local
      ~num_groups:s.s_groups
    @ s.s_extra
  in
  { w_counters = counters;
    w_attr = attr;
    w_cur = cur;
    w_site = site;
    w_local = local;
    w_private = privates;
    w_streams = streams;
    w_bstreams = bstreams;
    w_ctx =
      Vm.Interp.make ~prog:s.s_prog ~arena_of ~externals ~special_ident
        ~on_access ~on_op ~cur_site:site ?on_branch ~stack_space:AS_private
        ~globals:s.s_globals ?on_elim ?observer:s.s_observer ();
    w_par = par;
    w_log = log;
    w_logs = [];
    w_blocks = 0;
    w_lanes = lanes }

(* One block's context, shared by both block runners. *)
type group = {
  g_grp : int array;           (* block index *)
  g_base : int array;          (* global id of the block's first item *)
  g_bid : Vm.Interp.tval;
  g_locals : (string, int) Hashtbl.t;  (* makes __local declarations idempotent *)
  g_dynshared : int option;    (* CUDA extern __shared__ block *)
  g_args : Vm.Interp.tval list;   (* as passed, for the interpreter *)
  g_argv : Vm.Interp.tval array;  (* converted, for the IR *)
  (* parked items (or warps): local id, innermost site, continuation *)
  g_waiting : (int * int * (unit, unit) Effect.Deep.continuation) Queue.t;
}

let set_item s w g lid_lin =
  let cur = w.w_cur in
  let lid = s.s_lids.(lid_lin) in
  cur.item <- lid_lin;
  cur.gid.(0) <- g.g_base.(0) + lid.(0);
  cur.gid.(1) <- g.g_base.(1) + lid.(1);
  cur.gid.(2) <- g.g_base.(2) + lid.(2);
  cur.lid <- lid;
  cur.grp <- g.g_grp;
  cur.tid <- s.s_tids.(lid_lin);
  cur.bid <- g.g_bid

(* The context both block runners start from: a copy of the worker's
   base context with the block's __local table, and a scope holding the
   dynamic shared block's aliases.  IR code binds locals in its own
   frame, so it needs the scope only for those aliases. *)
let group_ctx s w g =
  let ctx =
    { w.w_ctx with Vm.Interp.scopes = []; group_locals = Some g.g_locals }
  in
  if s.s_compiled = None || g.g_dynshared <> None then begin
    Vm.Interp.push_scope ctx;
    Option.iter
      (fun addr ->
         let b =
           { Vm.Interp.b_space = AS_local; b_addr = addr;
             b_ty = TArr (TScalar Char, None) }
         in
         Vm.Interp.bind_raw ctx "$dynshared" b;
         List.iter (fun n -> Vm.Interp.bind_raw ctx n b) s.s_extern_shared)
      g.g_dynshared
  end;
  ctx

let reset_private w lid = Option.iter Vm.Memory.reset w.w_private.(lid)

(* Run [f lid] as a fibre that parks at each barrier, with its innermost
   site so the round can be attributed and the site restored. *)
let run_root w g lid f =
  Effect.Deep.match_with f lid
    { retc = (fun () -> ());
      exnc = (fun e -> raise e);
      effc =
        (fun (type a) (eff : a Effect.t) ->
           match eff with
           | Vm.Interp.Barrier _ ->
             (* the GADT match refines a = unit *)
             Some
               (fun (k : (a, unit) Effect.Deep.continuation) ->
                  Queue.add (lid, !(w.w_site), k) g.g_waiting)
           | _ -> None) }

(* Barrier rounds: resume every parked fibre, in parking order, until
   none parks.  Each round is charged to the site the first parked item
   was executing. *)
let rounds s w g =
  while not (Queue.is_empty g.g_waiting) do
    let c = w.w_counters in
    c.Counters.barriers <- c.Counters.barriers + 1;
    (match w.w_attr with
     | Some a ->
       let _, site, _ = Queue.peek g.g_waiting in
       let st = Attr.get a site in
       st.Attr.barriers <- st.Attr.barriers + 1
     | None -> ());
    for _ = 1 to Queue.length g.g_waiting do
      let lid, site, k = Queue.pop g.g_waiting in
      set_item s w g lid;
      w.w_site := site;
      Effect.Deep.continue k ()
    done
  done

(* The scalar block runner: the items in local-id order, each on a
   fibre of its own when it may suspend at a barrier, else as a plain
   call (a barrier reached anyway raises Effect.Unhandled, a fault). *)
let run_items s w g =
  let item lid =
    set_item s w g lid;
    reset_private w lid;
    let ctx = group_ctx s w g in
    match s.s_compiled with
    | Some f -> ignore (f.Ir.Emit.run ctx g.g_argv)
    | None -> ignore (Vm.Interp.call_function ctx s.s_kernel g.g_args)
  in
  if s.s_fibre then begin
    for lid = 0 to s.s_threads - 1 do
      run_root w g lid item
    done;
    rounds s w g
  end
  else
    for lid = 0 to s.s_threads - 1 do
      item lid
    done

(* The warp block runner (lockstep): one context per block and one
   fibre per warp; the same rounds resume parked warps.  On any exception it
   unwinds the parked warps, so their arena marks and call depth
   release, and re-raises it for the rollback. *)
let run_warps s w g l =
  try
    for lid = 0 to s.s_threads - 1 do
      reset_private w lid
    done;
    let ctx = group_ctx s w g in
    let on_access = w.w_ctx.Vm.Interp.on_access in
    let k_access lane kind space addr size =
      w.w_cur.item <- lane;
      on_access kind space addr size
    in
    let k_idx which lane d =
      let lid = s.s_lids.(lane) in
      match which with
      | `Gid ->
        idx_of
          [| g.g_base.(0) + lid.(0); g.g_base.(1) + lid.(1);
             g.g_base.(2) + lid.(2) |]
          d
      | `Lid -> idx_of lid d
      | `Grp -> idx_of g.g_grp d
    in
    (* batched charge: same totals as n on_op calls at [site] (-1 =
       wherever the site cell points), without n closure crossings.  The
       n = 0 guard matters for attribution: a zero charge must not
       materialise an Attr row the scalar engine never creates. *)
    let k_charge site cls n =
      if n > 0 then begin
        Counters.record_ops w.w_counters cls n;
        match w.w_attr with
        | None -> ()
        | Some a ->
          let st = Attr.get a (if site >= 0 then site else !(w.w_site)) in
          st.Attr.ops <- st.Attr.ops + n
      end
    in
    (* the warp engine knows the lane, so it bypasses the set-lane
       indirection on_branch needs *)
    let k_branch =
      Option.map
        (fun bs lane taken ->
           Counters.bstream_push bs.(lane) ~site:!(w.w_site) taken)
        w.w_bstreams
    in
    let hooks =
      { Lockstep.k_ctx = ctx; k_set_lane = set_item s w g; k_access; k_idx;
        k_charge; k_branch; k_flags = l.l_flags; k_log = l.l_log;
        k_atomics_clean = s.s_atomics_clean }
    in
    let warp = s.s_dev.Device.hw.warp_size in
    for wd = 0 to ((s.s_threads + warp - 1) / warp) - 1 do
      let lane0 = wd * warp in
      let nlanes = Int.min warp (s.s_threads - lane0) in
      run_root w g lane0 (fun lane0 ->
          Lockstep.run_warp l.l_plan hooks ~lane0 ~nlanes ~args:g.g_argv)
    done;
    rounds s w g
  with e ->
    while not (Queue.is_empty g.g_waiting) do
      let _, _, k = Queue.pop g.g_waiting in
      try Effect.Deep.discontinue k e with _ -> ()
    done;
    raise e

(* Run block [b] on worker [w]: set up its group context, run it under
   the worker's block runner, then cost the group's memory traffic. *)
let run_block s w b =
  w.w_blocks <- w.w_blocks + 1;
  let nx = s.s_groups.(0) and ny = s.s_groups.(1) in
  let grp = [| b mod nx; (b / nx) mod ny; b / (nx * ny) |] in
  if w.w_par then w.w_log := Some (Conflict.block_log b);
  Vm.Memory.reset w.w_local;
  (* dynamic shared memory (CUDA extern __shared__), then one allocation
     per OpenCL dynamic __local argument *)
  let dynshared =
    if s.s_cfg.dyn_shared > 0 then
      Some (Vm.Memory.alloc w.w_local ~align:16 s.s_cfg.dyn_shared)
    else None
  in
  let args =
    List.map
      (function
        | Arg_val v -> v
        | Arg_local bytes ->
          let addr = Vm.Memory.alloc w.w_local ~align:16 (Int.max 1 bytes) in
          Vm.Interp.tv
            (VInt (Vm.Value.make_ptr AS_local addr))
            (TPtr (TQual (AS_local, TScalar Char))))
      s.s_args
  in
  let argv =
    match s.s_compiled with
    | Some f when s.s_local_args ->
      Array.of_list
        (List.mapi
           (fun i (a, v) ->
              match a with
              | Arg_val _ -> s.s_argv.(i)
              | Arg_local _ -> f.Ir.Emit.convert i v)
           (List.combine s.s_args args))
    | _ -> s.s_argv
  in
  let g =
    { g_grp = grp;
      g_base = Array.map2 ( * ) grp s.s_local;
      g_bid = uint3 grp;
      g_locals = Hashtbl.create 8;
      g_dynshared = dynshared;
      g_args = args;
      g_argv = argv;
      g_waiting = Queue.create () }
  in
  (match w.w_lanes with
   | None -> run_items s w g
   | Some l -> run_warps s w g l);
  let dev = s.s_dev in
  Counters.finish_group w.w_counters ?attr:w.w_attr ?branches:w.w_bstreams
    ~warp_size:dev.Device.hw.warp_size ~smem_word:dev.Device.fw.smem_word
    ~banks:dev.Device.hw.smem_banks ~model_conflicts:dev.Device.model_bank_conflicts
    w.w_streams;
  Array.iter (fun st -> st.Counters.len <- 0) w.w_streams;
  Option.iter (Array.iter (fun st -> st.Counters.b_len <- 0)) w.w_bstreams;
  if w.w_par then begin
    Option.iter (fun bl -> w.w_logs <- bl :: w.w_logs) !(w.w_log);
    w.w_log := None
  end

type fault = exn * Printexc.raw_backtrace

(* One attempt: [n] fresh workers pull blocks from a shared counter, on
   the domain pool when [par].  A worker stops at its first exception;
   the attempt returns its workers and the first fault in worker
   order. *)
let attempt s ~par ~plan n : worker array * fault option =
  let workers = Array.init n (fun _ -> make_worker s ~par ~plan) in
  let next = Atomic.make 0 in
  let faults = Array.make n None in
  let body i =
    let rec loop () =
      let b = Atomic.fetch_and_add next 1 in
      if b < s.s_blocks then
        match run_block s workers.(i) b with
        | () -> loop ()
        | exception e -> faults.(i) <- Some (e, Printexc.get_raw_backtrace ())
    in
    loop ()
  in
  if par then Pool.run (Lazy.force pool) ~workers:n body else body 0;
  (workers,
   Array.fold_left
     (fun acc f -> match acc with None -> f | Some _ -> acc)
     None faults)

(* What the execute stage hands on: the workers whose counters make the
   result, and the launch's pool and engine outcomes. *)
type executed = {
  x_workers : worker array;
  x_blocks : int array;        (* pool telemetry: blocks per worker *)
  x_outcome : parallel_outcome;
  x_engine : engine_outcome;
}

(* Run the blocks, under the one rollback protocol.  The sequential
   scalar engine is the semantics: its run is final, and a fault it
   meets is the launch's.  Any other attempt (parallel, or lockstep)
   runs from snapshots of the shared arenas, frozen while it runs in
   parallel.  A lockstep bail, a fault in the attempt or a cross-block
   conflict restores the snapshots and replays the launch sequentially
   on the scalar engine; the pool telemetry keeps the rolled-back
   parallel attempt's block distribution.  Returns the fault as a value. *)
let execute s : (executed, fault) result =
  let par = s.s_workers > 1 in
  let sequential ~outcome ~engine ~blocks =
    match attempt s ~par:false ~plan:None 1 with
    | ws, None ->
      Ok { x_workers = ws;
           x_blocks = Option.value blocks ~default:[| ws.(0).w_blocks |];
           x_outcome = outcome; x_engine = engine }
    | _, Some f -> Error f
  in
  if not par && s.s_plan = None then
    sequential ~outcome:Seq ~engine:s.s_engine ~blocks:None
  else begin
    let shared = [ s.s_dev.Device.global; s.s_dev.Device.constant; s.s_host ] in
    let snaps = List.map (fun a -> (a, Vm.Memory.snapshot a)) shared in
    if par then List.iter Vm.Memory.freeze shared;
    let ws, fault =
      Fun.protect
        ~finally:(fun () -> if par then List.iter Vm.Memory.thaw shared)
        (fun () -> attempt s ~par ~plan:s.s_plan s.s_workers)
    in
    let blocks = Array.map (fun w -> w.w_blocks) ws in
    let verdict =
      match fault with
      | Some (Lockstep.Bail reason, _) -> Some reason
      | Some (e, _) -> Some (Printexc.to_string e)
      | None when par ->
        Conflict.check
          (Array.fold_left (fun acc w -> w.w_logs @ acc) [] ws)
          ~atomics_clean:s.s_atomics_clean
      | None -> None
    in
    match verdict with
    | None ->
      Ok { x_workers = ws; x_blocks = blocks;
           x_outcome = (if par then Parallel s.s_workers else Seq);
           x_engine = s.s_engine }
    | Some reason ->
      List.iter (fun (a, snap) -> Vm.Memory.restore a snap) snaps;
      sequential
        ~outcome:(if par then Replayed reason else Seq)
        ~engine:(if s.s_plan = None then s.s_engine else Engine_bailed reason)
        ~blocks:(if par then Some blocks else None)
  end

(* ------------------------------------------------------------------ *)
(* Stages 3 and 4: merge, cost                                         *)
(* ------------------------------------------------------------------ *)

(* Counters and attribution across workers: every field is an additive
   event count, so the sums equal the sequential totals. *)
let merge x =
  match x.x_workers with
  | [| w |] -> (w.w_counters, w.w_attr)
  | ws ->
    let total = Counters.create () in
    Array.iter (fun w -> Counters.merge total w.w_counters) ws;
    let attr =
      Option.map
        (fun _ ->
           let t = Attr.create () in
           Array.iter (fun w -> Option.iter (Attr.merge t) w.w_attr) ws;
           t)
        ws.(0).w_attr
    in
    (total, attr)

let cost s x (counters, attr) =
  { counters;
    attr;
    block_threads = s.s_threads;
    n_blocks = s.s_blocks;
    occupancy =
      Occupancy.of_kernel s.s_dev x.x_workers.(0).w_ctx.Vm.Interp.layout
        s.s_kernel ~block_threads:s.s_threads ~dyn_shared:s.s_cfg.dyn_shared;
    pool = { outcome = x.x_outcome; worker_blocks = x.x_blocks };
    engine = x.x_engine }

(* Launch a kernel of the loaded module [modul] on a device, under the
   device's configuration: setup, execute, merge and cost, in order; a
   fault the blocks met is re-raised unchanged.

   Device globals must already be materialised in [globals].
   [host_arena] backs AS_none so kernels can read host constants if a
   runtime chooses to pass them (not used by well-formed code). *)
let launch ~dev ~modul ~globals ~host_arena ?(extra_externals = []) ?observer
    ~kernel ~cfg ~args () : launch_stats =
  let s =
    setup ~dev ~modul ~globals ~host_arena ~extra:extra_externals ~observer
      ~kernel ~cfg ~args
  in
  match execute s with
  | Ok x -> cost s x (merge x)
  | Error (e, bt) -> Printexc.raise_with_backtrace e bt
