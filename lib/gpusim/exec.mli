(** NDRange / grid execution engine.

    The work-items of a group are coroutines multiplexed on OCaml
    fibres: an item runs until it finishes or performs the
    {!Vm.Interp.Barrier} effect, at which point the scheduler parks its
    continuation and runs the next item.  When every live item of the
    group has reached the barrier, all are resumed — faithful
    bulk-synchronous semantics including values communicated through
    [__local]/[__shared__] memory.

    Work-groups run sequentially when the device's configuration asks
    for 1 domain, and otherwise on a persistent pool of OCaml domains.
    A launch is four stages in order: setup (geometry, compiled form,
    engine choice), execute (the blocks), merge (counters and
    attribution across workers) and cost (occupancy).  Execute has one
    rollback protocol for the parallel and the lockstep engines: their
    attempt runs from snapshots of the shared arenas, and a cross-block
    dependence, a lockstep hazard or a fault restores them and replays
    the launch sequentially on the scalar engine.  So every observable
    output (memory, counters, traces, exceptions) is byte-identical to
    the sequential scalar engine.

    A launch reads its backend, engine, domain count and IR pass set
    from the device ({!Device.t.config}), and its compiled kernels and
    whether to attribute per site from the loaded module it is given;
    it reads no process state. *)

exception Launch_error of string

(** What a {!launch} actually did — observability for the determinism
    tests. *)
type parallel_outcome =
  | Seq                  (** sequential engine: 1 domain or 1 block *)
  | Parallel of int      (** ran concurrently on N workers, accepted *)
  | Replayed of string   (** parallel attempt rolled back: why *)

(** One kernel argument as the launcher receives it. *)
type karg =
  | Arg_val of Vm.Interp.tval  (** scalar, pointer or handle *)
  | Arg_local of int           (** OpenCL dynamic [__local] size in bytes:
                                   allocated fresh per work-group *)

type config = {
  global_size : int array;  (** 3 entries; OpenCL convention: work-items *)
  local_size : int array;
  dyn_shared : int;         (** CUDA [<<< , , n >>>] extra shared bytes *)
}

(** Kernel execution backend.  [Compiled] (the default) lowers each
    loaded module once per pass set through the optimizing IR
    ({!Ir.Lower}, the configuration's {!Ir.Pipeline} passes, {!Ir.Emit})
    and reuses the closures across all work-items and launches; [Interp]
    re-walks the AST per work-item with {!Vm.Interp}.  The interpreter
    also runs, under [Compiled], a kernel or helper the lowering
    rejected and every launch with an observer.  Both backends produce
    identical buffers.  With no passes enabled their {!Counters.t} are
    equal except [private_accesses], which on [Compiled] is at most the
    interpreter's: values the IR keeps in registers charge no private
    traffic.  Passes may also remove operations. *)
type backend = Config.backend = Interp | Compiled

(** Types of the launcher-provided rvalue specials ([threadIdx],
    [warpSize], ...), for compile-time member resolution.  Exposed so
    out-of-engine IR builds ([oclcu translate --ir-dump], tests) resolve
    them the same way a launch does. *)
val special_ty : string -> Minic.Ast.ty option

(** Execution engine within a block: [Scalar] multiplexes per-item
    coroutines; [Lockstep] executes whole warps in lockstep over the IR
    ({!Gpusim.Lockstep}), falling back per kernel when the lane-uniformity
    analysis rejects it and bailing out to a scalar rerun on a cross-lane
    hazard.  Either way every observable output (buffers, {!Counters.t},
    per-site attribution) is byte-identical to [Scalar]. *)
type engine = Config.engine = Scalar | Lockstep

(** The process defaults {!Config.default} reads, initialised from
    [OCLCU_BACKEND], [OCLCU_ENGINE] and [OCLCU_DOMAINS].  A launch never
    reads them. *)
val backend : backend ref
val engine : engine ref
val domains : int ref

(** What the engine selection actually did for one launch. *)
type engine_outcome =
  | Engine_scalar              (** scalar engine selected *)
  | Engine_lockstep            (** warps ran in lockstep, accepted *)
  | Engine_fallback of string  (** kernel ineligible: why; scalar ran *)
  | Engine_bailed of string    (** lockstep aborted mid-launch: why;
                                   rolled back and rerun scalar *)

val dim3_of : int array -> int -> int

(** How the domain pool divided the launch's blocks.
    [worker_blocks.(i)] is the number of blocks worker [i] executed —
    length 1 on the sequential engine; on a rolled-back attempt it
    reports the aborted parallel distribution (the replay cause is in
    [outcome]). *)
type pool_stats = {
  outcome : parallel_outcome;
  worker_blocks : int array;
}

type launch_stats = {
  counters : Counters.t;
  attr : Attr.t option;
  (** per-site attribution, present when the module's program carries
      sites ({!Minic.Site.present}): every counted event charged to the
      site of the statement that caused it, plus per-item branch
      decisions for the warp-divergence counter *)
  block_threads : int;
  n_blocks : int;
  occupancy : Occupancy.result;
  pool : pool_stats;
  engine : engine_outcome;
}

(** A loaded module: a device program and the compiled forms of its
    kernels.  It compiles on its first launch under a pass set and keeps
    that form, with its lockstep plans, for every later launch on any
    device; a second pass set compiles a second form. *)
type modul

val load : Minic.Ast.program -> modul

val program : modul -> Minic.Ast.program

(** How many forms the module has compiled: one per pass set it ran
    under on the compiled backend. *)
val compiled_forms : modul -> int

(** Launch [kernel] of the loaded [modul] on [dev], under [dev]'s
    configuration.

    [globals] must already hold the module's device-global bindings;
    [host_arena] backs host-space pointers a runtime may pass through;
    [extra_externals] append (and may override) the built-in kernel
    externals — the runtimes use this for image and texture fetches;
    [observer] installs {!Vm.Interp.observer} hooks in every work-item's
    context (the layered translation validator uses this).
    The global size must be divisible by the local size.  [launch]
    checks no arguments: a kernel parameter without an argument raises
    [Vm.Interp.Error "missing argument N in call to K"] as the first
    work-item enters the kernel, on either backend.  A fault in the blocks escapes as the sequential scalar
    engine raises it, with the buffers as that engine left them.
    @raise Launch_error on bad geometry, or a wrong atomic arity. *)
val launch :
  dev:Device.t -> modul:modul ->
  globals:(string, Vm.Interp.binding) Hashtbl.t ->
  host_arena:Vm.Memory.arena ->
  ?extra_externals:(string * (Vm.Interp.ctx -> Vm.Interp.tval list -> Vm.Interp.tval)) list ->
  ?observer:Vm.Interp.observer ->
  kernel:Minic.Ast.func -> cfg:config -> args:karg list -> unit ->
  launch_stats
