(** Host-program execution harness.

    Original and translated CUDA host code is ordinary C (Mini-C); this
    module supplies the libc-level externals every host program needs —
    printf with output capture, malloc over the host arena, memcpy,
    memset, a deterministic rand — plus the glue to run [main()].  The
    cuda* calls original and translated CUDA host programs share are
    bound once, by {!Cuda_api}, over the simulated CUDA runtime
    ({!Cuda_native}) or wrappers over OpenCL ({!Cuda_on_cl}); each of
    those two adds the calls only its direction has. *)

exception Host_error of string

type session = {
  arena : Vm.Memory.arena;   (** the program's host memory *)
  out : Buffer.t;            (** captured printf output *)
  mutable rng : int64;       (** deterministic rand() state *)
}

val make_session : unit -> session

(** Format the printf subset benchmark code uses (flags/width/precision,
    d i u x X c s f e g p, l/ll/h length modifiers). *)
val format_printf : Vm.Interp.ctx -> string -> Vm.Interp.tval list -> string

(** The libc externals bound into every host program. *)
val libc_externals :
  session -> (string * (Vm.Interp.ctx -> Vm.Interp.tval list -> Vm.Interp.tval)) list

(** The host compile of a program under an IR pass set: every function
    lowered, with string literals and [<<<...>>>] kernel calls accepted
    (a device compile rejects both); [special_ident]'s names are typed
    by their values. *)
val compile :
  passes:Ir.Pipeline.config -> special_ident:(string -> Vm.Interp.tval option) ->
  Minic.Ast.program -> Ir.Emit.t

(** Build an interpreter context over [session] with the given runtime
    externals, initialise host globals, execute [main()], and return the
    captured output, also when the program calls [exit()].  Under
    [config]'s [Compiled] backend, [main] runs through the program's
    host {!compile} under [config]'s pass set, made afresh per call;
    functions the lowering rejects, [main] included, run on the
    interpreter.  Under [Interp], host code is interpreted.  [globals]
    seeds device-symbol bindings (textures, __device__ variables) so
    host identifiers resolve; [launch_handler] services CUDA
    [<<<...>>>] kernel calls, whose operands both engines evaluate
    first (see {!Vm.Interp.launch_call}). *)
val run_main :
  config:Gpusim.Config.t -> session:session -> prog:Minic.Ast.program ->
  arena_of:(Minic.Ast.addr_space -> Vm.Memory.arena) ->
  externals:(string * (Vm.Interp.ctx -> Vm.Interp.tval list -> Vm.Interp.tval)) list ->
  special_ident:(string -> Vm.Interp.tval option) ->
  ?globals:(string, Vm.Interp.binding) Hashtbl.t ->
  ?launch_handler:(Vm.Interp.ctx -> Vm.Interp.launch_call -> Vm.Interp.tval) ->
  unit -> string

(** Named constants host code expects (NULL, cudaMemcpy kinds, CL_TRUE,
    RAND_MAX, ...). *)
val host_constants : string -> Vm.Interp.tval option

(** A CUDA host program's printed output and simulated duration. *)
type run = {
  r_output : string;
  r_time_ns : float;
}

(** Run a CUDA host program's [main()] on [dev] ({!run_main} under the
    device's configuration and {!host_constants}) over [session], whose
    runtime the caller has set up: host pointers reach the session
    arena, device pointers [dev]'s global and constant arenas, and any
    other space is a [Host_error].  [r_time_ns] is the simulated time
    from the call to the end of [main()]. *)
val run :
  dev:Gpusim.Device.t -> session:session -> prog:Minic.Ast.program ->
  externals:(string * (Vm.Interp.ctx -> Vm.Interp.tval list -> Vm.Interp.tval)) list ->
  ?globals:(string, Vm.Interp.binding) Hashtbl.t ->
  ?launch_handler:(Vm.Interp.ctx -> Vm.Interp.launch_call -> Vm.Interp.tval) ->
  unit -> run
