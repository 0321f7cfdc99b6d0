(** Run an original CUDA application natively.

    Device code is loaded as a module on the simulated device, host code
    runs ({!Hostrun.run_main}) with cuda* bound to the simulated CUDA
    runtime, and [<<<...>>>] kernel calls go through the launch handler,
    which receives their evaluated operands — the
    "original CUDA on Titan" configuration of Figures 7 and 8. *)

exception Native_error of string

type run_result = {
  output : string;      (** captured printf output *)
  time_ns : float;      (** simulated duration of the whole run *)
  kernel_launches : int;
}

(** Decode a launch-configuration value that is either an int or a dim3
    struct (shared with the translated-host runtime). *)
val decode_dim3 : Vm.Interp.ctx -> Vm.Interp.tval -> int * int * int

(** Build a cudaChannelFormatDesc for a scalar type on the host stack
    (the [cudaCreateChannelDesc<T>()] wrapper). *)
val channel_desc_of_scalar : Vm.Interp.ctx -> Minic.Ast.scalar -> Vm.Interp.tval

(** Scalar type described by a cudaChannelFormatDesc value. *)
val scalar_of_channel_desc : Vm.Interp.ctx -> Vm.Interp.tval -> Minic.Ast.scalar

(** Execute a .cu program on [dev] and collect its output. *)
val run : dev:Gpusim.Device.t -> src:string -> run_result
