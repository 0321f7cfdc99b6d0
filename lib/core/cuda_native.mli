(** Run an original CUDA application natively.

    Device code is loaded as a module on the simulated device, host code
    runs ({!Hostrun.run}) with the cuda* calls it shares with translated
    programs bound once ({!Cuda_api}) to the simulated CUDA runtime, and
    [<<<...>>>] kernel calls go through the launch handler, which
    receives their evaluated operands — the "original CUDA on Titan"
    configuration of Figures 7 and 8. *)

(** Execute a .cu program on [dev]: its printed output and simulated
    duration. *)
val run : dev:Gpusim.Device.t -> src:string -> Hostrun.run
