(** OpenCL-to-CUDA device-code translation (paper §3.5-§4, Figures 2/5).

    The input is an OpenCL C program; the output is a CUDA program plus
    per-kernel metadata telling the wrapper runtime
    ({!Bridge.Cl_on_cuda}) how each original argument slot must be fed at
    launch time. *)

exception Untranslatable of string

(** What became of each original kernel parameter slot. *)
type param_role =
  | P_keep        (** passed through unchanged *)
  | P_local_size  (** was a dynamic [__local T*]; now a [size_t], with the
                      pointer derived from the [extern __shared__] pool at
                      an accumulated offset (Fig. 5) *)
  | P_const_size  (** was a dynamic [__constant T*]; now a [size_t] over
                      the fixed [__OC2CU_const_mem] pool (§4.2) *)

type kernel_info = {
  ki_name : string;
  ki_roles : param_role list;  (** one role per original parameter *)
}

type result = {
  cuda_prog : Minic.Ast.program;
  kernels : kernel_info list;
}

(** Names of the emitted memory pools, as they appear in translated
    code; the wrapper runtime locates the constant pool by name. *)

val shared_pool : string
val const_pool : string
val max_const_size : int

(** Translate a parsed OpenCL program, with [attribute] (default false)
    annotating its source sites first ({!Minic.Site.annotate}). *)
val translate : ?attribute:bool -> Minic.Ast.program -> result

(** Source-to-source entry point: kernel.cl -> kernel.cl.cu (Fig. 2).
    Returns the printed CUDA source together with the metadata. *)
val translate_source : ?attribute:bool -> string -> string * result
