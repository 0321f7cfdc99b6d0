(** CUDA-to-OpenCL translation (paper §3.4-§5, Figure 3).

    A .cu program is split into an OpenCL device program (main.cu.cl) and
    a host program (main.cu.cpp).  Host code is left untouched except for
    the three constructs that cannot be wrapped — kernel calls,
    [cudaMemcpyToSymbol] and [cudaMemcpyFromSymbol]; everything else
    keeps calling cuda* functions, which the wrapper runtime
    ({!Bridge.Cuda_on_cl}) implements over OpenCL. *)

exception Untranslatable of string

(** A device symbol that became a buffer-backed kernel parameter:
    runtime-initialised [__constant__] variables and all [__device__]
    globals (§4.2, §4.3). *)
type sym_info = {
  sy_name : string;
  sy_space : Minic.Ast.addr_space;  (** [AS_global] or [AS_constant] *)
  sy_ty : Minic.Ast.ty;
}

(** A texture reference that became an image + sampler parameter pair
    (§5). *)
type tex_info = {
  tx_name : string;
  tx_dim : int;
  tx_scalar : Minic.Ast.scalar;
  tx_mode : Minic.Ast.read_mode;
}

(** Per-kernel metadata: the appended parameters, in the fixed order the
    rewritten host code and the wrapper runtime both rely on — dynamic
    shared memory first, then symbols, then texture pairs. *)
type kmeta = {
  km_name : string;
  km_dynshared : string option;
  km_symbols : string list;
  km_textures : string list;
}

type result = {
  cl_prog : Minic.Ast.program;    (** device program (main.cu.cl) *)
  host_prog : Minic.Ast.program;  (** rewritten host program *)
  kmetas : kmeta list;
  symbols : sym_info list;
  textures : tex_info list;
}

(** Translate a parsed CUDA program, with [attribute] (default false)
    annotating its source sites first ({!Minic.Site.annotate}).
    @raise Untranslatable on constructs the checker should have caught. *)
val translate : ?attribute:bool -> Minic.Ast.program -> result

(** Source-to-source entry point: main.cu -> (main.cu.cl, main.cu.cpp). *)
val translate_source : string -> result

(** Printed sources of the two output files. *)

val cl_source : result -> string
val host_source : result -> string
