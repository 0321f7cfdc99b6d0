(* Device configuration: how a device builds and executes programs.

   A device carries one immutable [t] from its creation
   ({!Device.create}); builds and {!Exec.launch} read nothing else.  The
   refs below are the process defaults [default ()] starts from: the
   OCLCU_BACKEND, OCLCU_ENGINE and OCLCU_DOMAINS variables initialise
   them (OCLCU_IR_PASSES initialises [Ir.Pipeline.selected]), and nothing
   assigns them: the CLI, like any caller comparing settings, builds
   one config per setting. *)

(* Execution backend of kernels and host code (Bridge.Hostrun): the
   IR-compiled closures, or the tree-walking interpreter (for
   differential testing). *)
type backend = Interp | Compiled

(* Execution engine within a block: per-item coroutines, or whole warps
   in lockstep over the IR with a scalar fallback. *)
type engine = Scalar | Lockstep

let backend_of_string = function
  | "interp" | "interpreter" -> Some Interp
  | "compiled" | "compile" | "closure" -> Some Compiled
  | _ -> None

let engine_of_string = function
  | "scalar" | "item" -> Some Scalar
  | "lockstep" | "warp" -> Some Lockstep
  | _ -> None

let positive s =
  match int_of_string_opt (String.trim s) with
  | Some n when n >= 1 -> Some n
  | _ -> None

let backend = ref (Ir.Knob.read "OCLCU_BACKEND" backend_of_string ~default:Compiled)

let engine = ref (Ir.Knob.read "OCLCU_ENGINE" engine_of_string ~default:Scalar)

(* Worker domains per launch; defaults to the machine's core count. *)
let domains =
  ref (Ir.Knob.read "OCLCU_DOMAINS" positive
         ~default:(Domain.recommended_domain_count ()))

type t = {
  backend : backend;
  engine : engine;
  domains : int;               (* 1 = the sequential engine *)
  passes : Ir.Pipeline.config; (* compiled backend's IR pass set *)
  attribute : bool;            (* builds annotate sites (Minic.Site) *)
}

let default () =
  { backend = !backend; engine = !engine; domains = !domains;
    passes = !Ir.Pipeline.selected; attribute = false }

(* key=value rendering of the launch settings: the profiler's report
   header and the fuzz repro's config file print it, [of_kv] reads it. *)
let to_kv c =
  [ ("backend", match c.backend with Interp -> "interp" | Compiled -> "compiled");
    ("engine", match c.engine with Scalar -> "scalar" | Lockstep -> "lockstep");
    ("domains", string_of_int c.domains);
    ("passes", Ir.Pipeline.signature c.passes) ]

let to_string c =
  String.concat " " (List.map (fun (k, v) -> k ^ "=" ^ v) (to_kv c))

(* [default ()] with each of [to_kv]'s keys present in [kv] applied;
   other keys are ignored.
   @raise Failure on a value that does not parse. *)
let of_kv kv =
  let field k parse default =
    match List.assoc_opt k kv with
    | None -> default
    | Some v ->
      (match parse v with
       | Some x -> x
       | None -> failwith (Printf.sprintf "config: bad %s=%s" k v))
  in
  let d = default () in
  { d with backend = field "backend" backend_of_string d.backend;
    engine = field "engine" engine_of_string d.engine;
    domains = field "domains" positive d.domains;
    passes =
      field "passes" (fun s -> Result.to_option (Ir.Pipeline.parse s))
        d.passes }
