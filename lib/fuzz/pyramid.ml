(* The pyramid of equivalences.

   One generated case is executed six ways:

        OpenCL original      OCL->CUDA          CUDA->OCL round trip
        IR + Interp          IR + Interp        IR + Interp

   Within a stage the IR backend with no passes and the interpreter
   must agree on output bytes AND on Counters.t under
   [counter_refinement] (the timing model sees the same program).  Across
   stages only the output bytes must agree byte-for-byte: translation
   legitimately changes instruction counts (index built-ins become
   arithmetic over blockIdx/blockDim, atomicInc becomes a CAS loop), but
   the paper's §6 claim is that results are preserved. *)

open Minic.Ast

type kind = K_bytes | K_counters | K_crash

let kind_name = function
  | K_bytes -> "output-bytes"
  | K_counters -> "counters"
  | K_crash -> "crash"

type divergence = {
  d_stage : string;
  d_kind : kind;
  d_detail : string;
}

type verdict =
  | Agree
  | Skip of string
  | Diverge of divergence

(* ------------------------------------------------------------------ *)
(* Launch plans                                                        *)
(* ------------------------------------------------------------------ *)

type arg_spec =
  | A_buf of string * ty * int   (* global buffer: name, element type, bytes *)
  | A_local of int               (* dynamic __local, bytes *)
  | A_int of int
  | A_size of int                (* size_t scalar *)

type plan = {
  lp_prog : program;
  lp_args : arg_spec list;
  lp_dyn_shared : int;
}

let sizeof prog ty =
  Vm.Layout.sizeof (Vm.Layout.make_env prog) ty

let pointee pa =
  match pa.pa_ty with
  | TPtr t -> unqual t
  | TQual (_, TPtr t) -> unqual t
  | t -> unqual t

(* Stage A: launch the generated OpenCL kernel directly. *)
let plan_of_case (c : Gen.case) (prog : program) : plan =
  let k =
    match find_function prog Gen.kernel_name with
    | Some k -> k
    | None -> failwith "fuzz: generated program lost its kernel"
  in
  let args =
    List.map
      (fun pa ->
         (* the parser nests the address space inside the pointee:
            [__global int *p] is [TPtr (TQual (AS_global, int))] with
            [pa_space = AS_none] *)
         match unqual pa.pa_ty with
         | TPtr t ->
           let space =
             match pa.pa_space, t with
             | AS_none, TQual (sp, _) -> sp
             | sp, _ -> sp
           in
           let elt = unqual t in
           (match space with
            | AS_local -> A_local (c.c_lws * sizeof prog elt)
            | _ -> A_buf (pa.pa_name, elt, c.c_elems * sizeof prog elt))
         | TScalar SizeT -> A_size c.c_gws
         | _ -> A_int c.c_gws)
      k.fn_params
  in
  { lp_prog = prog; lp_args = args; lp_dyn_shared = 0 }

(* Stage B: map stage-A argument slots through the translator's roles.
   A dynamic __local slot became a size_t parameter; its bytes move into
   the launch configuration's dynamic-shared allocation (Fig. 5). *)
let plan_of_cuda (base : plan) (prog : program)
    (info : Xlat.Ocl_to_cuda.kernel_info) : plan =
  let dyn = ref 0 in
  let args =
    List.map2
      (fun role arg ->
         match role, arg with
         | Xlat.Ocl_to_cuda.P_keep, a -> a
         | (Xlat.Ocl_to_cuda.P_local_size | Xlat.Ocl_to_cuda.P_const_size),
           A_local bytes ->
           dyn := !dyn + bytes;
           A_size bytes
         | _, a -> a)
      info.Xlat.Ocl_to_cuda.ki_roles base.lp_args
  in
  { lp_prog = prog; lp_args = args; lp_dyn_shared = !dyn }

(* Stage C: the round-tripped kernel keeps the CUDA parameter list and
   appends (in order) the dynamic __local pool, symbol and texture
   parameters; generated kernels only ever have the pool. *)
let plan_of_roundtrip (cuda_plan : plan) (prog : program)
    (km : Xlat.Cuda_to_ocl.kmeta) : plan =
  let appended =
    match km.Xlat.Cuda_to_ocl.km_dynshared with
    | Some _ -> [ A_local cuda_plan.lp_dyn_shared ]
    | None -> []
  in
  { lp_prog = prog;
    lp_args = cuda_plan.lp_args @ appended;
    lp_dyn_shared = 0 }

(* ------------------------------------------------------------------ *)
(* Execution                                                           *)
(* ------------------------------------------------------------------ *)

let counter_fields (c : Gpusim.Counters.t) =
  let open Gpusim.Counters in
  [ ("n_items", c.n_items); ("n_groups", c.n_groups);
    ("ops_int", c.ops_int); ("ops_float", c.ops_float);
    ("ops_double", c.ops_double); ("ops_special", c.ops_special);
    ("ops_branch", c.ops_branch); ("barriers", c.barriers);
    ("gmem_transactions", c.gmem_transactions);
    ("gmem_accesses", c.gmem_accesses); ("gmem_bytes", c.gmem_bytes);
    ("smem_transactions", c.smem_transactions);
    ("smem_accesses", c.smem_accesses);
    ("smem_bank_conflict_extra", c.smem_bank_conflict_extra);
    ("private_accesses", c.private_accesses);
    ("warp_div_rows", c.warp_div_rows) ]

(* Counter identity between the IR backend with no passes and the
   interpreter, over [counter_fields] lists: every field is equal except
   [private_accesses], which may be lower on the IR side — registers the
   IR promotes charge no private traffic, spilled ones charge what the
   interpreter charges.  Returns the fields that break the rule, as
   "name ir/interp"; empty when it holds. *)
let counter_refinement ~ir ~interp =
  List.filter_map
    (fun ((n, x), (_, y)) ->
       let ok = if n = "private_accesses" then x <= y else x = y in
       if ok then None else Some (Printf.sprintf "%s %d/%d" n x y))
    (List.combine ir interp)

(* Deterministic initial contents: small finite values so float
   arithmetic stays well-behaved.  The fill stream consumes the same
   number of draws for a given buffer shape, so every stage sees
   byte-identical initial memory. *)
let fill_buffer rng elt (b : Bytes.t) =
  let s = match elt with TScalar s -> s | TVec (s, _) -> s | _ -> Char in
  let sz = max 1 (scalar_size s) in
  let n = Bytes.length b / sz in
  for i = 0 to n - 1 do
    let off = i * sz in
    match s with
    | Float ->
      Bytes.set_int32_le b off
        (Int32.bits_of_float (float_of_int (Rng.range rng (-256) 256) /. 4.0))
    | Double ->
      Bytes.set_int64_le b off
        (Int64.bits_of_float (float_of_int (Rng.range rng (-256) 256) /. 4.0))
    | Int | UInt ->
      Bytes.set_int32_le b off (Int32.of_int (Rng.range rng (-120) 120))
    | _ -> Bytes.set b off (Char.chr (Rng.int rng 256))
  done

(* Execute a plan and return the full launch statistics alongside the
   flattened output buffers.  [run_plan] keeps the historical shape; the
   attribution tests use the stats directly (per-site tables). *)
let launch_plan backend (c : Gen.case) (p : plan) :
  Gpusim.Exec.launch_stats * string =
  let saved = !Gpusim.Exec.backend in
  Gpusim.Exec.backend := backend;
  Fun.protect ~finally:(fun () -> Gpusim.Exec.backend := saved) @@ fun () ->
  let dev =
    Gpusim.Device.create Gpusim.Device.titan Gpusim.Device.opencl_on_nvidia
  in
  let host = Vm.Memory.create "fuzz-host" in
  let init_rng = Rng.create c.c_init_seed in
  let bufs = ref [] in
  let args =
    List.map
      (fun spec ->
         match spec with
         | A_buf (_name, elt, size) ->
           let addr = Vm.Memory.alloc dev.Gpusim.Device.global ~align:256 size in
           let b = Bytes.create size in
           fill_buffer init_rng elt b;
           Vm.Memory.store_bytes dev.Gpusim.Device.global addr b;
           bufs := (addr, size) :: !bufs;
           Gpusim.Exec.Arg_val
             (Vm.Interp.tv
                (Vm.Value.VInt (Vm.Value.make_ptr AS_global addr))
                (TPtr elt))
         | A_local bytes -> Gpusim.Exec.Arg_local bytes
         | A_int n -> Gpusim.Exec.Arg_val (Vm.Interp.tint n)
         | A_size n ->
           Gpusim.Exec.Arg_val
             (Vm.Interp.tv (Vm.Value.VInt (Int64.of_int n)) (TScalar SizeT)))
      p.lp_args
  in
  let kernel =
    match find_function p.lp_prog Gen.kernel_name with
    | Some k -> k
    | None -> failwith "fuzz: kernel not found after translation"
  in
  let stats =
    Gpusim.Exec.launch ~dev ~prog:p.lp_prog ~globals:(Hashtbl.create 4)
      ~host_arena:host ~kernel
      ~cfg:
        { global_size = [| c.c_gws; 1; 1 |];
          local_size = [| c.c_lws; 1; 1 |];
          dyn_shared = p.lp_dyn_shared }
      ~args ()
  in
  let out =
    List.rev_map
      (fun (addr, size) ->
         Bytes.to_string (Vm.Memory.load_bytes dev.Gpusim.Device.global addr size))
      !bufs
    |> String.concat ""
  in
  (stats, out)

let run_plan backend (c : Gen.case) (p : plan) :
  string * (string * int) list =
  let stats, out = launch_plan backend c p in
  (out, counter_fields stats.Gpusim.Exec.counters)

let exn_detail e =
  let s = Printexc.to_string e in
  if String.length s > 200 then String.sub s 0 200 else s

let counter_diff a b =
  List.filter_map
    (fun ((n, x), (_, y)) ->
       if x <> y then Some (Printf.sprintf "%s %d/%d" n x y) else None)
    (List.combine a b)

(* Run one stage under both backends; compare within the stage, then
   against the reference bytes from an earlier stage if given.

   The backend-vs-backend comparison pins OCLCU_IR_PASSES=none: the
   counter contract ([counter_refinement]) is between the interpreter
   and the *unoptimized* IR.  A separate sub-stage then re-runs the
   compiled backend with the ambient pass set and requires byte-identical
   buffers — the optimizer may change op counts, never results. *)
let run_stage ~stage (c : Gen.case) (p : plan) ~(reference : string option) :
  (string * (string * int) list, divergence) result =
  let attempt backend =
    match
      Ir.Pipeline.with_passes Ir.Pipeline.none (fun () ->
          run_plan backend c p)
    with
    | r -> Ok r
    | exception e -> Error e
  in
  match attempt Gpusim.Exec.Compiled, attempt Gpusim.Exec.Interp with
  | Error e, Error _ ->
    Error { d_stage = stage; d_kind = K_crash;
            d_detail = "both backends: " ^ exn_detail e }
  | Error e, Ok _ ->
    Error { d_stage = stage; d_kind = K_crash;
            d_detail = "compiled backend only: " ^ exn_detail e }
  | Ok _, Error e ->
    Error { d_stage = stage; d_kind = K_crash;
            d_detail = "interp backend only: " ^ exn_detail e }
  | Ok (b_bytes, b_ctr), Ok (i_bytes, i_ctr) ->
    let broken = counter_refinement ~ir:b_ctr ~interp:i_ctr in
    if b_bytes <> i_bytes then
      Error { d_stage = stage; d_kind = K_bytes;
              d_detail = "compiled and interp backends disagree on buffers" }
    else if broken <> [] then
      Error { d_stage = stage; d_kind = K_counters;
              d_detail = "compiled vs interp: " ^ String.concat ", " broken }
    else begin
      match
        if !Ir.Pipeline.selected = Ir.Pipeline.none then Ok b_bytes
        else
          match run_plan Gpusim.Exec.Compiled c p with
          | o_bytes, _ -> Ok o_bytes
          | exception e ->
            Error { d_stage = stage ^ "/ir-passes"; d_kind = K_crash;
                    d_detail = "optimizing backend only: " ^ exn_detail e }
      with
      | Error d -> Error d
      | Ok o_bytes when o_bytes <> b_bytes ->
        Error { d_stage = stage ^ "/ir-passes"; d_kind = K_bytes;
                d_detail =
                  "IR-optimized backend diverges from the unoptimized run" }
      | Ok _ ->
        match reference with
        | Some ref_bytes when ref_bytes <> b_bytes ->
          Error { d_stage = stage; d_kind = K_bytes;
                  d_detail = "buffers differ from the OpenCL original" }
        | _ -> Ok (b_bytes, b_ctr)
    end

(* ------------------------------------------------------------------ *)
(* The parallel stage                                                  *)
(* ------------------------------------------------------------------ *)

let with_domains n f =
  let saved = !Gpusim.Exec.domains in
  Gpusim.Exec.domains := n;
  Fun.protect ~finally:(fun () -> Gpusim.Exec.domains := saved) f

(* The domain-parallel executor must be observationally indistinguishable
   from the sequential one: the same plan run at 2 and 4 domains has to
   reproduce the sequential compiled run's buffers byte-for-byte and its
   Counters.t field-for-field.  A divergence here is a real bug in the
   optimistic engine (missed conflict, non-additive counter, unsafe
   shared state) and shrinks like any other pyramid divergence. *)
let parallel_domains = [ 2; 4 ]

let run_parallel_stage (c : Gen.case) (p : plan)
    ~(reference : string * (string * int) list) : (unit, divergence) result =
  (* the reference comes from run_stage's pinned-none backend run, so
     the domain-count sweep is pinned to the same pass set; the IR
     backend's own domain invariance is covered by test_ir's
     differential property *)
  Ir.Pipeline.with_passes Ir.Pipeline.none @@ fun () ->
  (* pin a true sequential run if the ambient domain count was not 1 *)
  let seq =
    if !Gpusim.Exec.domains = 1 then Ok reference
    else
      match with_domains 1 (fun () -> run_plan Gpusim.Exec.Compiled c p) with
      | r -> Ok r
      | exception e ->
        Error { d_stage = "parallel-ref"; d_kind = K_crash;
                d_detail = "sequential reference: " ^ exn_detail e }
  in
  match seq with
  | Error d -> Error d
  | Ok (ref_bytes, ref_ctr) ->
    let rec go = function
      | [] -> Ok ()
      | n :: rest ->
        let stage = Printf.sprintf "parallel-%d" n in
        (match
           with_domains n (fun () -> run_plan Gpusim.Exec.Compiled c p)
         with
         | exception e ->
           Error { d_stage = stage; d_kind = K_crash;
                   d_detail = exn_detail e }
         | bytes, ctr ->
           if bytes <> ref_bytes then
             Error { d_stage = stage; d_kind = K_bytes;
                     d_detail =
                       Printf.sprintf
                         "buffers differ from sequential at %d domains" n }
           else if ctr <> ref_ctr then
             Error { d_stage = stage; d_kind = K_counters;
                     d_detail =
                       Printf.sprintf "parallel-%d vs sequential: %s" n
                         (String.concat ", " (counter_diff ctr ref_ctr)) }
           else go rest)
    in
    go parallel_domains

(* ------------------------------------------------------------------ *)
(* The lockstep stage                                                  *)
(* ------------------------------------------------------------------ *)

let with_engine e f =
  let saved = !Gpusim.Exec.engine in
  Gpusim.Exec.engine := e;
  Fun.protect ~finally:(fun () -> Gpusim.Exec.engine := saved) f

(* The warp-lockstep engine must be observationally indistinguishable
   from the scalar one: the same plan re-run with [Gpusim.Exec.engine]
   set to [Lockstep] — sequentially and on 4 domains (stages
   "lockstep" and "lockstep-4") — has to reproduce the scalar compiled
   run's buffers byte-for-byte and its Counters.t field-for-field,
   whether the kernel ran in lockstep, fell back at eligibility or
   bailed out mid-launch.  Runs under the ambient pass set: lockstep
   executes the optimized IR, so the scalar reference is taken under
   the same configuration. *)
let lockstep_domains = [ 1; 4 ]

let run_lockstep_stage (c : Gen.case) (p : plan) : (unit, divergence) result =
  let scalar =
    match
      with_engine Gpusim.Exec.Scalar (fun () ->
          with_domains 1 (fun () -> run_plan Gpusim.Exec.Compiled c p))
    with
    | r -> Ok r
    | exception e ->
      Error { d_stage = "lockstep-ref"; d_kind = K_crash;
              d_detail = "scalar reference: " ^ exn_detail e }
  in
  match scalar with
  | Error d -> Error d
  | Ok (ref_bytes, ref_ctr) ->
    let rec go = function
      | [] -> Ok ()
      | n :: rest ->
        let stage =
          if n = 1 then "lockstep" else Printf.sprintf "lockstep-%d" n
        in
        (match
           with_engine Gpusim.Exec.Lockstep (fun () ->
               with_domains n (fun () -> run_plan Gpusim.Exec.Compiled c p))
         with
         | exception e ->
           Error { d_stage = stage; d_kind = K_crash;
                   d_detail = exn_detail e }
         | bytes, ctr ->
           if bytes <> ref_bytes then
             Error { d_stage = stage; d_kind = K_bytes;
                     d_detail =
                       Printf.sprintf
                         "buffers differ from the scalar engine at %d domains"
                         n }
           else if ctr <> ref_ctr then
             Error { d_stage = stage; d_kind = K_counters;
                     d_detail =
                       Printf.sprintf "lockstep vs scalar at %d domains: %s" n
                         (String.concat ", " (counter_diff ctr ref_ctr)) }
           else go rest)
    in
    go lockstep_domains

(* ------------------------------------------------------------------ *)
(* The pyramid                                                         *)
(* ------------------------------------------------------------------ *)

let parse_or dialect src stage k =
  match Minic.Parser.program ~dialect src with
  | prog -> k prog
  | exception Minic.Parser.Error (msg, line) ->
    Diverge { d_stage = stage; d_kind = K_crash;
              d_detail = Printf.sprintf "re-parse failed at line %d: %s" line msg }
  | exception Minic.Lexer.Error (msg, line) ->
    Diverge { d_stage = stage; d_kind = K_crash;
              d_detail = Printf.sprintf "re-lex failed at line %d: %s" line msg }

let run (c : Gen.case) : verdict =
  (* the case is executed from its printed source, so the printer and
     parser are inside the loop from the start *)
  let src = Gen.source c in
  parse_or Minic.Parser.OpenCL src "opencl print/parse" @@ fun prog ->
  match Xlat_analysis.Checks.analyze_program prog with
  | d :: _ -> Skip ("analyzer: " ^ Xlat_analysis.Diag.to_string d)
  | [] ->
    let plan_a = plan_of_case c prog in
    match run_stage ~stage:"opencl" c plan_a ~reference:None with
    | Error d -> Diverge d
    | Ok ((ref_bytes, _) as reference) ->
      match run_parallel_stage c plan_a ~reference with
      | Error d -> Diverge d
      | Ok () ->
      match run_lockstep_stage c plan_a with
      | Error d -> Diverge d
      | Ok () ->
      match Xlat.Ocl_to_cuda.translate prog with
      | exception Xlat.Ocl_to_cuda.Untranslatable msg ->
        Skip ("untranslatable (ocl->cuda): " ^ msg)
      | result ->
        let cuda_src =
          Minic.Pretty.program_str Minic.Pretty.Cuda
            result.Xlat.Ocl_to_cuda.cuda_prog
        in
        parse_or Minic.Parser.Cuda cuda_src "ocl->cuda print/parse"
        @@ fun cuda_prog ->
        let info =
          List.find
            (fun i -> i.Xlat.Ocl_to_cuda.ki_name = Gen.kernel_name)
            result.Xlat.Ocl_to_cuda.kernels
        in
        let plan_b = plan_of_cuda plan_a cuda_prog info in
        match run_stage ~stage:"ocl->cuda" c plan_b ~reference:(Some ref_bytes)
        with
        | Error d -> Diverge d
        | Ok _ ->
          match Xlat.Cuda_to_ocl.translate cuda_prog with
          | exception Xlat.Cuda_to_ocl.Untranslatable msg ->
            Diverge { d_stage = "round-trip translate"; d_kind = K_crash;
                      d_detail = "cuda->ocl rejected translator output: " ^ msg }
          | rt ->
            let cl_src = Xlat.Cuda_to_ocl.cl_source rt in
            parse_or Minic.Parser.OpenCL cl_src "round-trip print/parse"
            @@ fun rt_prog ->
            let km =
              List.find
                (fun k -> k.Xlat.Cuda_to_ocl.km_name = Gen.kernel_name)
                rt.Xlat.Cuda_to_ocl.kmetas
            in
            let plan_c = plan_of_roundtrip plan_b rt_prog km in
            match run_stage ~stage:"round-trip" c plan_c
                    ~reference:(Some ref_bytes)
            with
            | Error d -> Diverge d
            | Ok _ -> Agree

(* Two verdicts count as "the same bug" for shrinking purposes when the
   stage and kind agree; for crashes the message prefix must match too,
   so that shrinking cannot wander from e.g. a translator crash to an
   unrelated type error introduced by an over-eager reduction. *)
let same_divergence (a : divergence) (b : divergence) =
  a.d_stage = b.d_stage && a.d_kind = b.d_kind
  && (a.d_kind <> K_crash
      ||
      let prefix s = String.sub s 0 (min 24 (String.length s)) in
      prefix a.d_detail = prefix b.d_detail)
