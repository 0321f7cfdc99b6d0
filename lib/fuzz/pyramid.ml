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

module Plan = Xlat_validate.Plan

(* Deterministic initial contents: small finite values so float
   arithmetic stays well-behaved.  Stage A fills its buffers once; the
   later stages carry those bytes across the translators. *)
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

(* The stage-A plan of the generated kernel in [prog] (the case's
   program or an annotated copy): [c_elems]-element buffers filled from
   [c_init_seed], [c_lws]-element dynamic __local slots, and [c_gws] for
   every scalar. *)
let plan_a (c : Gen.case) (prog : program) : Plan.t =
  let k =
    match find_function prog Gen.kernel_name with
    | Some k -> k
    | None -> failwith "fuzz: generated program lost its kernel"
  in
  match
    Plan.of_kernel prog k ~lws:c.c_lws ~elems:c.c_elems ~scalar:c.c_gws
      ~fill:(fill_buffer (Rng.create c.c_init_seed))
  with
  | Ok p -> p
  | Error why -> failwith ("fuzz: " ^ why)

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

(* Run [p] at the case's geometry on a device under [config]: the
   launch statistics and every buffer's final bytes, concatenated. *)
let launch config (c : Gen.case) (p : Plan.t) :
  Gpusim.Exec.launch_stats * string =
  let stats, bufs = Plan.run ~config ~gws:c.c_gws ~lws:c.c_lws p in
  (stats, String.concat "" bufs)

(* What the stages compare: output bytes and [counter_fields]. *)
let observe config (c : Gen.case) (p : Plan.t) :
  string * (string * int) list =
  let stats, out = launch config c p in
  (out, counter_fields stats.Gpusim.Exec.counters)

let exn_detail e =
  let s = Printexc.to_string e in
  if String.length s > 200 then String.sub s 0 200 else s

let counter_diff a b =
  List.filter_map
    (fun ((n, x), (_, y)) ->
       if x <> y then Some (Printf.sprintf "%s %d/%d" n x y) else None)
    (List.combine a b)

(* Every configuration below is the pyramid's base [config] (the
   process defaults unless a repro replays its own) with only the fields
   under test changed, so a base engine or domain count reaches every
   launch. *)
let compiled (config : Gpusim.Config.t) = { config with backend = Compiled }

(* Run one stage under both backends; compare within the stage, then
   against the reference bytes from an earlier stage if given.

   The backend-vs-backend comparison pins the empty pass set: the
   counter contract ([counter_refinement]) is between the interpreter
   and the *unoptimized* IR.  A separate sub-stage then re-runs the
   compiled backend with the base pass set and requires byte-identical
   buffers — the optimizer may change op counts, never results. *)
let run_stage ~stage ~config (c : Gen.case) (p : Plan.t)
    ~(reference : string option) :
  (string * (string * int) list, divergence) result =
  let attempt backend =
    match observe { config with backend; passes = Ir.Pipeline.none } c p with
    | r -> Ok r
    | exception e -> Error e
  in
  match attempt Gpusim.Config.Compiled, attempt Gpusim.Config.Interp with
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
        if config.passes = Ir.Pipeline.none then Ok b_bytes
        else
          match observe (compiled config) c p with
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
(* Engine sweeps                                                       *)
(* ------------------------------------------------------------------ *)

(* Re-run [p] under each (stage, config) of [runs]: each run must
   reproduce the [ref_name] reference run's buffers byte-for-byte and
   its Counters.t field-for-field.  [reference] produces that run; a
   crash in it is a divergence at [ref_stage]. *)
let sweep (c : Gen.case) (p : Plan.t) ~ref_stage ~ref_name ~reference runs :
  (unit, divergence) result =
  match reference () with
  | exception e ->
    Error { d_stage = ref_stage; d_kind = K_crash;
            d_detail = ref_name ^ " reference: " ^ exn_detail e }
  | ref_bytes, ref_ctr ->
    let rec go = function
      | [] -> Ok ()
      | (stage, config) :: rest ->
        (match observe config c p with
         | exception e ->
           Error { d_stage = stage; d_kind = K_crash;
                   d_detail = exn_detail e }
         | bytes, _ when bytes <> ref_bytes ->
           Error { d_stage = stage; d_kind = K_bytes;
                   d_detail = "buffers differ from the " ^ ref_name ^ " run" }
         | _, ctr when ctr <> ref_ctr ->
           Error { d_stage = stage; d_kind = K_counters;
                   d_detail =
                     Printf.sprintf "%s vs %s: %s" stage ref_name
                       (String.concat ", " (counter_diff ctr ref_ctr)) }
         | _ -> go rest)
    in
    go runs

(* The domain-parallel executor must be observationally indistinguishable
   from the sequential one: the same plan run at 2 and 4 domains has to
   reproduce the sequential compiled run.  A divergence here is a real
   bug in the optimistic engine (missed conflict, non-additive counter,
   unsafe shared state) and shrinks like any other pyramid divergence.
   Pinned to the empty pass set, like the reference [run_stage] returns
   (reused when the base already runs on one domain). *)
let parallel_stage ~config (c : Gen.case) (p : Plan.t) ~reference =
  let seq =
    { (compiled config) with passes = Ir.Pipeline.none; domains = 1 }
  in
  sweep c p ~ref_stage:"parallel-ref" ~ref_name:"sequential"
    ~reference:(fun () ->
        if config.domains = 1 then reference else observe seq c p)
    [ ("parallel-2", { seq with domains = 2 });
      ("parallel-4", { seq with domains = 4 }) ]

(* The warp-lockstep engine must be observationally indistinguishable
   from the scalar one, sequentially and on 4 domains, whether the
   kernel ran in lockstep, fell back at eligibility or bailed out
   mid-launch.  Runs under the base pass set: lockstep executes the
   optimized IR, so the scalar reference does too. *)
let lockstep_stage ~config (c : Gen.case) (p : Plan.t) =
  let scalar = { (compiled config) with engine = Scalar; domains = 1 } in
  sweep c p ~ref_stage:"lockstep-ref" ~ref_name:"scalar"
    ~reference:(fun () -> observe scalar c p)
    [ ("lockstep", { scalar with engine = Lockstep });
      ("lockstep-4", { scalar with engine = Lockstep; domains = 4 }) ]

(* ------------------------------------------------------------------ *)
(* The pyramid                                                         *)
(* ------------------------------------------------------------------ *)

let parse_or dialect src stage : (program, verdict) result =
  match Minic.Parser.program ~dialect src with
  | prog -> Ok prog
  | exception Minic.Parser.Error (msg, line) ->
    Error
      (Diverge
         { d_stage = stage; d_kind = K_crash;
           d_detail =
             Printf.sprintf "re-parse failed at line %d: %s" line msg })
  | exception Minic.Lexer.Error (msg, line) ->
    Error
      (Diverge
         { d_stage = stage; d_kind = K_crash;
           d_detail = Printf.sprintf "re-lex failed at line %d: %s" line msg })

(* The case is executed from its printed source, so the printer and
   parser are inside the loop from the start. *)
let source_prog (c : Gen.case) =
  parse_or Minic.Parser.OpenCL (Gen.source c) "opencl print/parse"

(* Stage B: [a] through the OCL->CUDA translator, printed and re-parsed. *)
let plan_b (a : Plan.t) : (Plan.t, verdict) result =
  match Xlat.Ocl_to_cuda.translate (Plan.prog a) with
  | exception Xlat.Ocl_to_cuda.Untranslatable msg ->
    Error (Skip ("untranslatable (ocl->cuda): " ^ msg))
  | result ->
    let cuda_src =
      Minic.Pretty.program_str Minic.Pretty.Cuda
        result.Xlat.Ocl_to_cuda.cuda_prog
    in
    parse_or Minic.Parser.Cuda cuda_src "ocl->cuda print/parse"
    |> Result.map (fun cuda_prog ->
        let info =
          List.find
            (fun i -> i.Xlat.Ocl_to_cuda.ki_name = Gen.kernel_name)
            result.Xlat.Ocl_to_cuda.kernels
        in
        Plan.to_cuda a cuda_prog info)

(* Stage C: [b] back through the CUDA->OCL translator. *)
let plan_c (b : Plan.t) : (Plan.t, verdict) result =
  match Xlat.Cuda_to_ocl.translate (Plan.prog b) with
  | exception Xlat.Cuda_to_ocl.Untranslatable msg ->
    Error
      (Diverge
         { d_stage = "round-trip translate"; d_kind = K_crash;
           d_detail = "cuda->ocl rejected translator output: " ^ msg })
  | rt ->
    parse_or Minic.Parser.OpenCL (Xlat.Cuda_to_ocl.cl_source rt)
      "round-trip print/parse"
    |> Result.map (fun rt_prog ->
        let km =
          List.find
            (fun k -> k.Xlat.Cuda_to_ocl.km_name = Gen.kernel_name)
            rt.Xlat.Cuda_to_ocl.kmetas
        in
        Plan.to_opencl b rt_prog km)

(* The stage-A and stage-B plans, exactly as [run] executes them. *)
let plans (c : Gen.case) : (Plan.t * Plan.t, verdict) result =
  Result.bind (source_prog c) (fun prog ->
      let a = plan_a c prog in
      Result.map (fun b -> (a, b)) (plan_b a))

(* Run the pyramid on [c], its stages derived from the base [config]. *)
let run ?(config = Gpusim.Config.default ()) (c : Gen.case) : verdict =
  let ( let* ) r k = match r with Ok x -> k x | Error v -> v in
  let diverged r = Result.map_error (fun d -> Diverge d) r in
  let stage name p ~reference =
    diverged (run_stage ~stage:name ~config c p ~reference)
  in
  let* prog = source_prog c in
  match Xlat_analysis.Checks.analyze_program prog with
  | d :: _ -> Skip ("analyzer: " ^ Xlat_analysis.Diag.to_string d)
  | [] ->
    let a = plan_a c prog in
    let* ((ref_bytes, _) as reference) = stage "opencl" a ~reference:None in
    let* () = diverged (parallel_stage ~config c a ~reference) in
    let* () = diverged (lockstep_stage ~config c a) in
    let* b = plan_b a in
    let* _ = stage "ocl->cuda" b ~reference:(Some ref_bytes) in
    let* rt = plan_c b in
    let* _ = stage "round-trip" rt ~reference:(Some ref_bytes) in
    Agree

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
