(* IR middle-end tests.

   Three layers: the verifier (hand-built broken IR is caught; every
   single-pass configuration leaves a rich kernel verifier-clean), one
   directed pair per pass (a case where the rewrite must fire, observed
   through `Passes.stats`, and a planted regression where it must NOT
   fire — trapping division not hoisted, signed division not
   strength-reduced, divergence-guarded barrier kept, ...), and a qcheck
   differential pinning the compiled backend, with every pass and with
   none (`OCLCU_IR_PASSES=none`), to the interpreter's buffers at 1 and
   4 worker domains.  A directed test covers the mixed path: a lowered
   kernel calling a helper the lowering rejects, which the interpreter
   runs. *)

open Minic.Ast
module Core = Ir.Core

let check = Alcotest.check Alcotest.bool
let check_int = Alcotest.check Alcotest.int

let parse src = Minic.Parser.program ~dialect:Minic.Parser.OpenCL src

let emit ~cfg src =
  Ir.Emit.make ~special_ty:Gpusim.Exec.special_ty ~cfg (parse src)

(* Single-pass configuration by name. *)
let only name =
  match Ir.Pipeline.set Ir.Pipeline.none name true with
  | Some c -> c
  | None -> Alcotest.failf "unknown pass %s" name

let stats_of ~cfg src kernel =
  let est = emit ~cfg src in
  (match Ir.Emit.ir est kernel with
   | Some (Ok _) -> ()
   | Some (Error why) -> Alcotest.failf "%s did not lower: %s" kernel why
   | None -> Alcotest.failf "no function %s" kernel);
  match Ir.Emit.stats est kernel with
  | Some s -> s
  | None -> Alcotest.failf "no stats for %s" kernel

let dump_of ~cfg src kernel =
  let est = emit ~cfg src in
  match Ir.Emit.ir est kernel with
  | Some (Ok fn) -> Core.dump_fn fn
  | Some (Error why) -> Alcotest.failf "%s did not lower: %s" kernel why
  | None -> Alcotest.failf "no function %s" kernel

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

(* ------------------------------------------------------------------ *)
(* Verifier                                                            *)
(* ------------------------------------------------------------------ *)

(* Exercises every pass: foldable arithmetic, repeated index
   expressions, an invariant loop body, unsigned power-of-two division,
   dead pure code, an entry barrier with no prior shared traffic, and a
   small inlinable helper. *)
let rich_src = {|
int helper(int a, int b) {
  if (a > b) { return a - b; }
  return a + b;
}

__kernel void k(__global int* out, __global int* in, int n) {
  int i = get_global_id(0);
  int t = get_local_id(0);
  __local int tmp[32];
  barrier(CLK_LOCAL_MEM_FENCE);
  uint u = (uint)i;
  int dead = i * 3 + 1;
  int x = (2 + 3) * 4;
  int acc = 0;
  for (int j = 0; j < n; j++) {
    acc += in[i * 4 + 1] + (n * 3) + (int)(u / 8) + x;
    acc ^= in[i * 4 + 1];
  }
  tmp[t] = acc;
  barrier(CLK_LOCAL_MEM_FENCE);
  out[i] = tmp[t] + helper(i, n);
}
|}

let verifier_clean_per_pass () =
  List.iter
    (fun pass ->
       let est = emit ~cfg:(only pass) rich_src in
       List.iter
         (fun name ->
            match Ir.Emit.ir est name with
            | Some (Ok _) -> ()
            | Some (Error why) ->
              (* Emit demotes verifier failures to Error "verifier: ..." *)
              Alcotest.failf "pass %s: %s rejected: %s" pass name why
            | None -> Alcotest.failf "pass %s: %s missing" pass name)
         (Ir.Emit.function_names est))
    Ir.Pipeline.pass_names;
  (* and the full pipeline *)
  let est = emit ~cfg:Ir.Pipeline.all rich_src in
  List.iter
    (fun name ->
       match Ir.Emit.ir est name with
       | Some (Ok _) -> ()
       | Some (Error why) -> Alcotest.failf "all: %s rejected: %s" name why
       | None -> Alcotest.failf "all: %s missing" name)
    (Ir.Emit.function_names est)

(* Hand-built broken functions: the verifier must flag them. *)
let mk_fn ?(nregs = 1) body =
  { Core.f_name = "t"; f_ret = TScalar Void; f_params = [||];
    f_nregs = nregs; f_mem = [||]; f_body = body; f_sited = false }

let ins k = Core.Ins { Core.i_site = -1; i_kind = k }

let verifier_catches_broken_ir () =
  (* use before definition: r0 read by the Let that defines it *)
  let use_before_def = mk_fn [ ins (Core.Let (0, Core.Mov (Core.Reg 0))) ] in
  check "use-before-def flagged" true (Ir.Verify.check use_before_def <> []);
  (* double assignment of a Let register *)
  let dup =
    mk_fn
      [ ins (Core.Let (0, Core.Mov (Core.Cst (Vm.Interp.tint 1))));
        ins (Core.Let (0, Core.Mov (Core.Cst (Vm.Interp.tint 2)))) ]
  in
  check "duplicate Let flagged" true (Ir.Verify.check dup <> []);
  (* out-of-range register *)
  let oob = mk_fn [ ins (Core.Let (3, Core.Mov (Core.Cst (Vm.Interp.tint 0)))) ] in
  check "out-of-range register flagged" true (Ir.Verify.check oob <> []);
  (* a definition inside one If arm does not dominate uses after it *)
  let branchy =
    mk_fn ~nregs:2
      [ ins (Core.Let (0, Core.Mov (Core.Cst (Vm.Interp.tint 1))));
        Core.If
          ( -1, Core.Reg 0,
            [ ins (Core.Let (1, Core.Mov (Core.Cst (Vm.Interp.tint 2)))) ],
            [] );
        ins (Core.Do (Core.Mov (Core.Reg 1))) ]
  in
  check "non-dominating definition flagged" true (Ir.Verify.check branchy <> [])

(* ------------------------------------------------------------------ *)
(* Directed per-pass pairs: must fire / planted must-not-fire          *)
(* ------------------------------------------------------------------ *)

let simple body =
  Printf.sprintf
    {|
__kernel void k(__global int* out, __global int* in, int n) {
  int i = get_global_id(0);
  %s
}
|}
    body

let fold_fires () =
  let s = stats_of ~cfg:(only "fold") (simple {|
  int x = (2 + 3) * 4;
  out[i] = x + i;
|}) "k" in
  check "fold fired" true (s.Ir.Passes.st_folded > 0)

(* Folding a division by a constant zero would trap at build time; the
   instruction must survive so the trap happens (with exact counters) at
   the execution that actually reaches it. *)
let fold_planted_division () =
  let d = dump_of ~cfg:(only "fold") (simple {|
  out[i] = 6 / 0;
|}) "k" in
  check "division by constant zero not folded" true
    (contains d "div 6:int, 0:int")

let dce_fires () =
  let s = stats_of ~cfg:(only "dce") (simple {|
  int dead = i * 3 + 1;
  out[i] = i;
|}) "k" in
  check "dce fired" true (s.Ir.Passes.st_dce > 0)

(* An unused call result is not dead: the callee may have effects (and
   its op charges must survive either way). *)
let dce_planted_call = {|
int twice(int a) { return a * 2; }

__kernel void k(__global int* out, __global int* in, int n) {
  int i = get_global_id(0);
  int unused = twice(i);
  out[i] = i;
}
|}

let dce_planted () =
  (* the dead copy of the result is eliminable; the call itself is not *)
  check "call still present" true
    (contains (dump_of ~cfg:(only "dce") dce_planted_call "k") "callu twice")

(* CSE keys on copy-propagated operands, so it runs with fold. *)
let fold_cse =
  match Ir.Pipeline.parse "fold,cse" with
  | Ok c -> c
  | Error e -> failwith e

let cse_fires () =
  let s = stats_of ~cfg:fold_cse (simple {|
  out[i * 4 + 1] = in[i * 4 + 1] + 2;
|}) "k" in
  check "cse fired" true (s.Ir.Passes.st_cse > 0)

(* Loads are not values: two syntactically identical loads must both
   execute (another work-item may store in between). *)
let cse_planted () =
  let s = stats_of ~cfg:fold_cse (simple {|
  out[i] = in[i] + in[i];
|}) "k" in
  check_int "identical loads not merged" 0 s.Ir.Passes.st_cse

let licm_fires () =
  let s = stats_of ~cfg:(only "licm") (simple {|
  int acc = 0;
  for (int j = 0; j < n; j++) {
    acc += (n * 3) ^ j;
  }
  out[i] = acc;
|}) "k" in
  check "licm fired" true (s.Ir.Passes.st_licm > 0)

(* A trapping rhs (integer division) must not be hoisted: the loop may
   run zero times, and hoisting would turn a never-executed trap into an
   unconditional one.  Invariant movs of the operands may still move to
   the preheader — only the division has to stay in the body. *)
let licm_planted () =
  let d = dump_of ~cfg:(only "licm") (simple {|
  int acc = 0;
  for (int j = 0; j < n; j++) {
    acc += 64 / n;
  }
  out[i] = acc;
|}) "k" in
  let before_body, after_body =
    (* everything before the first ".body:" is init/pre/cond *)
    let rec find i =
      if i + 6 > String.length d then String.length d
      else if String.sub d i 6 = ".body:" then i
      else find (i + 1)
    in
    let i = find 0 in
    (String.sub d 0 i, String.sub d i (String.length d - i))
  in
  check "division stays in the loop body" true (contains after_body "div ");
  check "division not hoisted to the preheader" false
    (contains before_body "div ")

let strength_fires () =
  let s = stats_of ~cfg:(only "strength") (simple {|
  uint u = (uint)i;
  out[i] = (int)(u / 8) + (int)(u % 8);
|}) "k" in
  check "strength fired" true (s.Ir.Passes.st_strength >= 2)

(* Signed division rounds toward zero; a shift rounds toward negative
   infinity, so `int / 8` must take the generic path. *)
let strength_planted () =
  let s = stats_of ~cfg:(only "strength") (simple {|
  out[i] = i / 8;
|}) "k" in
  check_int "signed division not reduced" 0 s.Ir.Passes.st_strength

let barrier_fires () =
  let s = stats_of ~cfg:(only "barrier") {|
__kernel void k(__global int* out) {
  int i = get_global_id(0);
  barrier(CLK_LOCAL_MEM_FENCE);
  out[i] = i;
}
|} "k" in
  check "entry barrier eliminated" true (s.Ir.Passes.st_barriers > 0)

(* The ISSUE's planted regression: a barrier control-dependent on a
   thread-id-tainted branch separates divergent flow and must be kept
   even though no shared memory was touched before it. *)
let barrier_planted_divergent = {|
__kernel void k(__global int* out, int n) {
  int i = get_global_id(0);
  if (i < 999999) {
    barrier(CLK_LOCAL_MEM_FENCE);
  }
  out[i] = i;
}
|}

(* ... and a barrier that orders real shared-memory traffic. *)
let barrier_planted_ordering = {|
__kernel void k(__global int* out) {
  int i = get_global_id(0);
  int t = get_local_id(0);
  __local int tmp[8];
  tmp[t] = i;
  barrier(CLK_LOCAL_MEM_FENCE);
  out[i] = tmp[(t + 1) % 8];
}
|}

let barrier_planted () =
  let s = stats_of ~cfg:(only "barrier") barrier_planted_divergent "k" in
  check_int "divergence-guarded barrier kept" 0 s.Ir.Passes.st_barriers;
  let s = stats_of ~cfg:(only "barrier") barrier_planted_ordering "k" in
  check_int "ordering barrier kept" 0 s.Ir.Passes.st_barriers

let inline_src = {|
int scale(int a, int b) {
  if (a > b) { return a - b; }
  return a + b;
}

__kernel void k(__global int* out, __global int* in, int n) {
  int i = get_global_id(0);
  out[i] = scale(i, n);
}
|}

let inline_fires () =
  check "call inlined" false
    (contains (dump_of ~cfg:(only "inline") inline_src "k") "callu scale");
  check "without the pass the call stays" true
    (contains (dump_of ~cfg:Ir.Pipeline.none inline_src "k") "callu scale")

(* Pointer parameters keep a helper out of the expression-inliner. *)
let inline_planted = {|
int readp(__global int* p, int i) { return p[i]; }

__kernel void k(__global int* out, __global int* in, int n) {
  int i = get_global_id(0);
  out[i] = readp(in, i);
}
|}

let inline_planted_test () =
  check "pointer-param helper not inlined" true
    (contains (dump_of ~cfg:(only "inline") inline_planted "k") "callu readp")

(* ------------------------------------------------------------------ *)
(* Differential: optimized vs unoptimized vs interpreter, domains 1/4  *)
(* ------------------------------------------------------------------ *)

let diff_src ~c1 ~c2 ~op =
  Printf.sprintf
    {|
int helper(int a, int b) {
  if (a > b) { return a - b; }
  return a %s b;
}

__kernel void k(__global int* out, __global int* in, int n) {
  int i = get_global_id(0);
  int t = get_local_id(0);
  __local int tmp[32];
  uint u = (uint)i;
  tmp[t] = i * %d + t;
  barrier(CLK_LOCAL_MEM_FENCE);
  int acc = %d;
  for (int j = 0; j < 4; j++) {
    acc += tmp[(t + j) %% 8] + in[i * 2 %% n] + (n * 3) + (int)(u / 4);
  }
  if ((i & 1) == 0) { acc = helper(acc, n); }
  out[i] = acc;
}
|}
    op c1 c2

(* A 1-D launch of [prog]'s kernel [k] over [gws] items: a zeroed int
   output buffer, an int input buffer holding 7j - 13 and n = gws.  The
   plan's module compiles once per pass set for all its launches. *)
let plan_of prog ~gws =
  let inb = Bytes.create (gws * 4) in
  for j = 0 to gws - 1 do
    Bytes.set_int32_le inb (j * 4) (Int32.of_int ((j * 7) - 13))
  done;
  { Xlat_validate.Plan.modul = Gpusim.Exec.load prog;
    kernel = "k";
    args =
      [ Buf (TScalar Int, String.make (gws * 4) '\000');
        Buf (TScalar Int, Bytes.to_string inb); Int gws ];
    dyn_shared = 0 }

(* [plan] under [config]: the output buffer's bytes and the stats. *)
let launch_once config plan ~gws ~lws =
  let stats, bufs = Xlat_validate.Plan.run ~config ~gws ~lws plan in
  (List.hd bufs, stats)

let run_way ?engine ~backend ~passes ~domains ~gws ~lws plan =
  let config = { (Gpusim.Config.default ()) with backend; passes; domains } in
  let config =
    match engine with Some engine -> { config with engine } | None -> config
  in
  launch_once config plan ~gws ~lws

let prop_differential =
  QCheck.Test.make ~count:25
    ~name:"optimized backend is byte-identical at 1 and 4 domains"
    QCheck.(
      make
        ~print:(fun (c1, c2, o) -> Printf.sprintf "c1=%d c2=%d op=%d" c1 c2 o)
        Gen.(tup3 (int_range (-9) 9) (int_range (-50) 50) (int_range 0 2)))
    (fun (c1, c2, o) ->
       let op = [| "+"; "-"; "^" |].(o) in
       let gws = 64 and lws = 16 in
       let plan = plan_of (parse (diff_src ~c1 ~c2 ~op)) ~gws in
       let reference, _ =
         run_way ~backend:Gpusim.Exec.Interp ~passes:Ir.Pipeline.none
           ~domains:1 ~gws ~lws plan
       in
       List.for_all
         (fun (backend, passes, domains) ->
            let bytes, _ = run_way ~backend ~passes ~domains ~gws ~lws plan in
            bytes = reference)
         [ (Gpusim.Exec.Compiled, Ir.Pipeline.none, 1);
           (Gpusim.Exec.Compiled, Ir.Pipeline.none, 4);
           (Gpusim.Exec.Compiled, Ir.Pipeline.all, 1);
           (Gpusim.Exec.Compiled, Ir.Pipeline.all, 4);
           (Gpusim.Exec.Interp, Ir.Pipeline.all, 4) ])

(* Attribution bookkeeping for eliminated work: at every site,
   ops + ops_eliminated under the pipeline equals the ops count of the
   OCLCU_IR_PASSES=none run — the `elim` column of
   `oclcu prof --attribute` is an exact per-site delta, no second
   profile needed.  Inlining is excluded: it deliberately relocates a
   callee's charges to the call site, so the invariant is per-site only
   for the rewriting passes. *)
let attribution_elim_sums () =
  let prog = Minic.Site.annotate (parse (diff_src ~c1:3 ~c2:7 ~op:"+")) in
  let plan = plan_of prog ~gws:64 in
  let table passes =
    let _, stats =
      run_way ~backend:Gpusim.Exec.Compiled ~passes ~domains:1 ~gws:64
        ~lws:16 plan
    in
    match stats.Gpusim.Exec.attr with
    | Some a -> Gpusim.Attr.to_list a
    | None -> Alcotest.failf "no attribution table"
  in
  let all_but_inline = { Ir.Pipeline.all with Ir.Pipeline.inline = false } in
  let opt = table all_but_inline in
  let base = table Ir.Pipeline.none in
  let baseline_ops id =
    match List.assoc_opt id base with
    | Some s -> s.Gpusim.Attr.ops
    | None -> 0
  in
  check "something was eliminated" true
    (List.exists (fun (_, s) -> s.Gpusim.Attr.ops_eliminated > 0) opt);
  List.iter
    (fun (id, (s : Gpusim.Attr.site)) ->
       check_int
         (Printf.sprintf "site %d: ops + eliminated = unoptimized ops" id)
         (baseline_ops id)
         (s.Gpusim.Attr.ops + s.Gpusim.Attr.ops_eliminated))
    opt

(* A value that copy propagation forwards through a variable keeps the
   conversion the variable's store applies: fp32 rounding for a float
   constant (fuzz seed 42 case 136, once literals were drawn in tenths),
   a 32-bit wrap for an int constant and for an unsigned negation or
   complement.  The interpreter stores and reloads the variable; [src]'s
   kernel writes 8-byte elements. *)
let fold_keeps_conversion ?(elems = 1) ~src ~elt ~expect () =
  let plan =
    { Xlat_validate.Plan.modul = Gpusim.Exec.load (parse src);
      kernel = "k";
      args = [ Buf (TScalar elt, String.make (8 * elems) '\000') ];
      dyn_shared = 0 }
  in
  let output backend passes =
    let config = { (Gpusim.Config.default ()) with backend; passes } in
    List.hd (snd (Xlat_validate.Plan.run ~config ~gws:1 ~lws:1 plan))
  in
  let reference = output Gpusim.Exec.Interp Ir.Pipeline.none in
  Alcotest.(check string) "interpreter" expect reference;
  List.iter
    (fun passes ->
       Alcotest.(check string) (Ir.Pipeline.signature passes) reference
         (output Gpusim.Exec.Compiled passes))
    [ only "fold"; Ir.Pipeline.all ]

let le64 n =
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 n;
  Bytes.to_string b

let fold_keeps_unsigned_wrap =
  fold_keeps_conversion ~elems:2 ~elt:ULong
    ~expect:(le64 0xFFFFFFFFL ^ le64 0xFFFFFFFDL)
    ~src:{|
__kernel void k(__global ulong* out) {
  uint u = get_global_id(0);
  uint v = ~u;
  out[0] = v;
  uint t = u + 3;
  uint n = -t;
  out[1] = n;
}
|}

(* a folded unsigned complement wraps to 32 bits before it widens *)
let fold_wraps_unsigned_complement =
  fold_keeps_conversion ~elt:ULong ~expect:(le64 0xFFFFFFFFL)
    ~src:{|
__kernel void k(__global ulong* out) {
  ulong w = ~0u;
  out[get_global_id(0)] = w;
}
|}

let fold_keeps_fp32_rounding =
  fold_keeps_conversion ~elt:Double
    ~expect:(le64 (Int64.bits_of_float (Int32.float_of_bits (Int32.bits_of_float (-3.4)))))
    ~src:{|
__kernel void k(__global double* dout) {
  float t4 = -3.3999999999999999f;
  dout[get_global_id(0)] = t4;
}
|}

let fold_keeps_int_wrap =
  fold_keeps_conversion ~elt:Long ~expect:(le64 1L)
    ~src:{|
__kernel void k(__global long* lout) {
  int big = 4294967297;
  lout[get_global_id(0)] = big;
}
|}

(* ------------------------------------------------------------------ *)
(* Mixed path: IR code calling an interpreted helper                   *)
(* ------------------------------------------------------------------ *)

(* The kernel lowers; the helper it calls in a loop does not (a string
   literal), so Ir.Emit.resolve_wrapper hands each call to
   Vm.Interp.call_function on the kernel's own context. *)
let mixed_src = {|
int shout(int a) {
  int t = a * 3;
  printf("a=%d\n", t);
  return t + 1;
}

__kernel void k(__global int* out, __global int* in, int n) {
  int i = get_global_id(0);
  int acc = in[i];
  for (int j = 0; j < 4; j++) {
    acc = shout(acc + j) % 1000;
  }
  out[i] = acc;
}
|}

let mixed_path () =
  let prog = parse mixed_src in
  let est =
    Ir.Emit.make ~special_ty:Gpusim.Exec.special_ty ~cfg:Ir.Pipeline.all prog
  in
  (match Ir.Emit.ir est "k" with
   | Some (Ok _) -> ()
   | Some (Error why) -> Alcotest.failf "kernel k did not lower: %s" why
   | None -> Alcotest.fail "no kernel k");
  (match Ir.Emit.ir est "shout" with
   | Some (Error why) ->
     Alcotest.(check string) "helper rejected" "string literal" why
   | _ -> Alcotest.fail "helper shout was not rejected");
  let gws = 64 and lws = 16 in
  let plan = plan_of prog ~gws in
  let ref_bytes, ref_stats =
    run_way ~backend:Gpusim.Exec.Interp ~passes:Ir.Pipeline.none ~domains:1
      ~gws ~lws plan
  in
  List.iter
    (fun (passes, domains) ->
       let label =
         Printf.sprintf "%s passes, %d domains"
           (Ir.Pipeline.signature passes) domains
       in
       let bytes, stats =
         run_way ~backend:Gpusim.Exec.Compiled ~passes ~domains ~gws ~lws plan
       in
       check (label ^ ": buffers") true (bytes = ref_bytes);
       if passes = Ir.Pipeline.none then
         Alcotest.(check (list string))
           (label ^ ": counters") []
           Fuzz.Pyramid.(
             counter_refinement
               ~ir:(counter_fields stats.Gpusim.Exec.counters)
               ~interp:(counter_fields ref_stats.Gpusim.Exec.counters)))
    [ (Ir.Pipeline.none, 1); (Ir.Pipeline.none, 4);
      (Ir.Pipeline.all, 1); (Ir.Pipeline.all, 4) ];
  let bytes, stats =
    run_way ~engine:Gpusim.Exec.Lockstep ~backend:Gpusim.Exec.Compiled
      ~passes:Ir.Pipeline.all ~domains:1 ~gws ~lws plan
  in
  check "lockstep: buffers" true (bytes = ref_bytes);
  match stats.Gpusim.Exec.engine with
  | Gpusim.Exec.Engine_fallback why ->
    check ("lockstep fallback names the callee: " ^ why) true
      (contains why "shout")
  | _ -> Alcotest.fail "expected the lockstep engine to fall back"

let suites =
  [ ( "ir.verify",
      [ Alcotest.test_case "every pass config stays verifier-clean" `Quick
          verifier_clean_per_pass;
        Alcotest.test_case "broken IR is caught" `Quick
          verifier_catches_broken_ir ] );
    ( "ir.passes",
      [ Alcotest.test_case "fold fires" `Quick fold_fires;
        Alcotest.test_case "fold: forwarded float constant keeps fp32 rounding"
          `Quick fold_keeps_fp32_rounding;
        Alcotest.test_case "fold: forwarded int constant keeps its 32-bit wrap"
          `Quick fold_keeps_int_wrap;
        Alcotest.test_case "fold: forwarded unsigned complement and negation wrap"
          `Quick fold_keeps_unsigned_wrap;
        Alcotest.test_case "fold: constant unsigned complement wraps to 32 bits"
          `Quick fold_wraps_unsigned_complement;
        Alcotest.test_case "fold: constant division kept" `Quick
          fold_planted_division;
        Alcotest.test_case "dce fires" `Quick dce_fires;
        Alcotest.test_case "dce: unused call kept" `Quick dce_planted;
        Alcotest.test_case "cse fires" `Quick cse_fires;
        Alcotest.test_case "cse: identical loads kept" `Quick cse_planted;
        Alcotest.test_case "licm fires" `Quick licm_fires;
        Alcotest.test_case "licm: trapping division kept in loop" `Quick
          licm_planted;
        Alcotest.test_case "strength fires on unsigned" `Quick strength_fires;
        Alcotest.test_case "strength: signed division kept" `Quick
          strength_planted;
        Alcotest.test_case "barrier: entry barrier eliminated" `Quick
          barrier_fires;
        Alcotest.test_case "barrier: divergent / ordering barriers kept"
          `Quick barrier_planted;
        Alcotest.test_case "inline fires" `Quick inline_fires;
        Alcotest.test_case "inline: pointer-param helper kept" `Quick
          inline_planted_test ] );
    ( "ir.differential",
      [ QCheck_alcotest.to_alcotest prop_differential;
        Alcotest.test_case "per-site ops + eliminated = unoptimized ops"
          `Quick attribution_elim_sums;
        Alcotest.test_case "lowered kernel calls an interpreted helper"
          `Quick mixed_path ] ) ]
