(* Backend equivalence and build-cache tests.

   The compiled backend (the IR: Ir.Lower, the passes, Ir.Emit) must
   agree with the tree-walking interpreter: the same result bytes, and
   with no passes the same Counters.t up to the private traffic of
   values the IR keeps in registers (Fuzz.Pyramid.counter_refinement).
   The differential property here launches randomly parameterised
   kernels under both backends and compares everything the timing model
   can see.  The build-cache tests pin the content-hash cache contract:
   hit on identical source, miss after any change, failures never
   cached. *)

open Minic.Ast

(* ------------------------------------------------------------------ *)
(* Differential property: Compiled vs Interp                           *)
(* ------------------------------------------------------------------ *)

(* Kernel template over generated constants and operators; exercises
   specials, int and float arithmetic, __local traffic with a barrier,
   control flow and a device-function call. *)
let kernel_src ~c1 ~c2 ~c3 ~op1 ~op2 =
  Printf.sprintf
    {|
int helper(int a, int b) {
  if (a > b) { return a - b; }
  return a %s b;
}

__kernel void k(__global int* out, __global float* fout, int n) {
  int i = get_global_id(0);
  int t = get_local_id(0);
  __local int tmp[32];
  tmp[t] = i * %d + t;
  barrier(CLK_LOCAL_MEM_FENCE);
  int acc = %d;
  for (int j = 0; j < %d; j++) {
    acc = acc %s tmp[(t + j) %% 8];
  }
  if ((i & 1) == 0) { acc = helper(acc, %d); }
  if (i < n) {
    out[i] = acc;
    fout[i] = (float)acc * 0.5f + (float)i;
  }
}
|}
    op1 c1 c2 c3 op2 c1

(* A 1-D launch of [modul]'s kernel [k] over zeroed int and float
   output buffers and n = gws. *)
let plan_of modul ~gws =
  let zeros = String.make (gws * 4) '\000' in
  { Xlat_validate.Plan.modul;
    kernel = "k";
    args = [ Buf (TScalar Int, zeros); Buf (TScalar Float, zeros); Int gws ];
    dyn_shared = 0 }

(* [plan] on a fresh device under [config]: both buffers' bytes and the
   counters. *)
let run_once config plan ~gws ~lws =
  let stats, bufs = Xlat_validate.Plan.run ~config ~gws ~lws plan in
  (String.concat "" bufs, stats.Gpusim.Exec.counters)

let load src =
  Gpusim.Exec.load (Minic.Parser.program ~dialect:Minic.Parser.OpenCL src)

let check_backends_agree ~src ~gws ~lws =
  (* counters are held to Fuzz.Pyramid.counter_refinement against the
     IR with no passes; the optimizing passes legitimately change op
     counts, so the optimized run is held to byte-identical buffers
     only *)
  let plan = plan_of (load src) ~gws in
  let default = Gpusim.Config.default () in
  let compiled passes = { default with backend = Compiled; passes } in
  let b_out, b_ctr = run_once (compiled Ir.Pipeline.none) plan ~gws ~lws in
  let i_out, i_ctr = run_once { default with backend = Interp } plan ~gws ~lws in
  let o_out, _ = run_once (compiled Ir.Pipeline.all) plan ~gws ~lws in
  b_out = i_out && o_out = i_out
  && Fuzz.Pyramid.(
       counter_refinement ~ir:(counter_fields b_ctr)
         ~interp:(counter_fields i_ctr))
     = []

let arb_params =
  let gen =
    QCheck.Gen.(
      map
        (fun (c1, c2, c3, o1, o2, lw, m) -> (c1, c2, c3, o1, o2, lw, m))
        (tup7 (int_range (-50) 50) (int_range (-10) 10) (int_range 0 8)
           (int_range 0 4) (int_range 0 2) (int_range 0 2) (int_range 1 3)))
  in
  let print (c1, c2, c3, o1, o2, lw, m) =
    Printf.sprintf "c1=%d c2=%d c3=%d op1=%d op2=%d lws#%d mult=%d" c1 c2 c3
      o1 o2 lw m
  in
  QCheck.make ~print gen

let prop_backends_agree =
  QCheck.Test.make ~count:40 ~name:"compiled and interp backends agree"
    arb_params (fun (c1, c2, c3, o1, o2, lw, m) ->
        let op1 = [| "+"; "-"; "*"; "|"; "^" |].(o1) in
        let op2 = [| "+"; "-"; "^" |].(o2) in
        let lws = [| 8; 16; 32 |].(lw) in
        let src = kernel_src ~c1 ~c2 ~c3 ~op1 ~op2 in
        check_backends_agree ~src ~gws:(lws * m) ~lws)

(* Deterministic end-to-end check through the wrapper-library path: the
   same OpenCL application, run on the OpenCL-on-CUDA stack, prints the
   same checksum under both backends. *)
let app_agrees_across_backends () =
  let app = List.hd Suite.Registry.rodinia_opencl in
  let under backend =
    let config = { (Gpusim.Config.default ()) with backend } in
    let dev = Bridge.Framework.(device_of ~config Titan_cuda) in
    (Bridge.Framework.run_app_on_cuda app ~dev ()).Bridge.Framework.r_output
  in
  Alcotest.(check string)
    (app.Bridge.Framework.oa_name ^ " output")
    (under Gpusim.Exec.Interp)
    (under Gpusim.Exec.Compiled)

(* ------------------------------------------------------------------ *)
(* Build-cache contract                                                *)
(* ------------------------------------------------------------------ *)

(* A loaded module owns its compiled kernels: launched on two devices
   under one pass set it compiles once, a second pass set compiles a
   second form, the interpreter compiles nothing, and a second module of
   the same AST compiles its own. *)
let module_compiles_once () =
  let src = kernel_src ~c1:3 ~c2:2 ~c3:4 ~op1:"+" ~op2:"-" in
  let prog = Minic.Parser.program ~dialect:Minic.Parser.OpenCL src in
  let default = Gpusim.Config.default () in
  let launch ?(backend = Gpusim.Config.Compiled) m passes =
    ignore
      (run_once { default with backend; passes } (plan_of m ~gws:32) ~gws:32
         ~lws:8)
  in
  let forms = Gpusim.Exec.compiled_forms and check = Alcotest.(check int) in
  let m = Gpusim.Exec.load prog in
  launch m Ir.Pipeline.all;
  launch m Ir.Pipeline.all;
  check "two devices, one pass set: one compile" 1 (forms m);
  launch m Ir.Pipeline.none;
  check "a second pass set compiles a second form" 2 (forms m);
  launch ~backend:Interp m { Ir.Pipeline.none with fold = true };
  check "the interpreter compiles nothing" 2 (forms m);
  let m' = Gpusim.Exec.load prog in
  launch m' Ir.Pipeline.all;
  check "a second module of the same AST compiles its own" 1 (forms m');
  check "and leaves the first's alone" 2 (forms m)

let cache_hit_miss () =
  let c = Trace.Build_cache.create "test: unit cache" in
  let builds = ref 0 in
  let build () = incr builds; !builds in
  let v1 = Trace.Build_cache.memo c "source A" build in
  let v2 = Trace.Build_cache.memo c "source A" build in
  Alcotest.(check int) "identical source returns cached value" v1 v2;
  Alcotest.(check int) "builder ran once" 1 !builds;
  Alcotest.(check (pair int int)) "one hit, one miss" (1, 1)
    (Trace.Build_cache.stats c);
  let v3 = Trace.Build_cache.memo c "source B" build in
  Alcotest.(check int) "changed source rebuilds" 2 v3;
  Alcotest.(check (pair int int)) "miss after change" (1, 2)
    (Trace.Build_cache.stats c);
  Trace.Build_cache.clear c;
  Alcotest.(check (pair int int)) "clear resets stats" (0, 0)
    (Trace.Build_cache.stats c);
  let v4 = Trace.Build_cache.memo c "source A" build in
  Alcotest.(check int) "cleared cache rebuilds" 3 v4

let cache_failure_not_cached () =
  let c = Trace.Build_cache.create "test: failing cache" in
  let attempt () =
    Trace.Build_cache.find_or_build c ~key:"k" (fun () -> failwith "boom")
  in
  Alcotest.check_raises "first build fails" (Failure "boom") (fun () ->
      ignore (attempt ()));
  Alcotest.check_raises "failure was not cached" (Failure "boom") (fun () ->
      ignore (attempt ()));
  let v = Trace.Build_cache.find_or_build c ~key:"k" (fun () -> 42) in
  Alcotest.(check int) "later success is cached normally" 42 v;
  Alcotest.(check int) "and hits from then on" 42
    (Trace.Build_cache.find_or_build c ~key:"k" (fun () -> 0))

(* End-to-end: re-running an application through the OpenCL-on-CUDA
   wrappers re-uses the source-to-source translation. *)
let translate_cache_hits_across_runs () =
  let app = List.hd Suite.Registry.rodinia_opencl in
  let stats_of name =
    match
      List.find_opt (fun (n, _, _) -> n = name) (Trace.Build_cache.all_stats ())
    with
    | Some (_, h, m) -> (h, m)
    | None -> Alcotest.failf "cache %S not registered" name
  in
  ignore (Bridge.Framework.run_app_on_cuda app ());
  let h0, m0 = stats_of "ocl->cuda translate" in
  ignore (Bridge.Framework.run_app_on_cuda app ());
  let h1, m1 = stats_of "ocl->cuda translate" in
  Alcotest.(check int) "no new translations on re-run" m0 m1;
  Alcotest.(check bool) "re-run hits the cache" true (h1 > h0)

(* An OpenCL vector literal converts each component to its element
   type: fp32 rounding, int wrapping.  The OpenCL->CUDA translator
   rewrites it into make_<vector>, which must convert the same way.  The
   components here are inexact in fp32 or out of int range, and feed
   arithmetic before the store. *)
let vector_literals_convert () =
  let src = {|
__kernel void k(__global float* out, __global int* iout, int n) {
  int i = get_global_id(0);
  float s = (float)(i + 1);
  out[i] = ((float2)(0.1f, 0.3f)).y * s + ((float2)(0.7f, (double)s / 10.0)).y;
  iout[i] = ((int2)(2147483648L + i, i)).x < 0 ? 1 : 2;
}
|}
  in
  let gws = 64 in
  let prog = Minic.Parser.program ~dialect:Minic.Parser.OpenCL src in
  let native = plan_of (Gpusim.Exec.load prog) ~gws in
  let cuda =
    let r = Xlat.Ocl_to_cuda.translate prog in
    Xlat_validate.Plan.to_cuda native r.Xlat.Ocl_to_cuda.cuda_prog
      (List.hd r.Xlat.Ocl_to_cuda.kernels)
  in
  let default = Gpusim.Config.default () in
  let out backend plan =
    fst (run_once { default with backend } plan ~gws ~lws:16)
  in
  let want = out Compiled native in
  List.iter
    (fun (label, backend, plan) ->
       Alcotest.(check string) label want (out backend plan))
    [ ("native, interpreter", Gpusim.Config.Interp, native);
      ("OCL->CUDA, compiled", Compiled, cuda);
      ("OCL->CUDA, interpreter", Interp, cuda) ]

let suites =
  [ ( "backend.differential",
      [ QCheck_alcotest.to_alcotest prop_backends_agree;
        Alcotest.test_case "wrapper app agrees across backends" `Quick
          app_agrees_across_backends;
        Alcotest.test_case "vector literals convert through make_<vector>"
          `Quick vector_literals_convert ] );
    ( "backend.build-cache",
      [ Alcotest.test_case "hit on identical source, miss after change" `Quick
          cache_hit_miss;
        Alcotest.test_case "failed builds are not cached" `Quick
          cache_failure_not_cached;
        Alcotest.test_case "translate cache hits across app re-runs" `Quick
          translate_cache_hits_across_runs;
        Alcotest.test_case "a loaded module compiles once per pass set"
          `Quick module_compiles_once ] ) ]
