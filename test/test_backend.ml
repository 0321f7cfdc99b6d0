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

let run_once backend ~src ~gws ~lws =
  let saved = !Gpusim.Exec.backend in
  Gpusim.Exec.backend := backend;
  Fun.protect ~finally:(fun () -> Gpusim.Exec.backend := saved) @@ fun () ->
  let prog = Minic.Parser.program ~dialect:Minic.Parser.OpenCL src in
  let dev =
    Gpusim.Device.create Gpusim.Device.titan Gpusim.Device.opencl_on_nvidia
  in
  let host = Vm.Memory.create "host" in
  let k = Option.get (find_function prog "k") in
  let out = Vm.Memory.alloc dev.Gpusim.Device.global ~align:256 (gws * 4) in
  let fout = Vm.Memory.alloc dev.Gpusim.Device.global ~align:256 (gws * 4) in
  let ptr addr elt =
    Gpusim.Exec.Arg_val
      (Vm.Interp.tv
         (Vm.Value.VInt (Vm.Value.make_ptr AS_global addr))
         (TPtr (TScalar elt)))
  in
  let stats =
    Gpusim.Exec.launch ~dev ~prog ~globals:(Hashtbl.create 4) ~host_arena:host
      ~kernel:k
      ~cfg:
        { global_size = [| gws; 1; 1 |];
          local_size = [| lws; 1; 1 |];
          dyn_shared = 0 }
      ~args:
        [ ptr out Int; ptr fout Float;
          Gpusim.Exec.Arg_val (Vm.Interp.tint gws) ]
      ()
  in
  let bytes =
    Bytes.to_string (Vm.Memory.load_bytes dev.Gpusim.Device.global out (gws * 4))
    ^ Bytes.to_string
        (Vm.Memory.load_bytes dev.Gpusim.Device.global fout (gws * 4))
  in
  (bytes, stats.Gpusim.Exec.counters)

let check_backends_agree ~src ~gws ~lws =
  (* counters are held to Fuzz.Pyramid.counter_refinement against the
     IR with no passes; the optimizing passes legitimately change op
     counts, so the optimized run is held to byte-identical buffers
     only *)
  let b_out, b_ctr =
    Ir.Pipeline.with_passes Ir.Pipeline.none (fun () ->
        run_once Gpusim.Exec.Compiled ~src ~gws ~lws)
  in
  let i_out, i_ctr = run_once Gpusim.Exec.Interp ~src ~gws ~lws in
  let o_out, _ =
    Ir.Pipeline.with_passes Ir.Pipeline.all (fun () ->
        run_once Gpusim.Exec.Compiled ~src ~gws ~lws)
  in
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
    let saved = !Gpusim.Exec.backend in
    Gpusim.Exec.backend := backend;
    Fun.protect ~finally:(fun () -> Gpusim.Exec.backend := saved) @@ fun () ->
    (Bridge.Framework.run_app_on_cuda app ()).Bridge.Framework.r_output
  in
  Alcotest.(check string)
    (app.Bridge.Framework.oa_name ^ " output")
    (under Gpusim.Exec.Interp)
    (under Gpusim.Exec.Compiled)

(* ------------------------------------------------------------------ *)
(* Build-cache contract                                                *)
(* ------------------------------------------------------------------ *)

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

let suites =
  [ ( "backend.differential",
      [ QCheck_alcotest.to_alcotest prop_backends_agree;
        Alcotest.test_case "wrapper app agrees across backends" `Quick
          app_agrees_across_backends ] );
    ( "backend.build-cache",
      [ Alcotest.test_case "hit on identical source, miss after change" `Quick
          cache_hit_miss;
        Alcotest.test_case "failed builds are not cached" `Quick
          cache_failure_not_cached;
        Alcotest.test_case "translate cache hits across app re-runs" `Quick
          translate_cache_hits_across_runs ] ) ]
