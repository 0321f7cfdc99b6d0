(* Directed regressions for lockstep micro-op execution.

   The micro-op interpreter (Gpusim.Lockstep + Ir.Region) executes
   straight-line runs of lane-resident fast-shape instructions as single
   per-warp loops (fused regions), and every other fast shape alone,
   with its boxed registers crossing through shadow lane slots.  Each
   test here pins one hazard: a divergence join landing between
   regions, a barrier splitting a run, a cross-lane hazard bailing out
   mid-region with a clean rollback, translator-injected (site-0) code
   charging through the batched counter path, and boxed crossings
   under divergence and barriers.  The planted-bug cases flip the
   engine's deliberate bug knobs ([bug_drop_mask], [bug_skip_charge])
   and demand that the differential harness *catches* the corruption —
   a net that cannot see a dropped mask check or a skipped charge is
   not a net. *)

module T = Test_lockstep

let check = Alcotest.(check bool)
let check_ints = Alcotest.(check (array int))
let check_int = Alcotest.(check int)

let with_bug (r : bool ref) f =
  r := true;
  Fun.protect ~finally:(fun () -> r := false) f

(* Compile [src]'s kernels and return the lockstep plan for [kernel]. *)
let plan_of ~src ~kernel =
  let prog = Minic.Parser.program ~dialect:Minic.Parser.OpenCL src in
  let est =
    Ir.Emit.make ~special_ty:Gpusim.Exec.special_ty
      ~cfg:(Gpusim.Config.default ()).passes prog
  in
  match Gpusim.Lockstep.plan_for est ~name:kernel ~warp:32 with
  | Ok p -> p
  | Error why -> Alcotest.fail ("not lockstep-eligible: " ^ why)

(* --- region boundaries --------------------------------------------------- *)

let boundary_tests =
  [ Alcotest.test_case "divergence join lands between regions" `Quick
      (fun () ->
         (* the if/else arms and the straight-line tail are separate
            regions; after the join every lane must be active again for
            the fused tail arithmetic *)
         let src = {|
__kernel void join(__global int* out) {
  int t = (int)get_global_id(0);
  int v = 0;
  if (t % 2 == 0) { v = 10 + t; v = v * 3; }
  else { v = 20 + t; v = v * 5; }
  int w = v * 2 + t;
  out[t] = w;
}
|}
         in
         let out, eng =
           T.both ~src ~kernel:"join" ~gws:[| 64; 1; 1 |] ~lws:[| 16; 1; 1 |]
             ~out_ints:64 ()
         in
         let expected =
           Array.init 64 (fun t ->
               let v =
                 if t mod 2 = 0 then (10 + t) * 3 else (20 + t) * 5
               in
               (v * 2) + t)
         in
         check_ints "host model" expected (T.expect_ran out eng);
         check "arms and tail fused" true
           ((plan_of ~src ~kernel:"join").Gpusim.Lockstep.p_fused >= 3));
    Alcotest.test_case "barrier splits a straight-line run" `Quick (fun () ->
        (* without the barrier this body is one straight line; the
           barrier must end the region so the local-memory exchange
           sees every lane's store *)
        let src = {|
__kernel void bar(__global int* out, __local int* tmp) {
  int t = (int)get_local_id(0);
  int a = t * 2 + 1;
  tmp[t] = a;
  barrier(CLK_LOCAL_MEM_FENCE);
  int b = tmp[(t + 1) % 8];
  out[get_global_id(0)] = b * 10 + t;
}
|}
        in
        let out, eng =
          T.both ~src ~kernel:"bar" ~gws:[| 32; 1; 1 |] ~lws:[| 8; 1; 1 |]
            ~extra_args:[ Gpusim.Exec.Arg_local (8 * 4) ] ~out_ints:32 ()
        in
        let expected =
          Array.init 32 (fun i ->
              let t = i mod 8 in
              (((((t + 1) mod 8) * 2) + 1) * 10) + t)
        in
        check_ints "host model" expected (T.expect_ran out eng);
        check "split into >= 2 regions" true
          ((plan_of ~src ~kernel:"bar").Gpusim.Lockstep.p_fused >= 2));
    Alcotest.test_case "hazard bail inside a fused region rolls back" `Quick
      (fun () ->
         (* both stores fuse into one region; the cross-lane clobber of
            c[0] is detected at the hazard check, the whole warp-side
            effect set is rolled back, and the scalar rerun lands the
            sequential last-item-wins state with scalar counters *)
         let src = {|
__kernel void clob(__global int* out, __global int* c) {
  int t = (int)get_global_id(0);
  int v = t * 3 + 1;
  out[t] = v;
  c[0] = v;
}
|}
         in
         check "stores fused into one region" true
           ((plan_of ~src ~kernel:"clob").Gpusim.Lockstep.p_fused = 1);
         let run engine =
           let prog =
             Minic.Site.annotate
               (Minic.Parser.program ~dialect:Minic.Parser.OpenCL src)
           in
           let dev = T.device ~engine ~domains:1 in
           let host = Vm.Memory.create "host" in
           let k = Option.get (Minic.Ast.find_function prog "clob") in
           let out = T.gbuf dev (8 * 4) and c = T.gbuf dev 4 in
           let stats =
             Gpusim.Exec.launch ~dev ~modul:(Gpusim.Exec.load prog)
               ~globals:(Hashtbl.create 4) ~host_arena:host ~kernel:k
               ~cfg:
                 { global_size = [| 8; 1; 1 |]; local_size = [| 8; 1; 1 |];
                   dyn_shared = 0 }
               ~args:[ T.iptr out; T.iptr c ] ()
           in
           ( T.read_ints dev out 8,
             T.read_ints dev c 1,
             stats.Gpusim.Exec.engine,
             stats.Gpusim.Exec.counters )
         in
         let s_out, s_c, _, s_ctr = run Gpusim.Exec.Scalar in
         let l_out, l_c, l_eng, l_ctr = run Gpusim.Exec.Lockstep in
         (match l_eng with
          | Gpusim.Exec.Engine_bailed _ -> ()
          | o -> Alcotest.fail ("expected a bail, got " ^ T.engine_name o));
         check_ints "out agrees" s_out l_out;
         check_ints "last item wins" s_c l_c;
         check_int "sequential winner" ((7 * 3) + 1) l_c.(0);
         check "rerun counters are the scalar counters" true (s_ctr = l_ctr));
    Alcotest.test_case "translated (site-0) code charges exactly" `Quick
      (fun () ->
         (* ocl->cuda translation injects unannotated index plumbing;
            the fused charge table must reproduce the scalar engine's
            site-0/ambient attribution rows for it *)
         let src = {|
__kernel void tx(__global int* out) {
  int t = (int)get_global_id(0);
  int v = t * 7 + 3;
  out[t] = v;
}
|}
         in
         let prog = Minic.Parser.program ~dialect:Minic.Parser.OpenCL src in
         let result = Xlat.Ocl_to_cuda.translate prog in
         let cuda_src =
           Minic.Pretty.program_str Minic.Pretty.Cuda
             result.Xlat.Ocl_to_cuda.cuda_prog
         in
         let out, eng =
           T.both ~dialect:Minic.Parser.Cuda ~src:cuda_src ~kernel:"tx"
             ~gws:[| 32; 1; 1 |] ~lws:[| 8; 1; 1 |] ~out_ints:32 ()
         in
         let expected = Array.init 32 (fun t -> (t * 7) + 3) in
         check_ints "host model" expected (T.expect_ran out eng)) ]

(* --- planted bugs: the net must catch them ------------------------------- *)

let planted_tests =
  [ Alcotest.test_case "dropped mask check is caught" `Quick (fun () ->
        (* [bug_drop_mask] makes fused regions run every live lane
           instead of the divergence mask; a region under a branch then
           clobbers the else-lanes.  The differential harness must see
           the corruption — and the same kernel must pass clean. *)
        let src = {|
__kernel void pb(__global int* out) {
  int t = (int)get_global_id(0);
  int v = t;
  if (t % 2 == 0) { v = v * 3; v = v + 1; }
  out[t] = v;
}
|}
        in
        let run () =
          T.launch ~engine:Gpusim.Exec.Lockstep ~src ~kernel:"pb"
            ~gws:[| 32; 1; 1 |] ~lws:[| 8; 1; 1 |] ~out_ints:32 ()
        in
        let expected =
          Array.init 32 (fun t -> if t mod 2 = 0 then (t * 3) + 1 else t)
        in
        let buggy, _, _ = with_bug Gpusim.Lockstep.bug_drop_mask run in
        check "planted mask bug detected" true (buggy <> expected);
        let clean, eng, _ = run () in
        check_ints "clean run matches host model" expected
          (T.expect_ran clean eng));
    Alcotest.test_case "skipped region charge is caught" `Quick (fun () ->
        (* [bug_skip_charge] drops the batched counter/attr charges at
           region entry; the counters comparison against the scalar
           engine must flag the deficit *)
        let src = {|
__kernel void chg(__global int* out) {
  int t = (int)get_global_id(0);
  int v = t * 5 + 2;
  v = v * 3 - t;
  out[t] = v;
}
|}
        in
        let run engine =
          let _, _, (ctr, attr) =
            T.launch ~engine ~src ~kernel:"chg" ~gws:[| 32; 1; 1 |]
              ~lws:[| 8; 1; 1 |] ~out_ints:32 ()
          in
          (ctr, attr)
        in
        let s_ctr, s_attr = run Gpusim.Exec.Scalar in
        let b_ctr, b_attr =
          with_bug Gpusim.Lockstep.bug_skip_charge (fun () ->
              run Gpusim.Exec.Lockstep)
        in
        check "planted charge bug detected" true
          ((b_ctr, b_attr) <> (s_ctr, s_attr));
        let l_ctr, l_attr = run Gpusim.Exec.Lockstep in
        check "clean counters agree" true (s_ctr = l_ctr);
        check "clean attribution agrees" true (s_attr = l_attr));
    Alcotest.test_case "dropped mask on a boxed crossing is caught" `Quick
      (fun () ->
         (* [v] is defined by a division (not a fast shape), so it lives
            boxed, and the branch holds nothing but fast shapes over it:
            [v * 5] unboxes it, the write-back boxes it.  Under
            [bug_drop_mask] those one-instruction runs write every live
            lane's [v], so the odd lanes must come out wrong. *)
         let src = {|
__kernel void bx(__global int* out) {
  int t = (int)get_global_id(0);
  int v = t / 3;
  if (t % 2 == 0) v = v * 5;
  out[t] = v;
}
|}
         in
         check "branch runs through crossings" true
           ((plan_of ~src ~kernel:"bx").Gpusim.Lockstep.p_crossed >= 2);
         let run () =
           T.launch ~engine:Gpusim.Exec.Lockstep ~src ~kernel:"bx"
             ~gws:[| 32; 1; 1 |] ~lws:[| 8; 1; 1 |] ~out_ints:32 ()
         in
         let expected =
           Array.init 32 (fun t -> if t mod 2 = 0 then t / 3 * 5 else t / 3)
         in
         let buggy, _, _ = with_bug Gpusim.Lockstep.bug_drop_mask run in
         check "planted mask bug detected on an odd lane" true
           (List.exists
              (fun t -> t mod 2 = 1 && buggy.(t) <> expected.(t))
              (List.init 32 Fun.id));
         let clean, eng, _ = run () in
         check_ints "clean run matches host model" expected
           (T.expect_ran clean eng)) ]

(* --- boxed crossings ----------------------------------------------------- *)

let crossing_tests =
  [ Alcotest.test_case "boxed crossings match scalar at 1 and 4 domains"
      `Quick (fun () ->
        (* the `local-reduce` bench kernel: the stride [s] is halved by a
           division, so it lives boxed, and the loop test, [t < s] and
           [t + s] run alone through unbox/box crossings — under
           divergence and between barriers *)
        let src = {|
__kernel void reduce(__global int* out, __local int* tmp) {
  int t = (int)get_local_id(0);
  tmp[t] = t + (int)get_group_id(0);
  barrier(CLK_LOCAL_MEM_FENCE);
  for (int s = 32; s > 0; s /= 2) {
    if (t < s) tmp[t] = tmp[t] + tmp[t + s];
    barrier(CLK_LOCAL_MEM_FENCE);
  }
  if (t == 0) out[get_group_id(0)] = tmp[0];
}
|}
        in
        check "kernel has boxed crossings" true
          ((plan_of ~src ~kernel:"reduce").Gpusim.Lockstep.p_crossed > 0);
        let expected = Array.init 4 (fun g -> 2016 + (64 * g)) in
        List.iter
          (fun domains ->
             let out, eng =
               T.both ~domains ~src ~kernel:"reduce" ~gws:[| 256; 1; 1 |]
                 ~lws:[| 64; 1; 1 |]
                 ~extra_args:[ Gpusim.Exec.Arg_local (64 * 4) ]
                 ~out_ints:4 ()
             in
             check_ints "host model" expected (T.expect_ran out eng))
          [ 1; 4 ]) ]

let suites =
  [ ("fusion.boundaries", boundary_tests);
    ("fusion.planted", planted_tests);
    ("fusion.crossings", crossing_tests) ]
