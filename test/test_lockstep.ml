(* Differential and directed tests for the warp-lockstep engine.

   The contract under test: running a launch on a device configured
   with the [Lockstep] engine is observationally indistinguishable from the
   scalar engine — output buffers byte-for-byte, the full
   {!Gpusim.Counters.t} and the per-site {!Gpusim.Attr} tables — at any
   domain count, whether the kernel actually ran in lockstep, fell back
   at eligibility, or bailed out on a cross-lane hazard.  The directed
   cases additionally pin down *which* path ran via the per-launch
   [launch_stats.engine], so a regression that silently forces
   everything through the scalar fallback still fails.  Several cases
   are planted-bug regressions: their expected outputs are computed
   host-side, so a divergence-mask bug shared by both engines cannot
   hide. *)

open Minic.Ast

let check = Alcotest.(check bool)
let check_ints = Alcotest.(check (array int))

(* The process defaults under [engine] on [domains] domains. *)
let config ~engine ~domains =
  { (Gpusim.Config.default ()) with engine; domains }

(* A fresh device launching under [config ~engine ~domains]. *)
let device ~engine ~domains =
  Gpusim.Device.create ~config:(config ~engine ~domains) Gpusim.Device.titan
    Gpusim.Device.opencl_on_nvidia

let gbuf (dev : Gpusim.Device.t) bytes =
  Vm.Memory.alloc dev.global ~align:256 bytes

let iptr addr =
  Gpusim.Exec.Arg_val
    (Vm.Interp.tv
       (Vm.Value.VInt (Vm.Value.make_ptr AS_global addr))
       (TPtr (TScalar Int)))

let read_ints (dev : Gpusim.Device.t) addr n =
  Array.init n (fun i ->
      Int64.to_int (Vm.Memory.load_int dev.global (addr + (4 * i)) 4))

let engine_name = function
  | Gpusim.Exec.Engine_scalar -> "scalar"
  | Gpusim.Exec.Engine_lockstep -> "lockstep"
  | Gpusim.Exec.Engine_fallback r -> "fallback: " ^ r
  | Gpusim.Exec.Engine_bailed r -> "bailed: " ^ r

(* Launch [src]'s [kernel] under [engine], its statements annotated with
   their sites so launches attribute per site; returns the output ints,
   the engine outcome and the comparable observables. *)
let launch ?(dialect = Minic.Parser.OpenCL) ~engine ?(domains = 1) ~src
    ~kernel ~gws ~lws ?(extra_args = []) ~out_ints () =
  let prog = Minic.Site.annotate (Minic.Parser.program ~dialect src) in
  let dev = device ~engine ~domains in
  let host = Vm.Memory.create "host" in
  let k = Option.get (find_function prog kernel) in
  let out = gbuf dev (out_ints * 4) in
  let stats =
    Gpusim.Exec.launch ~dev ~modul:(Gpusim.Exec.load prog)
      ~globals:(Hashtbl.create 4) ~host_arena:host ~kernel:k
      ~cfg:{ global_size = gws; local_size = lws; dyn_shared = 0 }
      ~args:(iptr out :: extra_args) ()
  in
  ( read_ints dev out out_ints,
    stats.Gpusim.Exec.engine,
    ( stats.Gpusim.Exec.counters,
      Option.map Gpusim.Attr.to_list stats.Gpusim.Exec.attr ) )

(* Run under both engines and demand identical observables; returns the
   lockstep run's output and engine outcome for further checks. *)
let both ?dialect ?domains ~src ~kernel ~gws ~lws ?extra_args ~out_ints () =
  let s_out, s_eng, s_obs =
    launch ?dialect ~engine:Gpusim.Exec.Scalar ?domains ~src ~kernel ~gws ~lws
      ?extra_args ~out_ints ()
  in
  (match s_eng with
   | Gpusim.Exec.Engine_scalar -> ()
   | o -> Alcotest.fail ("scalar run reported " ^ engine_name o));
  let l_out, l_eng, l_obs =
    launch ?dialect ~engine:Gpusim.Exec.Lockstep ?domains ~src ~kernel ~gws
      ~lws ?extra_args ~out_ints ()
  in
  check_ints "buffers agree" s_out l_out;
  check "counters agree" true (fst s_obs = fst l_obs);
  check "attribution agrees" true (snd s_obs = snd l_obs);
  (l_out, l_eng)

let expect_ran out = function
  | Gpusim.Exec.Engine_lockstep -> out
  | o -> Alcotest.fail ("expected the lockstep path, got " ^ engine_name o)

(* --- directed divergence-mask units ------------------------------------ *)

let divergence_tests =
  [ Alcotest.test_case "nested if/else divergence" `Quick (fun () ->
        let src = {|
__kernel void nest(__global int* out) {
  int t = (int)get_global_id(0);
  int v = 0;
  if (t % 2 == 0) {
    if (t % 4 == 0) v = 10 + t; else v = 20 + t;
  } else {
    if (t % 3 == 0) v = 30 + t; else v = 40 + t;
  }
  out[t] = v;
}
|}
        in
        let out, eng =
          both ~src ~kernel:"nest" ~gws:[| 64; 1; 1 |] ~lws:[| 16; 1; 1 |]
            ~out_ints:64 ()
        in
        let expected =
          Array.init 64 (fun t ->
              if t mod 2 = 0 then (if t mod 4 = 0 then 10 + t else 20 + t)
              else if t mod 3 = 0 then 30 + t
              else 40 + t)
        in
        check_ints "host model" expected (expect_ran out eng));
    Alcotest.test_case "loop break/continue re-convergence" `Quick (fun () ->
        (* lanes leave the loop at different trip counts, through the
           condition, a break and a continue; the store after the loop
           must see every lane active again *)
        let src = {|
__kernel void loops(__global int* out) {
  int t = (int)get_global_id(0);
  int acc = 0;
  for (int i = 0; i < t % 5 + 1; i++) {
    if (i == 3 && t % 7 == 0) break;
    if (i == 1 && t % 3 == 0) continue;
    acc = acc + i + 1;
  }
  out[t] = acc * 100 + t;
}
|}
        in
        let out, eng =
          both ~src ~kernel:"loops" ~gws:[| 64; 1; 1 |] ~lws:[| 16; 1; 1 |]
            ~out_ints:64 ()
        in
        let expected =
          Array.init 64 (fun t ->
              let acc = ref 0 in
              (try
                 for i = 0 to t mod 5 do
                   if i = 3 && t mod 7 = 0 then raise Exit;
                   if not (i = 1 && t mod 3 = 0) then acc := !acc + i + 1
                 done
               with Exit -> ());
              (!acc * 100) + t)
        in
        check_ints "host model" expected (expect_ran out eng));
    Alcotest.test_case "barrier under uniform branch" `Quick (fun () ->
        (* the branch splits on the group id — warp-uniform — so the
           kernel stays lockstep-eligible with a barrier on both arms *)
        let src = {|
__kernel void ubr(__global int* out, __local int* tmp) {
  int t = (int)get_local_id(0);
  if ((int)get_group_id(0) % 2 == 0) {
    tmp[t] = t + 1;
    barrier(CLK_LOCAL_MEM_FENCE);
    out[get_global_id(0)] = tmp[(t + 1) % 8];
  } else {
    tmp[t] = 2 * t;
    barrier(CLK_LOCAL_MEM_FENCE);
    out[get_global_id(0)] = tmp[(t + 7) % 8];
  }
}
|}
        in
        let out, eng =
          both ~src ~kernel:"ubr" ~gws:[| 32; 1; 1 |] ~lws:[| 8; 1; 1 |]
            ~extra_args:[ Gpusim.Exec.Arg_local (8 * 4) ] ~out_ints:32 ()
        in
        let expected =
          Array.init 32 (fun i ->
              let t = i mod 8 and g = i / 8 in
              if g mod 2 = 0 then ((t + 1) mod 8) + 1
              else 2 * ((t + 7) mod 8))
        in
        check_ints "host model" expected (expect_ran out eng)) ]

(* --- planted-bug regressions -------------------------------------------- *)

let regression_tests =
  [ Alcotest.test_case "mask popped after nested divergence" `Quick (fun () ->
        (* a missed mask pop would leave lanes disabled for the
           unconditional tail store; the host model catches it even if
           both engines shared the bug *)
        let src = {|
__kernel void tail(__global int* out) {
  int t = (int)get_global_id(0);
  int v = 1;
  if (t % 2 == 0) { if (t % 4 == 0) v = 2; }
  else { if (t % 3 == 0) v = 3; }
  out[t] = v * 1000 + t;
}
|}
        in
        let out, eng =
          both ~src ~kernel:"tail" ~gws:[| 32; 1; 1 |] ~lws:[| 8; 1; 1 |]
            ~out_ints:32 ()
        in
        let expected =
          Array.init 32 (fun t ->
              let v =
                if t mod 2 = 0 then (if t mod 4 = 0 then 2 else 1)
                else if t mod 3 = 0 then 3
                else 1
              in
              (v * 1000) + t)
        in
        check_ints "host model" expected (expect_ran out eng));
    Alcotest.test_case "inactive lanes do not store" `Quick (fun () ->
        (* a store leaking across an inactive lane would overwrite the
           odd lanes' sentinel *)
        let src = {|
__kernel void leak(__global int* out) {
  int t = (int)get_global_id(0);
  out[t] = -1;
  if (t % 2 == 0) out[t] = 7;
}
|}
        in
        let out, eng =
          both ~src ~kernel:"leak" ~gws:[| 32; 1; 1 |] ~lws:[| 8; 1; 1 |]
            ~out_ints:32 ()
        in
        let expected = Array.init 32 (fun t -> if t mod 2 = 0 then 7 else -1) in
        check_ints "host model" expected (expect_ran out eng));
    Alcotest.test_case "reference and address-taken parameters run lockstep"
      `Quick (fun () ->
          (* the widened lowering keeps helper calls with reference and
             address-taken parameters inside the IR, so the kernel stays
             lockstep-eligible *)
          let src = {|
__device__ void bump(float &x, float d) { x = x + d; }
__device__ float taken(float x) { float *p = &x; *p = *p + 1.0f; return x; }
__global__ void k(int* out) {
  int t = blockIdx.x * blockDim.x + threadIdx.x;
  float v = (float)t;
  bump(v, 2.0f);
  v = taken(v);
  out[t] = (int)v;
}
|}
          in
          let out, eng =
            both ~dialect:Minic.Parser.Cuda ~src ~kernel:"k"
              ~gws:[| 32; 1; 1 |] ~lws:[| 8; 1; 1 |] ~out_ints:32 ()
          in
          let expected = Array.init 32 (fun t -> t + 3) in
          check_ints "host model" expected (expect_ran out eng)) ]

(* --- eligibility and hazard telemetry ----------------------------------- *)

let outcome_tests =
  [ Alcotest.test_case "divergent barrier falls back to scalar" `Quick
      (fun () ->
         (* the uniformity analysis cannot prove the branch warp-uniform,
            so the kernel is ineligible; results must still be right *)
         let src = {|
__kernel void fb(__global int* out, __local int* tmp) {
  int t = (int)get_local_id(0);
  tmp[t] = t;
  if (t < 8) barrier(CLK_LOCAL_MEM_FENCE);
  out[get_global_id(0)] = tmp[t] + 5;
}
|}
         in
         let out, eng =
           both ~src ~kernel:"fb" ~gws:[| 32; 1; 1 |] ~lws:[| 8; 1; 1 |]
             ~extra_args:[ Gpusim.Exec.Arg_local (8 * 4) ] ~out_ints:32 ()
         in
         (match eng with
          | Gpusim.Exec.Engine_fallback _ -> ()
          | o -> Alcotest.fail ("expected fallback, got " ^ engine_name o));
         check_ints "host model" (Array.init 32 (fun i -> (i mod 8) + 5)) out);
    Alcotest.test_case "cross-lane write hazard bails to scalar rerun" `Quick
      (fun () ->
         (* every lane stores a different value to one cell: the hazard
            check must abort lockstep and the rollback + scalar rerun
            must land the sequential last-item-wins value *)
         let src = {|
__kernel void clob(__global int* out, __global int* c) {
  int t = (int)get_global_id(0);
  out[t] = t;
  c[0] = t;
}
|}
         in
         let run engine =
           let prog = Minic.Parser.program ~dialect:Minic.Parser.OpenCL src in
           let dev = device ~engine ~domains:1 in
           let host = Vm.Memory.create "host" in
           let k = Option.get (find_function prog "clob") in
           let out = gbuf dev (8 * 4) and c = gbuf dev 4 in
           let stats =
             Gpusim.Exec.launch ~dev ~modul:(Gpusim.Exec.load prog)
               ~globals:(Hashtbl.create 4) ~host_arena:host ~kernel:k
               ~cfg:
                 { global_size = [| 8; 1; 1 |]; local_size = [| 8; 1; 1 |];
                   dyn_shared = 0 }
               ~args:[ iptr out; iptr c ] ()
           in
           (read_ints dev out 8, read_ints dev c 1, stats.Gpusim.Exec.engine)
         in
         let s_out, s_c, _ = run Gpusim.Exec.Scalar in
         let l_out, l_c, l_eng = run Gpusim.Exec.Lockstep in
         (match l_eng with
          | Gpusim.Exec.Engine_bailed _ -> ()
          | o -> Alcotest.fail ("expected a bail, got " ^ engine_name o));
         check_ints "out agrees" s_out l_out;
         check_ints "last item wins" s_c l_c;
         check_ints "sequential winner" [| 7 |] l_c) ]

(* --- qcheck: generated kernels, lockstep vs Ir.Emit vs Vm.Interp -------- *)

let run_with ~engine ~backend ~domains case plan =
  match
    Fuzz.Pyramid.launch { (config ~engine ~domains) with backend } case plan
  with
  | stats, bytes ->
    Ok
      ( bytes,
        stats.Gpusim.Exec.counters,
        Option.map Gpusim.Attr.to_list stats.Gpusim.Exec.attr )
  | exception e -> Error (Printexc.to_string e)

let prop_differential =
  QCheck.Test.make ~count:35
    ~name:
      "generated kernels: lockstep = scalar on bytes, counters and \
       attribution at domains {1,4}"
    QCheck.(int_range 0 100_000)
    (fun seed ->
       let case = Fuzz.Gen.generate (Fuzz.Rng.create seed) in
       (* annotated, so the per-site tables compared below have a row
          per statement *)
       let plan =
         Fuzz.Pyramid.plan_a case (Minic.Site.annotate case.Fuzz.Gen.c_prog)
       in
       let reference =
         run_with ~engine:Gpusim.Exec.Scalar ~backend:Gpusim.Exec.Compiled
           ~domains:1 case plan
       in
       (* lockstep must reproduce the scalar observables —
          byte-identical buffers, identical Counters.t (including
          warp-divergence rows), identical per-site Attr sums
          (including elimination credits) *)
       let lockstep_agrees =
         List.for_all
           (fun domains ->
              run_with ~engine:Gpusim.Exec.Lockstep
                ~backend:Gpusim.Exec.Compiled ~domains case plan
              = reference)
           [ 1; 4 ]
       in
       (* third leg: the interpreter reproduces the buffer bytes (its
          counters legitimately differ when IR passes rewrite ops) *)
       let interp_agrees =
         match reference with
         | Error _ -> true
         | Ok (ref_bytes, _, _) ->
           (match
              run_with ~engine:Gpusim.Exec.Scalar ~backend:Gpusim.Exec.Interp
                ~domains:1 case plan
            with
            | Ok (bytes, _, _) -> bytes = ref_bytes
            | Error _ -> false)
       in
       lockstep_agrees && interp_agrees)

let suites =
  [ ("lockstep.divergence", divergence_tests);
    ("lockstep.regression", regression_tests);
    ("lockstep.outcome", outcome_tests);
    ( "lockstep.qcheck",
      [ QCheck_alcotest.to_alcotest prop_differential ] ) ]
