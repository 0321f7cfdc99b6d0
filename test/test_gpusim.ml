(* GPU execution engine and timing-model tests: work-item indices,
   barriers, atomics, shared memory, bank conflicts, coalescing,
   occupancy. *)

open Minic.Ast

let launch_ocl ?(fw = Gpusim.Device.opencl_on_nvidia) ~src ~kernel ~gws ~lws
    ~args () =
  let prog = Minic.Parser.program ~dialect:Minic.Parser.OpenCL src in
  let dev = Gpusim.Device.create Gpusim.Device.titan fw in
  let host = Vm.Memory.create "host" in
  let k = Option.get (find_function prog kernel) in
  let stats =
    Gpusim.Exec.launch ~dev ~modul:(Gpusim.Exec.load prog)
      ~globals:(Hashtbl.create 4) ~host_arena:host ~kernel:k
      ~cfg:{ global_size = gws; local_size = lws; dyn_shared = 0 }
      ~args:(args dev) ()
  in
  (dev, stats)

let gbuf (dev : Gpusim.Device.t) bytes =
  Vm.Memory.alloc dev.global ~align:256 bytes

let iptr addr =
  Gpusim.Exec.Arg_val
    (Vm.Interp.tv (VInt (Vm.Value.make_ptr AS_global addr)) (TPtr (TScalar Int)))

let read_ints (dev : Gpusim.Device.t) addr n =
  Array.init n (fun i ->
      Int64.to_int (Vm.Memory.load_int dev.global (addr + (4 * i)) 4))

(* --- execution semantics ------------------------------------------------ *)

let exec_tests =
  [ Alcotest.test_case "work-item indices over 2 dims" `Quick (fun () ->
        let src = {|
__kernel void idx(__global int* out, int w) {
  out[get_global_id(1) * w + get_global_id(0)] =
    get_group_id(0) * 1000 + get_local_id(0) * 100
    + get_group_id(1) * 10 + get_local_id(1);
}
|}
        in
        let out = ref 0 in
        let dev, _ =
          launch_ocl ~src ~kernel:"idx" ~gws:[| 4; 4; 1 |] ~lws:[| 2; 2; 1 |]
            ~args:(fun dev ->
                let b = gbuf dev (16 * 4) in
                out := b;
                [ iptr b;
                  Arg_val (Vm.Interp.tint 4) ])
            ()
        in
        let got = read_ints dev !out 16 in
        (* item at (x=3, y=2): group (1,1), local (1,0) *)
        Alcotest.(check int) "item (3,2)" 1110 got.((2 * 4) + 3);
        Alcotest.(check int) "item (0,0)" 0 got.(0));
    Alcotest.test_case "barrier makes writes visible across items" `Quick
      (fun () ->
         let src = {|
__kernel void rotate(__global int* out, __local int* tmp) {
  int t = get_local_id(0);
  tmp[t] = t * 10;
  barrier(CLK_LOCAL_MEM_FENCE);
  out[get_global_id(0)] = tmp[(t + 1) % get_local_size(0)];
}
|}
         in
         let out = ref 0 in
         let dev, _ =
           launch_ocl ~src ~kernel:"rotate" ~gws:[| 8; 1; 1 |] ~lws:[| 8; 1; 1 |]
             ~args:(fun dev ->
                 let b = gbuf dev (8 * 4) in
                 out := b;
                 [ iptr b; Arg_local (8 * 4) ])
             ()
         in
         Alcotest.(check (array int)) "rotated"
           [| 10; 20; 30; 40; 50; 60; 70; 0 |]
           (read_ints dev !out 8));
    Alcotest.test_case "atomic_inc vs atomicInc semantics" `Quick (fun () ->
        (* OpenCL atomic_inc counts all items; CUDA atomicInc wraps *)
        let src = {|
__kernel void count(__global int* plain, __global int* bounded) {
  atomic_inc(plain);
  atomicInc(bounded, 5u);
}
|}
        in
        let plain = ref 0 and bounded = ref 0 in
        let dev, _ =
          launch_ocl ~src ~kernel:"count" ~gws:[| 32; 1; 1 |] ~lws:[| 32; 1; 1 |]
            ~args:(fun dev ->
                let p = gbuf dev 4 and b = gbuf dev 4 in
                plain := p;
                bounded := b;
                [ iptr p; iptr b ])
            ()
        in
        Alcotest.(check int) "unbounded" 32 (read_ints dev !plain 1).(0);
        (* 32 increments wrapping at 5: 32 mod 6 = 2 *)
        Alcotest.(check int) "wraps at bound" 2 (read_ints dev !bounded 1).(0));
    Alcotest.test_case "dynamic shared memory via extern decl" `Quick (fun () ->
        let src = {|
__global__ void sums(int* out) {
  extern __shared__ int buf[];
  int t = threadIdx.x;
  buf[t] = t;
  __syncthreads();
  int acc = 0;
  for (int i = 0; i < blockDim.x; i++) acc += buf[i];
  out[blockIdx.x * blockDim.x + t] = acc;
}
|}
        in
        let prog = Minic.Parser.program ~dialect:Minic.Parser.Cuda src in
        let dev =
          Gpusim.Device.create Gpusim.Device.titan Gpusim.Device.cuda_on_nvidia
        in
        let host = Vm.Memory.create "host" in
        let b = gbuf dev (8 * 4) in
        let k = Option.get (find_function prog "sums") in
        ignore
          (Gpusim.Exec.launch ~dev ~modul:(Gpusim.Exec.load prog)
             ~globals:(Hashtbl.create 4) ~host_arena:host ~kernel:k
             ~cfg:{ global_size = [| 8; 1; 1 |]; local_size = [| 4; 1; 1 |];
                    dyn_shared = 4 * 4 }
             ~args:[ iptr b ] ());
        Alcotest.(check (array int)) "per-group sums"
          [| 6; 6; 6; 6; 6; 6; 6; 6 |]
          (read_ints dev b 8));
    Alcotest.test_case "indivisible work size is rejected" `Quick (fun () ->
        let src = "__kernel void f(__global int* p) { p[0] = 1; }" in
        Alcotest.(check bool) "raises" true
          (try
             ignore
               (launch_ocl ~src ~kernel:"f" ~gws:[| 10; 1; 1 |]
                  ~lws:[| 4; 1; 1 |]
                  ~args:(fun dev -> [ iptr (gbuf dev 4) ])
                  ());
             false
           with Gpusim.Exec.Launch_error _ -> true)) ]

(* --- counters and the timing model -------------------------------------- *)

let count_smem fw =
  (* 32 work-items each copy one double through local memory *)
  let src = {|
__kernel void copy(__global double* g, __local double* l) {
  int t = get_local_id(0);
  l[t] = g[t];
  barrier(CLK_LOCAL_MEM_FENCE);
  g[t] = l[t];
}
|}
  in
  let _, stats =
    launch_ocl ~fw ~src ~kernel:"copy" ~gws:[| 32; 1; 1 |] ~lws:[| 32; 1; 1 |]
      ~args:(fun dev ->
          let b = gbuf dev (32 * 8) in
          [ iptr b; Arg_local (32 * 8) ])
      ()
  in
  stats.Gpusim.Exec.counters

let timing_tests =
  [ Alcotest.test_case "double access: 2-way conflicts in 32-bit mode only"
      `Quick (fun () ->
          let c32 = count_smem Gpusim.Device.opencl_on_nvidia in
          let c64 = count_smem Gpusim.Device.cuda_on_nvidia in
          Alcotest.(check int) "accesses equal" c64.Gpusim.Counters.smem_accesses
            c32.Gpusim.Counters.smem_accesses;
          Alcotest.(check int) "64-bit mode conflict free" 0
            c64.Gpusim.Counters.smem_bank_conflict_extra;
          Alcotest.(check int) "32-bit mode 2-way: one extra per access"
            c32.Gpusim.Counters.smem_transactions
            (2 * c64.Gpusim.Counters.smem_transactions));
    Alcotest.test_case "coalescing: strided loads cost more transactions"
      `Quick (fun () ->
          let run stride =
            let src =
              Printf.sprintf
                {|
__kernel void gather(__global int* g, __global int* out) {
  out[get_global_id(0)] = g[get_global_id(0) * %d];
}
|}
                stride
            in
            let _, stats =
              launch_ocl ~src ~kernel:"gather" ~gws:[| 32; 1; 1 |]
                ~lws:[| 32; 1; 1 |]
                ~args:(fun dev ->
                    [ iptr (gbuf dev (32 * 4 * stride)); iptr (gbuf dev (32 * 4)) ])
                ()
            in
            stats.Gpusim.Exec.counters.Gpusim.Counters.gmem_transactions
          in
          let unit_stride = run 1 and strided = run 32 in
          Alcotest.(check bool) "strided needs more transactions" true
            (strided > 4 * unit_stride));
    Alcotest.test_case "occupancy calculation (paper's cfd case)" `Quick
      (fun () ->
         let r =
           Gpusim.Occupancy.compute Gpusim.Device.titan ~regs_per_thread:74
             ~block_threads:192 ~smem_per_block:0 ()
         in
         Alcotest.(check (float 1e-6)) "cuda occupancy" 0.375
           r.Gpusim.Occupancy.occupancy;
         let r' =
           Gpusim.Occupancy.compute Gpusim.Device.titan ~regs_per_thread:67
             ~block_threads:192 ~smem_per_block:0 ()
         in
         Alcotest.(check (float 1e-6)) "opencl occupancy" 0.469
           (Float.round (r'.Gpusim.Occupancy.occupancy *. 1000.) /. 1000.));
    Alcotest.test_case "occupancy limited by shared memory" `Quick (fun () ->
        let r =
          Gpusim.Occupancy.compute Gpusim.Device.titan ~regs_per_thread:16
            ~block_threads:64 ~smem_per_block:16384 ()
        in
        Alcotest.(check int) "3 blocks fit" 3 r.Gpusim.Occupancy.active_blocks;
        Alcotest.(check string) "reason" "shared memory"
          r.Gpusim.Occupancy.limited_by);
    Alcotest.test_case "kernel time grows with work" `Quick (fun () ->
        let time n =
          let src = {|
__kernel void spin(__global float* g, int iters) {
  float v = g[get_global_id(0)];
  for (int i = 0; i < iters; i++) v = v * 1.0001f + 0.5f;
  g[get_global_id(0)] = v;
}
|}
          in
          let dev, stats =
            launch_ocl ~src ~kernel:"spin" ~gws:[| 64; 1; 1 |] ~lws:[| 64; 1; 1 |]
              ~args:(fun dev ->
                  [ iptr (gbuf dev (64 * 4));
                    Arg_val (Vm.Interp.tint n) ])
              ()
          in
          Gpusim.Timing.kernel_time_ns dev stats
        in
        Alcotest.(check bool) "monotone" true (time 64 > time 4)) ]

(* --- OCLCU_* knobs ------------------------------------------------------- *)

(* Every knob reads its value trimmed; a malformed one is reported,
   naming the variable, and leaves the default. *)
let knob_tests =
  let parse name conv ~default raw = Ir.Knob.parse name conv ~default raw in
  let reported = Alcotest.(check (option string)) in
  [ Alcotest.test_case "knob values are trimmed; malformed ones reported"
      `Quick (fun () ->
          let open Gpusim.Config in
          let backend = parse "OCLCU_BACKEND" backend_of_string ~default:Compiled
          and engine = parse "OCLCU_ENGINE" engine_of_string ~default:Scalar
          and domains = parse "OCLCU_DOMAINS" positive ~default:3
          and passes =
            parse "OCLCU_IR_PASSES"
              (fun s -> Result.to_option (Ir.Pipeline.parse s))
              ~default:Ir.Pipeline.all
          in
          Alcotest.(check bool) "unset: the default" true
            (backend None = (Compiled, None));
          Alcotest.(check bool) "untrimmed backend" true
            (backend (Some " interp") = (Interp, None));
          Alcotest.(check bool) "untrimmed engine" true
            (engine (Some "lockstep\n") = (Lockstep, None));
          let v, r = engine (Some "lockstp") in
          Alcotest.(check bool) "misspelt engine keeps scalar" true (v = Scalar);
          reported "misspelt engine reported"
            (Some {|oclcu: malformed OCLCU_ENGINE="lockstp"; keeping the default|})
            r;
          let v, r = domains (Some "0") in
          Alcotest.(check int) "zero domains keep the default" 3 v;
          reported "zero domains reported"
            (Some {|oclcu: malformed OCLCU_DOMAINS="0"; keeping the default|}) r;
          Alcotest.(check bool) "domains" true (domains (Some " 4 ") = (4, None));
          let v, r = passes (Some "fold,bogus") in
          Alcotest.(check bool) "bad pass set keeps all" true
            (v = Ir.Pipeline.all);
          Alcotest.(check bool) "bad pass set reported" true (r <> None);
          Alcotest.(check bool) "pass set" true
            (passes (Some " none ") = (Ir.Pipeline.none, None))) ]

let suites =
  [ ("exec", exec_tests); ("timing", timing_tests); ("knobs", knob_tests) ]

(* --- qcheck: bank-conflict model vs a brute-force oracle ---------------- *)

(* For one warp access row of [n] items with element size [es] and item
   stride [stride] (in elements), the expected transaction count is the
   max over banks of the distinct words wanted from that bank. *)
let conflict_oracle ~word ~banks ~es ~stride ~n =
  let module S = Set.Make (Int) in
  let per_bank = Array.make banks S.empty in
  for i = 0 to n - 1 do
    let addr = i * stride * es in
    let w0 = addr / word and w1 = (addr + es - 1) / word in
    for w = w0 to w1 do
      let b = w mod banks in
      per_bank.(b) <- S.add w per_bank.(b)
    done
  done;
  Array.fold_left (fun m s -> max m (S.cardinal s)) 1 per_bank

(* one warp of [n] items, each making the one access of the row *)
let conflict_model ~word ~banks ~es ~stride ~n =
  let c = Gpusim.Counters.create () in
  let streams =
    Array.init n (fun i ->
        let s = Gpusim.Counters.stream_create () in
        Gpusim.Counters.stream_push s Minic.Ast.AS_local
          ~addr:(i * stride * es) ~size:es ~site:0;
        s)
  in
  Gpusim.Counters.finish_group c ~warp_size:n ~smem_word:word ~banks
    ~model_conflicts:true streams;
  c.Gpusim.Counters.smem_transactions

let conflict_qcheck =
  let gen =
    QCheck.Gen.(
      quad (oneofl [ 4; 8 ])        (* addressing-mode word *)
        (oneofl [ 4; 8; 16 ])       (* element size *)
        (int_range 1 8)             (* stride in elements *)
        (oneofl [ 8; 16; 32 ]))     (* items in the row *)
  in
  let print (w, es, st, n) =
    Printf.sprintf "word=%d es=%d stride=%d n=%d" w es st n
  in
  List.map QCheck_alcotest.to_alcotest
    [ QCheck.Test.make ~count:200
        ~name:"bank-conflict transactions match the brute-force oracle"
        (QCheck.make ~print gen)
        (fun (word, es, stride, n) ->
           conflict_model ~word ~banks:32 ~es ~stride ~n
           = conflict_oracle ~word ~banks:32 ~es ~stride ~n) ]

let known_conflict_cases =
  [ Alcotest.test_case "paper's table of conflict cases" `Quick (fun () ->
        let check name expect (word, es, stride) =
          Alcotest.(check int) name expect
            (conflict_model ~word ~banks:32 ~es ~stride ~n:32)
        in
        (* §6.2: contiguous doubles = 2-way in 32-bit mode, clean in
           64-bit mode *)
        check "double stride-1, 32-bit mode" 2 (4, 8, 1);
        check "double stride-1, 64-bit mode" 1 (8, 8, 1);
        (* contiguous floats never conflict *)
        check "float stride-1, 32-bit mode" 1 (4, 4, 1);
        (* classic stride-2 words *)
        check "float stride-2, 32-bit mode" 2 (4, 4, 2);
        (* double2 elements: 4-way vs 2-way *)
        check "double2 stride-1, 32-bit mode" 4 (4, 16, 1);
        check "double2 stride-1, 64-bit mode" 2 (8, 16, 1)) ]

let suites =
  suites
  @ [ ("conflict-oracle", known_conflict_cases @ conflict_qcheck) ]
