(* Determinism harness for the domain-parallel execution engine.

   The contract under test: running a launch on a device configured
   with any domain count is observationally indistinguishable from the
   sequential engine — output buffers byte-for-byte, the full
   {!Gpusim.Counters.t}, traces, goldens and exceptions.  The directed
   cases additionally pin down *which* path produced the result
   (accepted-parallel vs detected-conflict-and-replayed) via the
   per-launch [launch_stats.pool.outcome], so a regression that silently
   forces everything through replay still fails. *)

open Minic.Ast

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* The process defaults on [domains] domains. *)
let at domains = { (Gpusim.Config.default ()) with domains }

let device config =
  Gpusim.Device.create ~config Gpusim.Device.titan
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

let launch_at ~domains ?(dialect = Minic.Parser.OpenCL) ~src ~kernel ~gws ~lws
    ~args () =
  let prog = Minic.Parser.program ~dialect src in
  let dev = device (at domains) in
  let host = Vm.Memory.create "host" in
  let k = Option.get (find_function prog kernel) in
  let stats =
    Gpusim.Exec.launch ~dev ~modul:(Gpusim.Exec.load prog)
      ~globals:(Hashtbl.create 4) ~host_arena:host ~kernel:k
      ~cfg:{ global_size = gws; local_size = lws; dyn_shared = 0 }
      ~args:(args dev) ()
  in
  (dev, stats)

let outcome_name = function
  | Gpusim.Exec.Seq -> "seq"
  | Gpusim.Exec.Parallel n -> Printf.sprintf "parallel-%d" n
  | Gpusim.Exec.Replayed r -> "replayed: " ^ r

let expect_parallel (stats : Gpusim.Exec.launch_stats) =
  match stats.Gpusim.Exec.pool.Gpusim.Exec.outcome with
  | Gpusim.Exec.Parallel _ -> ()
  | o -> Alcotest.fail ("expected the accepted-parallel path, got " ^ outcome_name o)

let expect_replayed (stats : Gpusim.Exec.launch_stats) =
  match stats.Gpusim.Exec.pool.Gpusim.Exec.outcome with
  | Gpusim.Exec.Replayed _ -> ()
  | o -> Alcotest.fail ("expected conflict-and-replay, got " ^ outcome_name o)

(* --- qcheck: generated kernels across domain counts -------------------- *)

(* Reuse the fuzzer's launch plans: a generated case is executed under
   domain counts {1, 2, 4, 8} and every run must reproduce the
   sequential buffers and counters exactly — or fail with the same
   exception (replay re-raises deterministically). *)
let run_case_at backend case plan n =
  match Fuzz.Pyramid.observe { (at n) with backend } case plan with
  | r -> Ok r
  | exception e -> Error (Printexc.to_string e)

let prop_domain_counts =
  QCheck.Test.make ~count:30
    ~name:"generated kernels agree across domain counts {1,2,4,8}"
    QCheck.(int_range 0 100_000)
    (fun seed ->
       let case = Fuzz.Gen.generate (Fuzz.Rng.create seed) in
       let plan = Fuzz.Pyramid.plan_a case case.Fuzz.Gen.c_prog in
       let reference = run_case_at Gpusim.Exec.Compiled case plan 1 in
       List.for_all
         (fun n ->
            run_case_at Gpusim.Exec.Compiled case plan n = reference)
         [ 2; 4; 8 ])

let prop_domain_counts_interp =
  QCheck.Test.make ~count:10
    ~name:"interpreter backend agrees across domain counts too"
    QCheck.(int_range 0 100_000)
    (fun seed ->
       let case = Fuzz.Gen.generate (Fuzz.Rng.create seed) in
       let plan = Fuzz.Pyramid.plan_a case case.Fuzz.Gen.c_prog in
       run_case_at Gpusim.Exec.Interp case plan 4
       = run_case_at Gpusim.Exec.Interp case plan 1)

(* --- directed regressions ---------------------------------------------- *)

let directed_tests =
  [ Alcotest.test_case "global-atomic contention stays parallel" `Quick
      (fun () ->
         (* every block hammers one counter cell; add commutes and no
            result is consumed, so the optimistic path must be accepted *)
         let src = {|
__kernel void count(__global int* c, __global int* out) {
  atomic_add(c, 2);
  out[get_global_id(0)] = get_local_id(0);
}
|}
         in
         let cell = ref 0 in
         let dev, stats =
           launch_at ~domains:4 ~src ~kernel:"count" ~gws:[| 64; 1; 1 |]
             ~lws:[| 8; 1; 1 |]
             ~args:(fun dev ->
                 let c = gbuf dev 4 and o = gbuf dev (64 * 4) in
                 cell := c;
                 [ iptr c; iptr o ])
             ()
         in
         expect_parallel stats;
         check_int "64 adds of 2" 128 (read_ints dev !cell 1).(0));
    Alcotest.test_case "used atomic result forces replay, value exact" `Quick
      (fun () ->
         (* consuming the returned ticket makes the interleaving
            observable: must replay and reproduce sequential tickets *)
         let src = {|
__kernel void ticket(__global int* c, __global int* out) {
  out[get_global_id(0)] = atomic_add(c, 1);
}
|}
         in
         let out = ref 0 in
         let dev, stats =
           launch_at ~domains:4 ~src ~kernel:"ticket" ~gws:[| 32; 1; 1 |]
             ~lws:[| 4; 1; 1 |]
             ~args:(fun dev ->
                 let c = gbuf dev 4 and o = gbuf dev (32 * 4) in
                 out := o;
                 [ iptr c; iptr o ])
             ()
         in
         expect_replayed stats;
         (* sequential block order: item i draws ticket i *)
         Alcotest.(check (array int)) "sequential tickets"
           (Array.init 32 (fun i -> i))
           (read_ints dev !out 32));
    Alcotest.test_case "CAS contention forces replay" `Quick (fun () ->
        let src = {|
__kernel void grab(__global int* c) {
  atomic_cmpxchg(c, 0, (int)get_group_id(0) + 1);
}
|}
        in
        let cell = ref 0 in
        let dev, stats =
          launch_at ~domains:4 ~src ~kernel:"grab" ~gws:[| 16; 1; 1 |]
            ~lws:[| 2; 1; 1 |]
            ~args:(fun dev ->
                let c = gbuf dev 4 in
                cell := c;
                [ iptr c ])
            ()
        in
        expect_replayed stats;
        (* sequential winner is block 0's first item *)
        check_int "first block wins" 1 (read_ints dev !cell 1).(0));
    Alcotest.test_case "cross-block overlapping writes replay sequentially"
      `Quick (fun () ->
          let src = {|
__kernel void clobber(__global int* c) {
  c[0] = (int)get_group_id(0);
}
|}
          in
          let cell = ref 0 in
          let dev, stats =
            launch_at ~domains:4 ~src ~kernel:"clobber" ~gws:[| 32; 1; 1 |]
              ~lws:[| 4; 1; 1 |]
              ~args:(fun dev ->
                  let c = gbuf dev 4 in
                  cell := c;
                  [ iptr c ])
              ()
          in
          expect_replayed stats;
          (* sequentially the last block writes last *)
          check_int "last block wins" 7 (read_ints dev !cell 1).(0));
    Alcotest.test_case "barrier-heavy blocks run parallel and agree" `Quick
      (fun () ->
         let src = {|
__kernel void reduce(__global int* out, __local int* tmp) {
  int t = get_local_id(0);
  tmp[t] = t + (int)get_group_id(0);
  barrier(CLK_LOCAL_MEM_FENCE);
  for (int s = 4; s > 0; s /= 2) {
    if (t < s) tmp[t] = tmp[t] + tmp[t + s];
    barrier(CLK_LOCAL_MEM_FENCE);
  }
  if (t == 0) out[get_group_id(0)] = tmp[0];
}
|}
         in
         let run n =
           let out = ref 0 in
           let dev, stats =
             launch_at ~domains:n ~src ~kernel:"reduce" ~gws:[| 64; 1; 1 |]
               ~lws:[| 8; 1; 1 |]
               ~args:(fun dev ->
                   let o = gbuf dev (8 * 4) in
                   out := o;
                   [ iptr o; Gpusim.Exec.Arg_local (8 * 4) ])
               ()
           in
           (read_ints dev !out 8, stats.Gpusim.Exec.counters,
            stats.Gpusim.Exec.pool.Gpusim.Exec.outcome)
         in
         let seq_out, seq_ctr, _ = run 1 in
         let par_out, par_ctr, par_outcome = run 4 in
         (match par_outcome with
          | Gpusim.Exec.Parallel _ -> ()
          | o ->
            Alcotest.fail
              ("expected the accepted-parallel path, got " ^ outcome_name o));
         Alcotest.(check (array int)) "per-block sums" seq_out par_out;
         check_int "barrier rounds" seq_ctr.Gpusim.Counters.barriers
           par_ctr.Gpusim.Counters.barriers;
         check "full counters equal" true (seq_ctr = par_ctr));
    Alcotest.test_case "degenerate single-block launch takes the seq path"
      `Quick (fun () ->
          (* a zero/one-block geometry has nothing to parallelise; the
             engine must not spin up the pool for it *)
          let src = "__kernel void one(__global int* p) { p[get_global_id(0)] = 7; }" in
          let out = ref 0 in
          let dev, stats =
            launch_at ~domains:8 ~src ~kernel:"one" ~gws:[| 0; 0; 0 |]
              ~lws:[| 1; 1; 1 |]
              ~args:(fun dev ->
                  let o = gbuf dev 4 in
                  out := o;
                  [ iptr o ])
              ()
          in
          check "seq outcome" true
            (stats.Gpusim.Exec.pool.Gpusim.Exec.outcome = Gpusim.Exec.Seq);
          check_int "one block" 1 stats.Gpusim.Exec.n_blocks;
          check_int "wrote" 7 (read_ints dev !out 1).(0));
    Alcotest.test_case "replayed launches restore through one snapshot buffer"
      `Quick (fun () ->
          (* the rollback snapshot buffer is per arena and reused: three
             conflicting launches on one device, with an allocation
             after the first that grows the global arena (and so the
             buffer), must each roll back to the state just before
             themselves — the third reuses the grown buffer unchanged *)
          let src = {|
__kernel void clobber(__global int* c, __global int* out) {
  c[0] = (int)get_group_id(0);
  out[get_global_id(0)] = (int)get_global_id(0) + 1;
}
|}
          in
          let prog = Minic.Parser.program ~dialect:Minic.Parser.OpenCL src in
          let modul = Gpusim.Exec.load prog in
          let k = Option.get (find_function prog "clobber") in
          let run n =
            let dev = device (at n) in
            let host = Vm.Memory.create "host" in
            let launch items args =
              Gpusim.Exec.launch ~dev ~modul ~globals:(Hashtbl.create 4)
                ~host_arena:host ~kernel:k
                ~cfg:
                  { global_size = [| items; 1; 1 |]; local_size = [| 4; 1; 1 |];
                    dyn_shared = 0 }
                ~args ()
            in
            (* the used prefix, after checking everything above it is
               still zero *)
            let image () =
              let g = dev.Gpusim.Device.global in
              let hw = g.Vm.Memory.high_water in
              let above =
                Bytes.sub g.Vm.Memory.data hw (Bytes.length g.Vm.Memory.data - hw)
              in
              check "zero above the frontier" true
                (Bytes.for_all (fun ch -> ch = '\000') above);
              Bytes.sub_string g.Vm.Memory.data 0 hw
            in
            let c = gbuf dev 4 and o1 = gbuf dev (32 * 4) in
            let s1 = launch 32 [ iptr c; iptr o1 ] in
            let m1 = image () in
            let o2 = gbuf dev (16384 * 4) in
            let s2 = launch 64 [ iptr c; iptr o2 ] in
            let m2 = image () in
            let s3 = launch 16 [ iptr c; iptr o1 ] in
            let m3 = image () in
            ([ s1; s2; s3 ], [ m1; m2; m3 ])
          in
          let _, seq = run 1 in
          let stats, par = run 4 in
          List.iter expect_replayed stats;
          List.iteri
            (fun i (a, b) ->
               check (Printf.sprintf "global memory after launch %d" (i + 1))
                 true (a = b))
            (List.combine seq par));
    Alcotest.test_case "deterministic crash is identical across domains"
      `Quick (fun () ->
          let src = {|
__kernel void boom(__global int* p) {
  p[get_global_id(0)] = 1 / (p[get_global_id(0)] - p[get_global_id(0)]);
}
|}
          in
          let attempt n =
            match
              launch_at ~domains:n ~src ~kernel:"boom" ~gws:[| 16; 1; 1 |]
                ~lws:[| 4; 1; 1 |]
                ~args:(fun dev -> [ iptr (gbuf dev (16 * 4)) ])
                ()
            with
            | _ -> "no exception"
            | exception e -> Printexc.to_string e
          in
          Alcotest.(check string) "same exception" (attempt 1) (attempt 4)) ]

(* --- launch outcome table ----------------------------------------------- *)

(* Every path through a launch, pinned: {scalar, lockstep} x domains
   {1, 4} x four kernels of 8 four-item blocks.  Each row checks the
   final bytes of the one global buffer (the partial buffer, after a
   fault), then either the escaping exception or [pool.outcome] with its
   reason, the length of [worker_blocks] and the engine outcome.  The
   bytes are the sequential scalar run's in every row: a rolled-back
   attempt must leave nothing behind, not even before a fault. *)
let table_kernels =
  [ ("clean",
     "p[get_global_id(0)] = (int)get_global_id(0) * 3 + 1;",
     Array.init 32 (fun i -> (i * 3) + 1));
    (* every block writes cell 0: a cross-block conflict, but within a
       warp a lane-uniform store the lockstep engine accepts *)
    ("overlap", "p[0] = (int)get_group_id(0);",
     Array.init 32 (fun i -> if i = 0 then 7 else 0));
    (* the lanes of a warp write one cell with different values *)
    ("lane-hazard", "p[get_group_id(0)] = (int)get_local_id(0);",
     Array.init 32 (fun i -> if i < 8 then 3 else 0));
    (* item 13 faults after its own store: items 0-13 have written *)
    ("fault",
     "p[get_global_id(0)] = (int)get_global_id(0) + 1;\n\
     \  if (get_global_id(0) == 13) p[get_global_id(0) + 100000] = 2;",
     Array.init 32 (fun i -> if i <= 13 then i + 1 else 0)) ]

let engine_name = function
  | Gpusim.Exec.Engine_scalar -> "scalar"
  | Gpusim.Exec.Engine_lockstep -> "lockstep"
  | Gpusim.Exec.Engine_fallback r -> "fallback: " ^ r
  | Gpusim.Exec.Engine_bailed r -> "bailed: " ^ r

let table_row engine domains (_, body, _) =
  let src = "__kernel void k(__global int* p) {\n  " ^ body ^ "\n}\n" in
  let prog = Minic.Parser.program ~dialect:Minic.Parser.OpenCL src in
  let dev = device { (at domains) with engine } in
  let p = gbuf dev (32 * 4) in
  let seen =
    match
      Gpusim.Exec.launch ~dev ~modul:(Gpusim.Exec.load prog)
        ~globals:(Hashtbl.create 4) ~host_arena:(Vm.Memory.create "host")
        ~kernel:(Option.get (find_function prog "k"))
        ~cfg:{ global_size = [| 32; 1; 1 |]; local_size = [| 4; 1; 1 |];
               dyn_shared = 0 }
        ~args:[ iptr p ] ()
    with
    | s ->
      Printf.sprintf "%s | %d workers | %s"
        (outcome_name s.Gpusim.Exec.pool.Gpusim.Exec.outcome)
        (Array.length s.Gpusim.Exec.pool.Gpusim.Exec.worker_blocks)
        (engine_name s.Gpusim.Exec.engine)
    | exception e -> "raised " ^ Printexc.to_string e
  in
  (read_ints dev p 32, seen)

let lane_bail = "cross-lane memory dependence within a warp"
let block_conflict = "write/write overlap across blocks"
let fault = {|raised Vm.Memory.Fault("global", 400308)|}

let outcome_table =
  let open Gpusim.Config in
  [ (Scalar, 1, "clean", "seq | 1 workers | scalar");
    (Scalar, 4, "clean", "parallel-4 | 4 workers | scalar");
    (Lockstep, 1, "clean", "seq | 1 workers | lockstep");
    (Lockstep, 4, "clean", "parallel-4 | 4 workers | lockstep");
    (Scalar, 1, "overlap", "seq | 1 workers | scalar");
    (Scalar, 4, "overlap", "replayed: " ^ block_conflict ^ " | 4 workers | scalar");
    (Lockstep, 1, "overlap", "seq | 1 workers | lockstep");
    (Lockstep, 4, "overlap",
     "replayed: " ^ block_conflict ^ " | 4 workers | bailed: " ^ block_conflict);
    (Scalar, 1, "lane-hazard", "seq | 1 workers | scalar");
    (Scalar, 4, "lane-hazard", "parallel-4 | 4 workers | scalar");
    (Lockstep, 1, "lane-hazard", "seq | 1 workers | bailed: " ^ lane_bail);
    (Lockstep, 4, "lane-hazard",
     "replayed: " ^ lane_bail ^ " | 4 workers | bailed: " ^ lane_bail);
    (Scalar, 1, "fault", fault);
    (Scalar, 4, "fault", fault);
    (Lockstep, 1, "fault", fault);
    (Lockstep, 4, "fault", fault) ]

let outcome_tests =
  [ Alcotest.test_case "launch outcome table: engines x domains x kernels"
      `Quick (fun () ->
          List.iter
            (fun (engine, domains, kernel, want) ->
               let ((_, _, bytes) as k) =
                 List.find (fun (n, _, _) -> n = kernel) table_kernels
               in
               let label =
                 Printf.sprintf "%s, %s, %d domains" kernel
                   (match engine with
                    | Gpusim.Config.Scalar -> "scalar"
                    | Gpusim.Config.Lockstep -> "lockstep")
                   domains
               in
               let got_bytes, got = table_row engine domains k in
               Alcotest.(check (array int)) (label ^ ": global bytes") bytes
                 got_bytes;
               Alcotest.(check string) (label ^ ": outcome") want got)
            outcome_table) ]

(* --- domain-safety of shared infrastructure ----------------------------- *)

let safety_tests =
  [ Alcotest.test_case
      "concurrent launches share the loaded module's compiled kernels" `Quick
      (fun () ->
         (* four domains launch one loaded module simultaneously,
            exercising its lazy compilation lock; each must see correct
            results, and the module must compile once.  At 2 domains per
            launch the launches also share the process-wide worker pool,
            whose jobs must not overlap. *)
         let src = {|
__kernel void fill(__global int* p) {
  p[get_global_id(0)] = (int)get_global_id(0) * 3;
}
|}
         in
         let prog = Minic.Parser.program ~dialect:Minic.Parser.OpenCL src in
         let k = Option.get (find_function prog "fill") in
         List.iter (fun n ->
         let modul = Gpusim.Exec.load prog in
         let run () =
           let dev = device { (at n) with backend = Compiled } in
           let host = Vm.Memory.create "host" in
           let b = gbuf dev (32 * 4) in
           ignore
             (Gpusim.Exec.launch ~dev ~modul ~globals:(Hashtbl.create 4)
                ~host_arena:host ~kernel:k
                ~cfg:
                  { global_size = [| 32; 1; 1 |]; local_size = [| 8; 1; 1 |];
                    dyn_shared = 0 }
                ~args:[ iptr b ] ());
           read_ints dev b 32
         in
         let expected = Array.init 32 (fun i -> i * 3) in
         let spawned = Array.init 4 (fun _ -> Domain.spawn run) in
         Array.iteri
           (fun i d ->
              Alcotest.(check (array int))
                (Printf.sprintf "domain %d at %d domains" i n) expected
                (Domain.join d))
           spawned;
         check_int (Printf.sprintf "compiled once at %d domains" n) 1
           (Gpusim.Exec.compiled_forms modul)) [ 1; 2 ]);
    Alcotest.test_case "pool jobs from two domains do not overlap" `Quick
      (fun () ->
         (* each submitter checks that every worker of its own job ran
            and finished before [run] returned *)
         let pool = Gpusim.Pool.create () in
         let submitter () =
           let ok = ref true in
           for _ = 1 to 300 do
             let finished = Array.make 2 false in
             Gpusim.Pool.run pool ~workers:2 (fun i ->
                 for _ = 1 to 200 do
                   Domain.cpu_relax ()
                 done;
                 finished.(i) <- true);
             if not (finished.(0) && finished.(1)) then ok := false
           done;
           !ok
         in
         let a = Domain.spawn submitter and b = Domain.spawn submitter in
         check "first submitter's jobs complete" true (Domain.join a);
         check "second submitter's jobs complete" true (Domain.join b));
    Alcotest.test_case "fuzz rng streams are per-instance" `Quick (fun () ->
        let draw () =
          let r = Fuzz.Rng.create 99 in
          Array.init 512 (fun _ -> Fuzz.Rng.int r 1_000_000)
        in
        let a = Domain.spawn draw and b = Domain.spawn draw in
        let ra = Domain.join a and rb = Domain.join b in
        Alcotest.(check (array int)) "identical streams" ra rb;
        Alcotest.(check (array int)) "match the host's" (draw ()) ra) ]

(* --- traces and goldens under parallel execution ------------------------ *)

let trace_tests =
  [ Alcotest.test_case "prof golden files unchanged at 4 domains" `Quick
      (fun () ->
         let runs =
           Test_golden.profile_cuda_src ~config:(at 4) "deviceQuery"
             (Test_golden.devicequery_src ())
         in
         Test_golden.check_golden "prof_devicequery.txt"
           (Test_golden.summary_text runs));
    Alcotest.test_case "chrome trace golden unchanged at 4 domains" `Quick
      (fun () ->
         let runs =
           Test_golden.profile_cuda_src ~config:(at 4) "deviceQuery"
             (Test_golden.devicequery_src ())
         in
         let pairs =
           List.map
             (fun tr -> (tr.Test_golden.tr_label, tr.Test_golden.tr_spans))
             runs
         in
         let json = Trace.Chrome.to_json pairs in
         Test_golden.check_golden "chrome_devicequery.json"
           (Test_golden.normalize_chrome (Trace.Json.to_string json))) ]

let suites =
  [ ("parallel.directed", directed_tests);
    ( "parallel.qcheck",
      [ QCheck_alcotest.to_alcotest prop_domain_counts;
        QCheck_alcotest.to_alcotest prop_domain_counts_interp ] );
    ("parallel.outcomes", outcome_tests);
    ("parallel.safety", safety_tests);
    ("parallel.trace", trace_tests) ]
