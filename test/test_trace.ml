(* lib/trace: sink semantics (nesting, disabled fast path, eviction,
   monotone rebasing), a qcheck property over the Chrome exporter, and
   regression tests pinning the paper's three headline mechanisms to the
   profiler's own records. *)

open Bridge.Framework

let with_metrics f =
  Trace.Sink.enable ~spans:false ();
  let r = f () in
  let ms = Trace.Sink.metrics () in
  Trace.Sink.disable ();
  (r, ms)

let with_spans f =
  Trace.Sink.enable ();
  let r = f () in
  let es = Trace.Sink.events () in
  Trace.Sink.disable ();
  (r, es)

let sum f ms = List.fold_left (fun a m -> a + f m) 0 ms

let conflicts ms =
  sum (fun m -> m.Trace.Metrics.m_smem_bank_conflict_extra) ms

let smem_txns ms = sum (fun m -> m.Trace.Metrics.m_smem_transactions) ms

(* --- sink semantics ----------------------------------------------------- *)

let sink_tests =
  [ Alcotest.test_case "disabled: probes record nothing and ids are 0" `Quick
      (fun () ->
         Trace.Sink.enable ();
         Trace.Sink.disable ();
         let id = Trace.Sink.span_begin ~name:"x" ~sim_ns:0.0 () in
         Alcotest.(check int) "span_begin returns 0" 0 id;
         Trace.Sink.span_end id ~sim_ns:1.0;
         let hit = ref false in
         let v =
           Trace.Sink.with_span ~name:"y" (fun () -> hit := true; 42)
         in
         Alcotest.(check int) "with_span passes the value through" 42 v;
         Alcotest.(check bool) "with_span still runs the body" true !hit;
         Alcotest.(check int) "no spans recorded" 0
           (List.length (Trace.Sink.events ()));
         Alcotest.(check int) "no metrics recorded" 0
           (List.length (Trace.Sink.metrics ())));
    Alcotest.test_case "nesting: parent, depth, order, duration" `Quick
      (fun () ->
         Trace.Sink.enable ();
         let a = Trace.Sink.span_begin ~name:"a" ~sim_ns:0.0 () in
         let b =
           Trace.Sink.span_begin ~cat:Trace.Event.Wrapper ~name:"b"
             ~sim_ns:10.0 ()
         in
         let c = Trace.Sink.span_begin ~name:"c" ~sim_ns:20.0 () in
         Trace.Sink.span_end c ~sim_ns:30.0;
         Trace.Sink.span_end b ~sim_ns:40.0;
         Trace.Sink.span_end a ~sim_ns:50.0;
         let es = Trace.Sink.events () in
         Trace.Sink.disable ();
         Alcotest.(check (list string)) "begin order" [ "a"; "b"; "c" ]
           (List.map (fun sp -> sp.Trace.Event.sp_name) es);
         let find n = List.find (fun sp -> sp.Trace.Event.sp_name = n) es in
         let sa = find "a" and sb = find "b" and sc = find "c" in
         Alcotest.(check int) "a is a root" 0 sa.Trace.Event.sp_parent;
         Alcotest.(check int) "b under a" sa.Trace.Event.sp_id
           sb.Trace.Event.sp_parent;
         Alcotest.(check int) "c under b" sb.Trace.Event.sp_id
           sc.Trace.Event.sp_parent;
         Alcotest.(check (list int)) "depths" [ 0; 1; 2 ]
           (List.map (fun sp -> sp.Trace.Event.sp_depth) es);
         Alcotest.(check (float 1e-9)) "c duration" 10.0
           (Trace.Event.duration_ns sc);
         Alcotest.(check (float 1e-9)) "a spans the whole tree" 50.0
           (Trace.Event.duration_ns sa));
    Alcotest.test_case "span_end closes children an unwind skipped" `Quick
      (fun () ->
         Trace.Sink.enable ();
         let a = Trace.Sink.span_begin ~name:"outer" ~sim_ns:0.0 () in
         let _b = Trace.Sink.span_begin ~name:"inner" ~sim_ns:5.0 () in
         Trace.Sink.span_end a ~sim_ns:9.0;
         let es = Trace.Sink.events () in
         Trace.Sink.disable ();
         Alcotest.(check int) "both spans closed" 2 (List.length es);
         let inner =
           List.find (fun sp -> sp.Trace.Event.sp_name = "inner") es
         in
         Alcotest.(check (float 1e-9)) "inner closed at outer's end" 9.0
           inner.Trace.Event.sp_t1);
    Alcotest.test_case "clock resets rebase onto a monotone timeline" `Quick
      (fun () ->
         Trace.Sink.enable ();
         let a = Trace.Sink.span_begin ~name:"run1" ~sim_ns:100.0 () in
         Trace.Sink.span_end a ~sim_ns:200.0;
         (* a fresh device restarts its simulated clock at zero *)
         let b = Trace.Sink.span_begin ~name:"run2" ~sim_ns:0.0 () in
         Trace.Sink.span_end b ~sim_ns:50.0;
         let es = Trace.Sink.events () in
         Trace.Sink.disable ();
         let find n = List.find (fun sp -> sp.Trace.Event.sp_name = n) es in
         Alcotest.(check bool) "run2 starts after run1 ends" true
           ((find "run2").Trace.Event.sp_t0
            >= (find "run1").Trace.Event.sp_t1);
         Alcotest.(check (float 1e-9)) "run2 keeps its duration" 50.0
           (Trace.Event.duration_ns (find "run2")));
    Alcotest.test_case "ring eviction drops oldest and counts them" `Quick
      (fun () ->
         Trace.Sink.enable ~capacity:16 ();
         for i = 1 to 40 do
           let id =
             Trace.Sink.span_begin
               ~name:(Printf.sprintf "s%d" i)
               ~sim_ns:(float_of_int i) ()
           in
           Trace.Sink.span_end id ~sim_ns:(float_of_int i +. 0.5)
         done;
         let es = Trace.Sink.events () in
         Alcotest.(check int) "ring holds capacity" 16 (List.length es);
         Alcotest.(check int) "evictions counted" 24
           (Trace.Sink.dropped_spans ());
         Alcotest.(check string) "newest survives" "s40"
           (List.nth es 15).Trace.Event.sp_name;
         Trace.Sink.disable ());
    Alcotest.test_case "wall time: two busy domains do not stretch a span"
      `Quick (fun () ->
          (* Process CPU time would count both domains' work, about twice
             the interval; a wall clock cannot exceed it. *)
          let now () = Int64.to_float (Monotonic_clock.now ()) in
          let burn () =
            let t0 = now () and x = ref 0 in
            while now () -. t0 < 50e6 do incr x done;
            !x
          in
          Trace.Sink.enable ();
          let before = now () in
          Trace.Sink.with_span ~name:"burn" (fun () ->
              let other = Domain.spawn burn in
              ignore (burn ());
              ignore (Domain.join other));
          let after = now () in
          let sp = List.hd (Trace.Sink.events ()) in
          Trace.Sink.disable ();
          let span = sp.Trace.Event.sp_wall1 -. sp.Trace.Event.sp_wall0 in
          if span > after -. before then
            Alcotest.failf "span wall %.0f ns exceeds the enclosing %.0f ns"
              span (after -. before)) ]

(* --- qcheck: the Chrome export of any span history is well-formed ------- *)

type cmd = Begin | End | Advance of int | Reset

let arb_cmds =
  let gen_cmd =
    QCheck.Gen.(
      frequency
        [ (4, return Begin); (4, return End);
          (3, map (fun d -> Advance d) (int_range 0 1000));
          (1, return Reset) ])
  in
  QCheck.make
    ~print:(fun l ->
        String.concat ""
          (List.map
             (function
               | Begin -> "B" | End -> "E"
               | Advance d -> Printf.sprintf "+%d " d | Reset -> "R")
             l))
    QCheck.Gen.(list_size (int_range 0 80) gen_cmd)

let prop_chrome_valid =
  QCheck.Test.make ~count:200
    ~name:"chrome export: well-formed JSON, matched B/E, monotone ts"
    arb_cmds
    (fun cmds ->
       (* small capacity so eviction orphans exercise root promotion *)
       Trace.Sink.enable ~capacity:32 ();
       let clock = ref 0.0 in
       let opened = ref [] in
       let n = ref 0 in
       List.iter
         (function
           | Begin ->
             incr n;
             let id =
               Trace.Sink.span_begin
                 ~name:(Printf.sprintf "s%d" !n)
                 ~args:[ ("i", string_of_int !n) ]
                 ~sim_ns:!clock ()
             in
             opened := id :: !opened
           | End ->
             (match !opened with
              | [] -> ()
              | id :: rest ->
                Trace.Sink.span_end id ~sim_ns:!clock;
                opened := rest)
           | Advance d -> clock := !clock +. float_of_int d
           | Reset -> clock := 0.0)
         cmds;
       List.iter (fun id -> Trace.Sink.span_end id ~sim_ns:!clock) !opened;
       let spans = Trace.Sink.events () in
       Trace.Sink.disable ();
       let doc = Trace.Chrome.to_string [ ("run A", spans); ("run B", spans) ] in
       match Trace.Chrome.validate_string doc with
       | Ok () -> true
       | Error e -> QCheck.Test.fail_reportf "invalid trace: %s" e)

(* --- regressions: the paper's three mechanisms, from profiler records --- *)

let translate_ok ?tex1d_texels src =
  match translate_cuda ?tex1d_texels src with
  | Translated r -> r
  | Failed fs ->
    Alcotest.failf "unexpected translation failure: %s"
      (String.concat "; "
         (List.map (fun f -> f.Xlat.Feature.f_construct) fs))

(* plain 8-byte doubles through shared memory: one word per bank in the
   64-bit mode, a 2-way split in the 32-bit mode *)
let smem_double_cuda = {|
__global__ void copy(double* g) {
  extern __shared__ double l[];
  int t = threadIdx.x;
  l[t] = g[t];
  __syncthreads();
  g[t] = l[t];
}
int main(void) {
  int n = 32;
  double* h = (double*)malloc(n * sizeof(double));
  for (int i = 0; i < n; i++) h[i] = (double)i;
  double* d;
  cudaMalloc((void**)&d, n * sizeof(double));
  cudaMemcpy(d, h, n * sizeof(double), cudaMemcpyHostToDevice);
  copy<<<1, 32, 32 * sizeof(double)>>>(d);
  cudaMemcpy(h, d, n * sizeof(double), cudaMemcpyDeviceToHost);
  double sum = 0.0;
  for (int i = 0; i < n; i++) sum += h[i];
  printf("sum %.1f\n", sum);
  return 0;
}
|}

let regression_tests =
  [ Alcotest.test_case "double smem: conflicts only under 32-bit addressing"
      `Quick
      (fun () ->
         let _, m64 = with_metrics (fun () -> run_cuda_native smem_double_cuda) in
         let res = translate_ok smem_double_cuda in
         let _, m32 = with_metrics (fun () -> run_translated_cuda res) in
         List.iter
           (fun m ->
              Alcotest.(check string) "native mode" "64-bit"
                m.Trace.Metrics.m_addressing)
           m64;
         List.iter
           (fun m ->
              Alcotest.(check string) "translated mode" "32-bit"
                m.Trace.Metrics.m_addressing)
           m32;
         Alcotest.(check int) "64-bit mode is conflict free" 0 (conflicts m64);
         Alcotest.(check bool) "32-bit mode conflicts" true (conflicts m32 > 0);
         Alcotest.(check int) "2-way split doubles the transactions"
           (2 * smem_txns m64) (smem_txns m32));
    Alcotest.test_case "FT: 32-bit addressing doubles smem transactions"
      `Quick
      (fun () ->
         let ft =
           List.find (fun a -> a.oa_name = "FT") Suite.Registry.npb_opencl
         in
         let _, m32 = with_metrics (fun () -> run_app_native ft ()) in
         let _, m64 = with_metrics (fun () -> run_app_on_cuda ft ()) in
         Alcotest.(check bool) "launches recorded" true (m32 <> []);
         List.iter
           (fun m ->
              Alcotest.(check string) "native OpenCL mode" "32-bit"
                m.Trace.Metrics.m_addressing)
           m32;
         List.iter
           (fun m ->
              Alcotest.(check string) "wrapped CUDA mode" "64-bit"
                m.Trace.Metrics.m_addressing)
           m64;
         (* FT moves double2 vectors: the 32-bit mode needs exactly twice
            the shared-memory transactions and strictly more conflict
            extras than the 64-bit mode (which keeps only the intrinsic
            two-word split of the 16-byte accesses) *)
         Alcotest.(check int) "transactions exactly doubled"
           (2 * smem_txns m64) (smem_txns m32);
         Alcotest.(check bool) "conflict extras present" true
           (conflicts m32 > 0);
         Alcotest.(check bool) "32-bit strictly worse" true
           (conflicts m32 > conflicts m64));
    Alcotest.test_case "cfd: occupancy 0.375 vs 0.469 for compute_flux"
      `Quick
      (fun () ->
         let cfd =
           List.find
             (fun (c : Suite.Registry.cuda_app) -> c.cu_name = "cfd")
             Suite.Registry.rodinia_cuda
         in
         let res = translate_ok ~tex1d_texels:cfd.cu_tex1d_texels cfd.cu_src in
         let _, m_cuda = with_metrics (fun () -> run_cuda_native cfd.cu_src) in
         let _, m_ocl = with_metrics (fun () -> run_translated_cuda res) in
         let flux ms =
           List.find
             (fun m -> m.Trace.Metrics.m_kernel = "compute_flux")
             ms
         in
         Alcotest.(check (float 0.001)) "CUDA occupancy" 0.375
           (flux m_cuda).Trace.Metrics.m_occupancy;
         Alcotest.(check string) "register limited" "registers"
           (flux m_cuda).Trace.Metrics.m_limited_by;
         Alcotest.(check (float 0.001)) "OpenCL occupancy" 0.469
           (flux m_ocl).Trace.Metrics.m_occupancy);
    Alcotest.test_case "deviceQuery: attribute wrappers amplify >= 5x" `Quick
      (fun () ->
         let dq =
           List.find
             (fun (c : Suite.Registry.cuda_app) -> c.cu_name = "deviceQuery")
             Suite.Registry.all_cuda
         in
         let res = translate_ok ~tex1d_texels:dq.cu_tex1d_texels dq.cu_src in
         let _, spans = with_spans (fun () -> run_translated_cuda res) in
         let amps = Trace.Summary.amplifications spans in
         let a =
           List.find
             (fun a -> a.Trace.Summary.a_wrapper = "cudaGetDeviceProperties")
             amps
         in
         Alcotest.(check bool) "wrapper called" true
           (a.Trace.Summary.a_calls > 0);
         Alcotest.(check bool) "each call fans out into >= 5 API calls" true
           (a.Trace.Summary.a_api_calls >= 5 * a.Trace.Summary.a_calls);
         Alcotest.(check bool) "fan-out lands on clGetDeviceInfo" true
           (List.mem_assoc "clGetDeviceInfo" a.Trace.Summary.a_breakdown)) ]

let suites =
  [ ("trace.sink", sink_tests);
    ("trace.chrome", [ QCheck_alcotest.to_alcotest prop_chrome_valid ]);
    ("trace.regressions", regression_tests) ]
