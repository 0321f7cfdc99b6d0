(* Attribution tests (oclcu prof --attribute / --diff).

   The exact-sum property is the heart of the attribution design: every
   counted event is charged to exactly one site, so summing any per-site
   field over the whole table must reproduce the corresponding aggregate
   Counters.t field byte-exactly — on random fuzz kernels, at 1 and 4
   domains, under both VM backends.  The directed test plants the
   paper's §6.2 mechanism (a double-typed local-memory access that
   bank-conflicts only under 32-bit addressing) and checks the
   translation diff blames exactly that statement.  Attribution is a
   property of what a device builds, not of the process: a device
   configured to attribute and a plain one run side by side, back to
   back and from two domains at once, and only the first one's
   launches carry a per-site table; a CUDA program's translation
   carries its sites to whatever device runs it. *)

let check = Alcotest.check Alcotest.bool
let check_int = Alcotest.check Alcotest.int

(* The test's default configuration, building with source sites. *)
let attributing = { (Gpusim.Config.default ()) with attribute = true }

(* --- exact-sum property ------------------------------------------------ *)

let site_sums (a : Gpusim.Attr.t) =
  List.fold_left
    (fun (ops, gt, gb, st, cfl, barr, div) (_, (s : Gpusim.Attr.site)) ->
       ( ops + s.Gpusim.Attr.ops,
         gt + s.Gpusim.Attr.gmem_transactions,
         gb + s.Gpusim.Attr.gmem_bytes,
         st + s.Gpusim.Attr.smem_transactions,
         cfl + s.Gpusim.Attr.smem_conflict_extra,
         barr + s.Gpusim.Attr.barriers,
         div + s.Gpusim.Attr.div_rows ))
    (0, 0, 0, 0, 0, 0, 0) (Gpusim.Attr.to_list a)

let check_exact_sum label (stats : Gpusim.Exec.launch_stats) =
  let c = stats.Gpusim.Exec.counters in
  let a =
    match stats.Gpusim.Exec.attr with
    | Some a -> a
    | None -> Alcotest.failf "%s: no attribution table" label
  in
  let ops, gt, gb, st, cfl, barr, div = site_sums a in
  let field name got want =
    if got <> want then
      Alcotest.failf "%s: per-site %s sums to %d, aggregate is %d" label name
        got want
  in
  field "ops" ops (Gpusim.Counters.total_ops c);
  field "gmem_transactions" gt c.Gpusim.Counters.gmem_transactions;
  field "gmem_bytes" gb c.Gpusim.Counters.gmem_bytes;
  field "smem_transactions" st c.Gpusim.Counters.smem_transactions;
  field "smem_conflict_extra" cfl c.Gpusim.Counters.smem_bank_conflict_extra;
  field "barriers" barr c.Gpusim.Counters.barriers;
  field "warp_div_rows" div c.Gpusim.Counters.warp_div_rows

let prop_site_sums =
  QCheck.Test.make ~count:30
    ~name:"per-site counters sum byte-exactly to the aggregate"
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
       let case = Fuzz.Driver.case_of ~seed 0 in
       let prog = Minic.Site.annotate case.Fuzz.Gen.c_prog in
       let plan = Fuzz.Pyramid.plan_a case prog in
       List.iter
         (fun (backend, domains, label) ->
            let config = { (Gpusim.Config.default ()) with backend; domains } in
            match Fuzz.Pyramid.launch config case plan with
            | stats, _ -> check_exact_sum label stats
            | exception _ ->
              (* some fuzz kernels legitimately trap (e.g. division by a
                 generated zero); the property only constrains runs that
                 complete *)
              ())
         [ (Gpusim.Exec.Compiled, 1, "compiled/1");
           (Gpusim.Exec.Compiled, 4, "compiled/4");
           (Gpusim.Exec.Interp, 1, "interp/1");
           (Gpusim.Exec.Interp, 4, "interp/4") ];
       true)

(* --- directed translation diff ----------------------------------------- *)

(* One double-typed local store per work-item: stride-1 across the warp,
   conflict-free under 64-bit addressing, a two-way bank conflict per
   access under the 32-bit mode NVIDIA's OpenCL framework selects. *)
let planted_src = {|
__kernel void planted(__global double* out, __local double* tile, int n) {
  int t = get_local_id(0);
  tile[t] = (double)t * 1.5;
  barrier(CLK_LOCAL_MEM_FENCE);
  double v = tile[(t + 1) % 64];
  out[get_global_id(0)] = v + (double)n;
}
|}

let planted_app =
  Bridge.Framework.ocl_app "attr-planted" (fun ctx ->
      let o = Suite.Dsl.ops ctx in
      o.build planted_src;
      let b = o.dbuf (Array.make 128 0.0) in
      let k = o.kern "planted" in
      o.set_args k [ B b; L (64 * 8); I 7 ];
      o.run1 k ~g:128 ~l:64;
      o.finish ();
      Suite.Dsl.checksum_floats "planted" (o.read_doubles b 128))

let collect_metrics run =
  Trace.Sink.clear ();
  let r = run () in
  let ms = Trace.Sink.metrics () in
  Trace.Sink.clear ();
  (r, ms)

let directed_diff () =
  let was_enabled = Trace.Sink.is_enabled () in
  if not was_enabled then Trace.Sink.enable ();
  Fun.protect
    ~finally:(fun () ->
      Trace.Sink.clear ();
      if not was_enabled then Trace.Sink.disable ())
  @@ fun () ->
  let dev target = Bridge.Framework.device_of ~config:attributing target in
  let out_native, native =
    collect_metrics (fun () ->
        Bridge.Framework.run_app_native planted_app ~dev:(dev Titan_opencl) ())
  in
  let out_wrapped, translated =
    collect_metrics (fun () ->
        Bridge.Framework.run_app_on_cuda planted_app ~dev:(dev Titan_cuda) ())
  in
  check "same output" true
    (out_native.Bridge.Framework.r_output
     = out_wrapped.Bridge.Framework.r_output);
  let n_sites = Trace.Summary.collect_sites native in
  let t_sites = Trace.Summary.collect_sites translated in
  check "native run attributed" true (n_sites <> []);
  check "translated run attributed" true (t_sites <> []);
  (* the planted store is the only conflicting *store* site; find it by
     snippet so the assertion survives renumbering *)
  let store_site =
    match
      List.find_opt
        (fun (s : Trace.Metrics.site_counters) ->
           s.Trace.Metrics.s_snippet = "tile[t] = (double)t * 1.5;")
        n_sites
    with
    | Some s -> s
    | None -> Alcotest.fail "planted store site missing from native table"
  in
  check "store conflicts under 32-bit addressing" true
    (store_site.Trace.Metrics.s_smem_conflict_extra > 0);
  let translated_store =
    List.find_opt
      (fun (s : Trace.Metrics.site_counters) ->
         s.Trace.Metrics.s_site = store_site.Trace.Metrics.s_site)
      t_sites
  in
  (match translated_store with
   | None -> Alcotest.fail "store site missing from translated table"
   | Some t ->
     check_int "conflict-free under 64-bit addressing" 0
       t.Trace.Metrics.s_smem_conflict_extra;
     check_int "smem transactions halve"
       store_site.Trace.Metrics.s_smem_transactions
       (2 * t.Trace.Metrics.s_smem_transactions);
     (* every site id the two runs share must name the same statement:
        the alignment `--diff` depends on *)
     check "aligned snippets" true
       (t.Trace.Metrics.s_snippet = store_site.Trace.Metrics.s_snippet));
  (* and the rendered diff blames exactly that site *)
  let diff = Trace.Summary.diff_to_string ~native ~translated in
  let blame =
    Printf.sprintf "%4d planted" store_site.Trace.Metrics.s_site
  in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  check "diff lists the planted site" true (contains diff blame);
  let expect_cell =
    Printf.sprintf "%d->0" store_site.Trace.Metrics.s_smem_conflict_extra
  in
  check "diff shows the conflict delta" true (contains diff expect_cell)

(* --- attributing and plain devices side by side -------------------------- *)

(* A loop-free kernel with a barrier, a divergent branch, local-memory
   traffic, and work the IR passes eliminate (a constant product and a
   repeated [x * x]), so the attributing device's table has an [elim]
   column to sum and the plain device's forms drop [Elim] markers. *)
let side_src = {|
__kernel void side(__global float* out, __local float* tile, int n) {
  int g = get_global_id(0);
  int t = get_local_id(0);
  float x = (float)(g * 7 % 13) * 0.5f + (float)n;
  float sq = x * x + 2.0f * 4.0f;
  tile[t] = sq;
  barrier(CLK_LOCAL_MEM_FENCE);
  float y = tile[(t + 1) % 32] + x * x;
  if (g % 3 == 0) y = y * 0.5f;
  out[g] = y;
}
|}

let side_items = 256

(* Build [side_src] on a fresh device under [config] and launch it
   twice: the output bytes and each launch's stats. *)
let side_run (config : Gpusim.Config.t) =
  let dev =
    Gpusim.Device.create ~config Gpusim.Device.titan Gpusim.Device.opencl_on_nvidia
  in
  let cl = Opencl.Cl.create dev in
  let out = Opencl.Cl.create_buffer cl (4 * side_items) in
  let p = Opencl.Cl.create_program_with_source cl side_src in
  Opencl.Cl.build_program cl p;
  let k = Opencl.Cl.create_kernel cl p "side" in
  Opencl.Cl.set_arg_buffer cl k 0 out;
  Opencl.Cl.set_arg_local cl k 1 (32 * 4);
  Opencl.Cl.set_arg_int cl k 2 5;
  let launch () =
    snd (Opencl.Cl.enqueue_nd_range cl k ~gws:[| side_items; 1; 1 |]
           ~lws:[| 32; 1; 1 |] ())
  in
  let stats = [ launch (); launch () ] in
  let bytes =
    Vm.Memory.load_bytes dev.Gpusim.Device.global
      (Vm.Value.ptr_offset (Opencl.Cl.buffer_device_ptr out))
      (4 * side_items)
  in
  (Bytes.to_string bytes, stats)

(* Every Counters.t field but [warp_div_rows], which only an attributing
   launch counts: the per-item branch-decision streams it is computed
   from are recorded only when attributing. *)
let counters (stats : Gpusim.Exec.launch_stats list) =
  List.map
    (fun s ->
       List.filter
         (fun (k, _) -> k <> "warp_div_rows")
         (Fuzz.Pyramid.counter_fields s.Gpusim.Exec.counters))
    stats

(* The attributing run's launches carry tables whose sums are the
   aggregates (warp divergence included) and which record eliminated
   work; the plain run's carry none, and bytes and counters agree. *)
let check_side label (a_bytes, a_stats) (p_bytes, p_stats) =
  check (label ^ ": same buffer") true (String.equal a_bytes p_bytes);
  Alcotest.(check (list (list (pair string int))))
    (label ^ ": same counters") (counters a_stats) (counters p_stats);
  List.iter
    (fun (s : Gpusim.Exec.launch_stats) ->
       check (label ^ ": plain launch has no table") true (s.Gpusim.Exec.attr = None))
    p_stats;
  List.iter
    (fun (s : Gpusim.Exec.launch_stats) ->
       check_exact_sum (label ^ ": attributing launch") s;
       let eliminated =
         List.exists
           (fun (_, (st : Gpusim.Attr.site)) -> st.Gpusim.Attr.ops_eliminated > 0)
           (Gpusim.Attr.to_list (Option.get s.Gpusim.Exec.attr))
       in
       check (label ^ ": passes eliminated work") true eliminated)
    a_stats

(* Both devices on the IR with every pass, so there is work to
   eliminate; the domain count is the environment's. *)
let side_by_side () =
  let sited =
    { attributing with backend = Gpusim.Config.Compiled; passes = Ir.Pipeline.all }
  in
  let plain = { sited with attribute = false } in
  check_side "back to back" (side_run sited) (side_run plain);
  let a = Domain.spawn (fun () -> side_run sited)
  and p = Domain.spawn (fun () -> side_run plain) in
  let a = Domain.join a and p = Domain.join p in
  check_side "two domains at once" a p

(* In the CUDA->OpenCL direction the translation is the one switch: a
   translation made with [~attribute:true] attributes with the same
   per-site table on a plain device as on an attributing one, and a
   plain translation on a plain device attributes nowhere. *)
let translation_decides () =
  let src =
    (List.find
       (fun (c : Suite.Registry.cuda_app) -> c.cu_name = "cfd")
       Suite.Registry.all_cuda)
      .Suite.Registry.cu_src
  in
  let sites ~attribute config =
    match Bridge.Framework.translate_cuda ~attribute src with
    | Bridge.Framework.Failed _ -> Alcotest.fail "cfd did not translate"
    | Bridge.Framework.Translated result ->
      let dev = Bridge.Framework.device_of ~config Titan_opencl in
      Trace.Summary.collect_sites
        (snd
           (collect_metrics (fun () ->
                Bridge.Framework.run_translated_cuda ~dev result)))
  in
  let was_enabled = Trace.Sink.is_enabled () in
  if not was_enabled then Trace.Sink.enable ();
  Fun.protect
    ~finally:(fun () ->
      Trace.Sink.clear ();
      if not was_enabled then Trace.Sink.disable ())
  @@ fun () ->
  let plain = Gpusim.Config.default () in
  let on_plain = sites ~attribute:true plain in
  check "a sited translation attributes on a plain device" true
    (on_plain <> []);
  check "with the attributing device's table" true
    (on_plain = sites ~attribute:true attributing);
  check "a plain translation attributes nowhere" true
    (sites ~attribute:false plain = [])

let suites =
  [ ( "attr",
      [ QCheck_alcotest.to_alcotest prop_site_sums;
        Alcotest.test_case "directed diff blames the planted conflict site"
          `Quick directed_diff;
        Alcotest.test_case "attributing and plain devices side by side" `Quick
          side_by_side;
        Alcotest.test_case "a CUDA translation's own sites decide" `Quick
          translation_decides ] ) ]
