(* End-to-end and per-layer benchmark over the paper's own workloads.

     dune exec bench/e2e/main.exe -- [--workload W]... [--seed N]
         [--seconds S] [--trace 0|1] [--out F]
     dune exec bench/e2e/main.exe -- --smoke      (3 ops per workload)
     dune exec bench/e2e/main.exe -- --promote    (regenerate the oracle)
     dune exec bench/e2e/main.exe -- compare A.json B.json

   Workloads: fig7-ocl2cuda, fig8-cuda2ocl, launch-bound,
   translate-corpus (see README.md).  Each workload runs in a child
   process of its own, one after another.  A run is one warm-up pass,
   then timed passes for about S seconds, then (with --trace 1) one
   traced pass; operation order within each pass is a permutation drawn
   from the seed.  Every operation is checked against reference.json.
   The last line of standard output is a JSON summary of the last
   workload.

   The program runs under the library's own defaults: any OCLCU_*
   variable in the environment is removed by re-executing without it,
   and no configuration ref of the library is written. *)

module J = Trace.Json

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

type better = Lower | Higher

type metric = { name : string; unit_ : string; better : better; bound : float }

let m ?(bound = 0.0) name unit_ better = { name; unit_; better; bound }

(* Bounds: the share by which a median may worsen before it counts as a
   regression.  On the shared 2-vCPU host the benchmark was built on,
   the spread of ten runs of one workload reaches 10-20% for host times
   and 7% for peak memory, and medians of sets run minutes apart move by
   as much (README.md, Repeatability), so times get the widest bound
   allowed and memory 0.2. *)
let end_to_end =
  [ m "setup_s" "s" Lower ~bound:0.25;
    m "pass_s" "s" Lower ~bound:0.25;
    m "op_ms.p50" "ms" Lower ~bound:0.25;
    m "op_ms.p90" "ms" Lower ~bound:0.25;
    m "peak_rss_mb" "MB" Lower ~bound:0.2 ]

let api_rows l =
  [ m (l ^ ".enqueue_nd_range.calls") "count" Lower;
    m (l ^ ".enqueue_nd_range.busy_s") "s" Lower;
    m (l ^ ".enqueue_nd_range.us.p50") "us" Lower;
    m (l ^ ".enqueue_nd_range.us.p90") "us" Lower;
    m (l ^ ".build_program.calls") "count" Lower;
    m (l ^ ".build_program.busy_s") "s" Lower;
    m (l ^ ".transfer.busy_s") "s" Lower;
    m (l ^ ".api_other.busy_s") "s" Lower;
    m (l ^ ".app_host.self_s") "s" Lower ]

(* The three build caches of the library, under metric-safe names. *)
let caches =
  [ ("clBuildProgram parse", "cl_parse");
    ("ocl->cuda translate", "ocl2cuda_translate");
    ("cuda->ocl translate", "cuda2ocl_translate") ]

let per_layer =
  api_rows "opencl" @ api_rows "cl_on_cuda"
  @ [ m "bridge.cuda_native.run.busy_s" "s" Lower;
      m "bridge.cuda_on_cl.run.busy_s" "s" Lower;
      m "xlat.translate_cuda.busy_s" "s" Lower;
      m "gpusim.launches" "count" Lower;
      m "gpusim.sim_ops" "count" Lower;
      m "gpusim.ops_per_launch" "count" Lower;
      m "gpusim.gmem_transactions" "count" Lower;
      m "gpusim.smem_transactions" "count" Lower;
      m "gpusim.sim_mops_per_s" "Mop/s" Higher;
      m "gpusim.launch.seq" "count" Lower;
      m "gpusim.launch.par" "count" Higher;
      m "gpusim.launch.replayed" "count" Lower;
      m "gpusim.pool.accept_ratio" "ratio" Higher ]
  @ List.concat_map
      (fun (_, c) ->
         [ m ("cache." ^ c ^ ".hits") "count" Higher;
           m ("cache." ^ c ^ ".misses") "count" Lower;
           m ("cache." ^ c ^ ".hit_ratio") "ratio" Higher ])
      caches
  @ [ m "minic.parse.busy_s" "s" Lower;
      m "minic.parse.mb_per_s" "MB/s" Higher;
      m "minic.print.busy_s" "s" Lower;
      m "xlat.feature_check.busy_s" "s" Lower;
      m "xlat.ocl_to_cuda.busy_s" "s" Lower;
      m "xlat.cuda_to_ocl.busy_s" "s" Lower;
      m "ir.build.busy_s" "s" Lower;
      m "ir.lowered_fns" "count" Higher;
      m "ir.rejected_fns" "count" Lower;
      m "ir.rewrites" "count" Higher;
      m "lockstep.plan.busy_s" "s" Lower;
      m "lockstep.eligible_kernels" "count" Higher;
      m "lockstep.fused_regions" "count" Higher;
      m "gc.minor_mwords" "Mword" Lower;
      m "gc.major_collections" "count" Lower;
      m "warmup.pass_s" "s" Lower;
      m "trace.op_total_s" "s" Lower;
      m "trace.residual_s" "s" Lower;
      m "trace.overhead_ratio" "ratio" Lower ]

(* ------------------------------------------------------------------ *)
(* Child processes                                                     *)
(* ------------------------------------------------------------------ *)

(* Start this executable with [args] and [extra] environment entries.
   One child at a time: every caller blocks until it has exited. *)
let spawn ?(extra = []) args ~stdin_fd ~stdout_fd =
  let exe = Sys.executable_name in
  let env = Array.append (Unix.environment ()) (Array.of_list extra) in
  Unix.create_process_env exe (Array.of_list (exe :: args)) env stdin_fd stdout_fd
    Unix.stderr

let exited_ok pid =
  match Unix.waitpid [] pid with _, Unix.WEXITED 0 -> true | _ -> false

(* Run a child, feed it [input] on stdin and return its stdout. *)
let run_child ?extra args ~input =
  let in_r, in_w = Unix.pipe ~cloexec:true () in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let pid = spawn ?extra args ~stdin_fd:in_r ~stdout_fd:out_w in
  Unix.close in_r;
  Unix.close out_w;
  let oc = Unix.out_channel_of_descr in_w in
  (try output_string oc input with Sys_error _ -> ());
  close_out_noerr oc;
  let ic = Unix.in_channel_of_descr out_r in
  let out = In_channel.input_all ic in
  close_in_noerr ic;
  if exited_ok pid then out
  else failwith (Printf.sprintf "child %s failed" (String.concat " " args))

let last_line s =
  match List.filter (( <> ) "") (String.split_on_char '\n' s) |> List.rev with
  | l :: _ -> l
  | [] -> ""

(* The distinct OpenCL kernel sources the named apps build.  Capturing
   runs every app once natively, so it happens in a child of its own and
   stays out of the measuring process's time and peak memory. *)
let capture_child () =
  set_binary_mode_in stdin true;
  set_binary_mode_out stdout true;
  let names : string list = Marshal.from_channel stdin in
  let apps =
    List.filter
      (fun (a : Bridge.Framework.ocl_app) -> List.mem a.oa_name names)
      Suite.Registry.all_opencl
  in
  Marshal.to_channel stdout (Ops.capture_cl_sources apps) [];
  flush stdout

let capture (apps : Bridge.Framework.ocl_app list) : (string * string) list =
  let names = List.map (fun (a : Bridge.Framework.ocl_app) -> a.oa_name) apps in
  Marshal.from_string (run_child [ "--capture-child" ] ~input:(Marshal.to_string names [])) 0

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)
(* ------------------------------------------------------------------ *)

type workload = {
  w_name : string;
  w_ops : Oracle.t -> smoke:bool -> Ops.op list;
}

let cheapest oracle n (ops : Ops.op list) =
  let keep =
    List.sort (fun (a : Ops.op) b ->
        compare (Oracle.cost oracle a.id, a.id) (Oracle.cost oracle b.id, b.id))
      ops
    |> List.filteri (fun i _ -> i < n)
    |> List.map (fun (o : Ops.op) -> o.id)
  in
  List.filter (fun (o : Ops.op) -> List.mem o.id keep) ops

let smoke_ops = 3

let trim oracle ~smoke ops = if smoke then cheapest oracle smoke_ops ops else ops

(* Ops whose native run makes at least this many kernel launches form
   the launch-bound slice (per the oracle's counts). *)
let launch_bound_min = 10

let launch_bound oracle =
  List.filter
    (fun (o : Ops.op) ->
       match Oracle.native_launches oracle o.id with
       | Some n -> n >= launch_bound_min
       | None -> false)
    (Ops.fig7_ops () @ Ops.fig8_ops ())

(* The corpus for the smoke run: the cheapest few sources, capturing
   only the apps that build them. *)
let smoke_corpus oracle =
  let ids =
    List.map fst oracle.Oracle.ops
    |> List.filter (fun k ->
        Probe.starts_with "cl-src:" k || Probe.starts_with "cu-src:" k)
    |> List.sort (fun a b ->
        compare (Oracle.cost oracle a, a) (Oracle.cost oracle b, b))
    |> List.filteri (fun i _ -> i < smoke_ops)
  in
  let apps =
    List.filter
      (fun (a : Bridge.Framework.ocl_app) ->
         List.exists
           (Probe.starts_with ("cl-src:" ^ a.Bridge.Framework.oa_name ^ "#"))
           ids)
      Suite.Registry.all_opencl
  in
  let cuda =
    List.filter
      (fun (c : Suite.Registry.cuda_app) -> List.mem ("cu-src:" ^ c.cu_name) ids)
      Suite.Registry.all_cuda
  in
  List.filter (fun (o : Ops.op) -> List.mem o.id ids)
    (Ops.corpus_ops ~cl:(capture apps) ~cuda)

let corpus oracle ~smoke =
  if smoke then smoke_corpus oracle
  else
    Ops.corpus_ops ~cl:(capture Suite.Registry.all_opencl)
      ~cuda:Suite.Registry.all_cuda

let workloads =
  [ { w_name = "fig7-ocl2cuda";
      w_ops = (fun o ~smoke -> trim o ~smoke (Ops.fig7_ops ())) };
    { w_name = "fig8-cuda2ocl";
      w_ops = (fun o ~smoke -> trim o ~smoke (Ops.fig8_ops ())) };
    { w_name = "launch-bound";
      w_ops = (fun o ~smoke -> trim o ~smoke (launch_bound o)) };
    { w_name = "translate-corpus"; w_ops = corpus } ]

(* ------------------------------------------------------------------ *)
(* Host metadata                                                       *)
(* ------------------------------------------------------------------ *)

let scrubbed_env =
  match Sys.getenv_opt "E2E_SCRUBBED_ENV" with
  | Some s when s <> "" -> String.split_on_char ',' s
  | _ -> []

let read_first_line path =
  try In_channel.with_open_text path In_channel.input_line with _ -> None

(* The checkout's git revision, read from .git without running git;
   "unknown" outside a git work tree or under packed refs. *)
let git_rev () =
  let rev =
    match read_first_line ".git/HEAD" with
    | Some l when Probe.starts_with "ref: " l ->
      read_first_line (".git/" ^ String.sub l 5 (String.length l - 5))
    | head -> head
  in
  Option.value rev ~default:"unknown"

let engine_name () =
  match !Gpusim.Exec.engine with
  | Gpusim.Exec.Scalar -> "scalar"
  | Gpusim.Exec.Lockstep -> "lockstep"

(* What two runs must share to be comparable. *)
let host_meta () =
  J.Obj
    [ ("nproc", J.Int (Domain.recommended_domain_count ()));
      ("ocaml", J.Str Sys.ocaml_version);
      ("clock", J.Str Probe.clock_source);
      ("domains", J.Int !Gpusim.Exec.domains);
      ("engine", J.Str (engine_name ())) ]

let peak_rss_mb () =
  try
    In_channel.with_open_text "/proc/self/status" (fun ic ->
        let rec go () =
          match In_channel.input_line ic with
          | None -> nan
          | Some l when Probe.starts_with "VmHWM:" l ->
            Scanf.sscanf l "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
          | Some _ -> go ()
        in
        go ())
  with _ -> nan

(* ------------------------------------------------------------------ *)
(* Set-up time                                                         *)
(* ------------------------------------------------------------------ *)

(* The cold on-line build path, in a fresh process: every OpenCL source
   through build_program on the native framework and on the
   OpenCL-on-CUDA wrappers, every CUDA program through translate_cuda.
   Prints the build time in seconds. *)
let setup_child () =
  set_binary_mode_in stdin true;
  let (cl, cu) : string list * (string * int option) list =
    Marshal.from_channel stdin
  in
  let open Bridge in
  let nat = Cl_api.Native.make (Framework.device_of Framework.Titan_opencl) in
  let wra = Cl_on_cuda.Api.make (Framework.device_of Framework.Titan_cuda) in
  let dt, () =
    Probe.time (fun () ->
        List.iter
          (fun src ->
             Cl_api.Native.build_program nat src;
             Cl_on_cuda.Api.build_program wra src)
          cl;
        List.iter
          (fun (src, tex) -> ignore (Framework.translate_cuda ~tex1d_texels:tex src))
          cu)
  in
  Printf.printf "%.17g\n" dt

(* One set-up child over the programs the warm-up pass built. *)
let setup_time payload =
  float_of_string (last_line (run_child [ "--setup-child" ] ~input:payload))

(* ------------------------------------------------------------------ *)
(* Passes                                                              *)
(* ------------------------------------------------------------------ *)

let attempted = ref 0
let failed = ref 0

let permute ~seed ~pass (ops : Ops.op list) =
  let a = Array.of_list ops in
  let st = Random.State.make [| seed; pass |] in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

let fail id msg =
  incr failed;
  Printf.eprintf "FAIL %s: %s\n%!" id msg

type done_op = {
  d_id : string;
  d_dt : float;                        (* whole operation, seconds *)
  d_runs : float list;                 (* seconds of each application run *)
  d_obs : (string * J.t) list;
}

(* Run one operation: its timings and observation, or None when it
   raised or disagreed with the oracle. *)
let run_op oracle ~check ~traced (op : Ops.op) =
  incr attempted;
  Probe.cur_op := op.id;
  Probe.cur_counts := [];
  Probe.cur_samples := [];
  let t0 = Probe.now () in
  match op.run () with
  | exception e -> fail op.id (Printexc.to_string e); None
  | observe ->
    let dt = Probe.now () -. t0 in
    if traced then Probe.add_span "op" op.id t0 dt;
    let runs =
      match !Probe.cur_samples with [] -> [ dt ] | l -> List.rev l
    in
    (match observe () with
     | exception e -> fail op.id (Printexc.to_string e); None
     | obs ->
       let obs =
         if traced && !Probe.cur_counts <> [] then
           obs @ [ ("counts", J.Obj !Probe.cur_counts) ]
         else obs
       in
       match if check then Oracle.check oracle op.id obs else Ok () with
       | Ok () -> Some { d_id = op.id; d_dt = dt; d_runs = runs; d_obs = obs }
       | Error d -> fail op.id d; None)

type pass = { p_wall : float; p_ops : done_op list }

(* [between] runs after every operation, off the operations' clocks. *)
let run_pass oracle ?(check = true) ?(between = ignore) ~traced ~seed ~pass ops =
  let t0 = Probe.now () in
  let off = ref 0.0 in
  let p_ops =
    List.filter_map
      (fun (op : Ops.op) ->
         let r = run_op oracle ~check ~traced op in
         let dt, () = Probe.time between in
         off := !off +. dt;
         r)
      (permute ~seed ~pass ops)
  in
  { p_wall = Probe.now () -. t0 -. !off; p_ops }

(* A pass with the layer probes live and metrics-only tracing on. *)
let traced_pass oracle ?check ~seed ~pass ops =
  Probe.reset ();
  Probe.reset_gpu ();
  Trace.Sink.enable ~spans:false ();
  Probe.active := true;
  Fun.protect
    ~finally:(fun () ->
        Probe.active := false;
        Trace.Sink.disable ())
    (fun () -> run_pass oracle ?check ~traced:true ~seed ~pass ops)

(* ------------------------------------------------------------------ *)
(* One workload run                                                    *)
(* ------------------------------------------------------------------ *)

type run = {
  r_workload : string;
  r_ops : int;
  r_timed_passes : int;
  r_samples : int;                   (* timed application runs *)
  r_e2e : (string * float) list;
  r_layer : (string * float) list;   (* empty unless traced *)
  r_self : (string * float) list;    (* self-time rows of the traced pass *)
  r_spans : Probe.span list;
  r_attempted : int;
  r_failed : int;
}

let self_rows =
  List.concat_map
    (fun l ->
       List.map (fun r -> l ^ "." ^ r)
         [ "enqueue_nd_range"; "build_program"; "transfer"; "api_other"; "app_host" ])
    [ "opencl"; "cl_on_cuda" ]
  @ [ "bridge.cuda_native.run"; "bridge.cuda_on_cl.run"; "xlat.translate_cuda";
      "minic.parse"; "xlat.feature_check"; "xlat.ocl_to_cuda";
      "xlat.cuda_to_ocl"; "minic.print"; "ir.build"; "lockstep.plan" ]

(* Busy seconds of a self-time row; [app_host] is what remains of a
   run step after the host-API calls made inside it. *)
let self_busy name =
  match String.split_on_char '.' name with
  | [ l; "app_host" ] ->
    Probe.busy (l ^ ".run")
    -. List.fold_left
      (fun a r -> a +. Probe.busy (l ^ "." ^ r))
      0.0 [ "enqueue_nd_range"; "build_program"; "transfer"; "api_other" ]
  | _ -> Probe.busy name

let sum_obs (p : pass) path =
  List.fold_left
    (fun a d -> a + Option.value ~default:0 (Oracle.int_at path (J.Obj d.d_obs)))
    0 p.p_ops

let layer_metrics ~traced:(tp : pass) ~untraced_wall ~warmup_wall ~caches0 ~caches1
    ~gc0 ~gc1 =
  let f = float_of_int in
  let row name = Hashtbl.find_opt Probe.rows name in
  let calls name = match row name with Some r -> f r.Probe.calls | None -> 0.0 in
  let pct name p =
    match row name with
    | Some r when r.Probe.samples <> [] -> 1e6 *. Stats.quantile r.Probe.samples p
    | _ -> 0.0
  in
  let ratio a b = if b = 0.0 then 0.0 else a /. b in
  let api l =
    let e = l ^ ".enqueue_nd_range" and b = l ^ ".build_program" in
    [ (e ^ ".calls", calls e); (e ^ ".busy_s", Probe.busy e);
      (e ^ ".us.p50", pct e 0.5); (e ^ ".us.p90", pct e 0.9);
      (b ^ ".calls", calls b); (b ^ ".busy_s", Probe.busy b);
      (l ^ ".transfer.busy_s", Probe.busy (l ^ ".transfer"));
      (l ^ ".api_other.busy_s", Probe.busy (l ^ ".api_other"));
      (l ^ ".app_host.self_s", self_busy (l ^ ".app_host")) ]
  in
  let g = Probe.gpu in
  let cache_rows =
    List.concat_map
      (fun (lib_name, c) ->
         let get l =
           match List.find_opt (fun (n, _, _) -> n = lib_name) l with
           | Some (_, h, m) -> (h, m)
           | None -> (0, 0)
         in
         let h0, m0 = get caches0 and h1, m1 = get caches1 in
         let h = f (h1 - h0) and ms = f (m1 - m0) in
         [ ("cache." ^ c ^ ".hits", h); ("cache." ^ c ^ ".misses", ms);
           ("cache." ^ c ^ ".hit_ratio", ratio h (h +. ms)) ])
      caches
  in
  let op_total = List.fold_left (fun a d -> a +. d.d_dt) 0.0 tp.p_ops in
  let rows_total = List.fold_left (fun a r -> a +. self_busy r) 0.0 self_rows in
  let parse = Probe.busy "minic.parse" in
  let parse_bytes = match row "minic.parse" with Some r -> f r.Probe.bytes | None -> 0.0 in
  api "opencl" @ api "cl_on_cuda"
  @ [ ("bridge.cuda_native.run.busy_s", Probe.busy "bridge.cuda_native.run");
      ("bridge.cuda_on_cl.run.busy_s", Probe.busy "bridge.cuda_on_cl.run");
      ("xlat.translate_cuda.busy_s", Probe.busy "xlat.translate_cuda");
      ("gpusim.launches", f g.launches);
      ("gpusim.sim_ops", f g.sim_ops);
      ("gpusim.ops_per_launch", ratio (f g.sim_ops) (f g.launches));
      ("gpusim.gmem_transactions", f g.gmem);
      ("gpusim.smem_transactions", f g.smem);
      ("gpusim.sim_mops_per_s", ratio (f g.sim_ops /. 1e6) untraced_wall);
      ("gpusim.launch.seq", f g.seq);
      ("gpusim.launch.par", f g.par);
      ("gpusim.launch.replayed", f g.replayed);
      ("gpusim.pool.accept_ratio", ratio (f g.par) (f (g.par + g.replayed))) ]
  @ cache_rows
  @ [ ("minic.parse.busy_s", parse);
      ("minic.parse.mb_per_s", ratio (parse_bytes /. 1e6) parse);
      ("minic.print.busy_s", Probe.busy "minic.print");
      ("xlat.feature_check.busy_s", Probe.busy "xlat.feature_check");
      ("xlat.ocl_to_cuda.busy_s", Probe.busy "xlat.ocl_to_cuda");
      ("xlat.cuda_to_ocl.busy_s", Probe.busy "xlat.cuda_to_ocl");
      ("ir.build.busy_s", Probe.busy "ir.build");
      ("ir.lowered_fns", f (sum_obs tp [ "ir"; "lowered_fns" ]));
      ("ir.rejected_fns", f (sum_obs tp [ "ir"; "rejected_fns" ]));
      ("ir.rewrites", f (sum_obs tp [ "ir"; "rewrites" ]));
      ("lockstep.plan.busy_s", Probe.busy "lockstep.plan");
      ("lockstep.eligible_kernels", f (sum_obs tp [ "lockstep"; "eligible_kernels" ]));
      ("lockstep.fused_regions", f (sum_obs tp [ "lockstep"; "fused_regions" ]));
      ("gc.minor_mwords", (gc1.Gc.minor_words -. gc0.Gc.minor_words) /. 1e6);
      ("gc.major_collections", f (gc1.Gc.major_collections - gc0.Gc.major_collections));
      ("warmup.pass_s", warmup_wall);
      ("trace.op_total_s", op_total);
      ("trace.residual_s", op_total -. rows_total);
      ("trace.overhead_ratio", ratio tp.p_wall untraced_wall) ]

(* Interference on a shared host comes in stretches of a fraction of a
   second to minutes that slow everything by up to 60%.  Each operation
   is timed in at least two passes and its median kept, so no one
   stretch sets a metric.  The timed window also holds at least
   [min_samples] application runs, so that ten or more lie beyond
   op_ms.p90.  Set-up children spread over the window fall in a fast or
   a slow mode, about half in each, so setup_s is the median of the
   means of groups of [setup_group] consecutive children. *)
let min_timed_passes = 2
let min_samples = 100
let setup_group = 5
let setup_children = 11 * setup_group

let run_workload oracle (w : workload) ~seed ~seconds ~trace ~smoke =
  let a0 = !attempted and f0 = !failed in
  let ops = w.w_ops oracle ~smoke in
  Printf.printf "\n== %s: %d operations, seed %d ==\n%!" w.w_name (List.length ops) seed;
  if ops = [] then failwith (w.w_name ^ ": no operations (run --promote?)");
  (* warm-up: fills the build caches and records what the set-up
     children rebuild cold *)
  Probe.recorded_cl := [];
  Probe.recorded_cu := [];
  Probe.recording := true;
  let warm =
    Fun.protect ~finally:(fun () -> Probe.recording := false) (fun () ->
        run_pass oracle ~traced:false ~seed ~pass:0 ops)
  in
  Printf.printf "warm-up pass      %8.3f s\n%!" warm.p_wall;
  (* Timed window: whole passes until about [seconds] have elapsed, and
     at least [min_timed_passes].  The set-up children run between
     operations, spread evenly over the window. *)
  let n_setup = if smoke then 1 else if trace then 0 else setup_children in
  let payload =
    Marshal.to_string
      (List.sort_uniq compare !Probe.recorded_cl, List.sort_uniq compare !Probe.recorded_cu)
      []
  in
  let setup = ref [] in
  let child () = setup := setup_time payload :: !setup in
  let t0 = Probe.now () in
  let between () =
    let n = List.length !setup in
    if n < n_setup
    && Probe.now () -. t0 >= float_of_int n *. seconds /. float_of_int n_setup
    then child ()
  in
  let by_op : (string, float list) Hashtbl.t = Hashtbl.create 256 in
  let run_ms = ref [] in
  let passes = ref [] in
  let rec loop k =
    let p = run_pass oracle ~between ~traced:false ~seed ~pass:k ops in
    passes := p.p_wall :: !passes;
    List.iter
      (fun d ->
         Hashtbl.replace by_op d.d_id
           (d.d_dt :: Option.value ~default:[] (Hashtbl.find_opt by_op d.d_id));
         List.iter (fun s -> run_ms := (1000.0 *. s) :: !run_ms) d.d_runs)
      p.p_ops;
    let elapsed = Probe.now () -. t0 in
    let mean = elapsed /. float_of_int k in
    if (not smoke)
    && (k < min_timed_passes
        || List.length !run_ms < min_samples
        || elapsed +. (mean /. 2.0) < seconds)
    then loop (k + 1)
  in
  loop 1;
  let peak_rss = peak_rss_mb () in
  while List.length !setup < n_setup do child () done;
  if !setup <> [] then
    Printf.printf "set-up children   %d (%.4f-%.4f s)\n%!" (List.length !setup)
      (List.fold_left Float.min infinity !setup)
      (List.fold_left Float.max neg_infinity !setup);
  let n_timed = List.length !passes in
  let pass_s = Hashtbl.fold (fun _ l a -> a +. Stats.median l) by_op 0.0 in
  let untraced_wall = Stats.median !passes in
  Printf.printf "timed passes      %d (median pass %.3f s), %d application runs\n%!"
    n_timed untraced_wall (List.length !run_ms);
  let e2e =
    [ ("setup_s",
       if !setup = [] then nan else Stats.median_of_means ~group:setup_group !setup);
      ("pass_s", pass_s);
      ("op_ms.p50", Stats.harrell_davis !run_ms 0.5);
      ("op_ms.p90", Stats.quantile !run_ms 0.9);
      ("peak_rss_mb", peak_rss) ]
  in
  let layer, self, spans =
    if not trace then ([], [], [])
    else begin
      let caches0 = Trace.Build_cache.all_stats () in
      let gc0 = Gc.quick_stat () in
      let tp = traced_pass oracle ~seed ~pass:(n_timed + 1) ops in
      let gc1 = Gc.quick_stat () in
      let caches1 = Trace.Build_cache.all_stats () in
      Printf.printf "traced pass       %8.3f s\n%!" tp.p_wall;
      let layer =
        layer_metrics ~traced:tp ~untraced_wall ~warmup_wall:warm.p_wall ~caches0
          ~caches1 ~gc0 ~gc1
      in
      let self = List.map (fun r -> (r, self_busy r)) self_rows in
      (layer, self, List.rev !Probe.spans)
    end
  in
  { r_workload = w.w_name; r_ops = List.length ops; r_timed_passes = n_timed;
    r_samples = List.length !run_ms; r_e2e = e2e; r_layer = layer; r_self = self;
    r_spans = spans; r_attempted = !attempted - a0; r_failed = !failed - f0 }

(* ------------------------------------------------------------------ *)
(* Reporting                                                           *)
(* ------------------------------------------------------------------ *)

let find_metric name =
  List.find (fun x -> x.name = name) (end_to_end @ per_layer)

let print_metrics title values =
  Printf.printf "%s\n" title;
  List.iter
    (fun (n, v) ->
       Printf.printf "  %-40s %16.6g %s\n" n v (find_metric n).unit_)
    values

let print_self (r : run) =
  let total = List.assoc "trace.op_total_s" r.r_layer in
  let residual = List.assoc "trace.residual_s" r.r_layer in
  Printf.printf "self time over the traced pass (operation total %.4f s)\n" total;
  List.iter
    (fun (n, v) ->
       if v <> 0.0 then
         Printf.printf "  %-40s %10.4f s %6.1f%%\n" n v (100.0 *. v /. total))
    r.r_self;
  Printf.printf "  %-40s %10.4f s %6.1f%%  (harness work inside operations)\n"
    "residual" residual (100.0 *. residual /. total)

let metrics_obj names values =
  J.Obj
    (List.map
       (fun (x : metric) ->
          ( x.name,
            J.Obj
              [ ("value", J.Float (List.assoc x.name values));
                ("unit", J.Str x.unit_) ] ))
       names)

(* The one-line result the last line of stdout carries. *)
let summary_line (r : run) ~trace =
  let names, values = if trace then (per_layer, r.r_layer) else (end_to_end, r.r_e2e) in
  J.to_string
    (J.Obj
       [ ("correct", J.Bool (r.r_failed = 0));
         ("attempted", J.Int r.r_attempted);
         ("failed", J.Int r.r_failed);
         ("metrics", metrics_obj names values) ])

(* Check a summary line against the output schema. *)
let validate_line line ~trace =
  let names = List.map (fun x -> x.name) (if trace then per_layer else end_to_end) in
  match J.of_string line with
  | J.Obj kvs ->
    let keys = List.sort compare (List.map fst kvs) in
    if keys <> [ "attempted"; "correct"; "failed"; "metrics" ] then
      Error "top-level keys"
    else (
      match List.assoc "metrics" kvs with
      | J.Obj ms ->
        if List.sort compare (List.map fst ms) <> List.sort compare names then
          Error "metric names"
        else if
          List.for_all
            (fun (_, v) ->
               match J.member "value" v, J.member "unit" v with
               | Some (J.Float _ | J.Int _), Some (J.Str _) -> true
               | _ -> false)
            ms
        then Ok ()
        else Error "metric values"
      | _ -> Error "metrics object")
  | _ -> Error "not an object"
  | exception J.Parse_error e -> Error e

let run_record (r : run) ~seed ~seconds ~trace =
  let values = List.filter (fun (_, v) -> not (Float.is_nan v)) (r.r_e2e @ r.r_layer) in
  J.Obj
    [ ("workload", J.Str r.r_workload);
      ("host", host_meta ());
      ("run",
       J.Obj
         [ ("seed", J.Int seed); ("seconds", J.Float seconds);
           ("git_rev", J.Str (git_rev ()));
           ("scrubbed_env", J.List (List.map (fun s -> J.Str s) scrubbed_env));
           ("operations", J.Int r.r_ops);
           ("passes",
            J.Obj
              [ ("warmup", J.Int 1); ("timed", J.Int r.r_timed_passes);
                ("traced", J.Int (if trace then 1 else 0)) ]);
           ("application_runs", J.Int r.r_samples) ]);
      ("correct", J.Bool (r.r_failed = 0));
      ("attempted", J.Int r.r_attempted);
      ("failed", J.Int r.r_failed);
      ("metrics",
       metrics_obj
         (List.filter (fun x -> List.mem_assoc x.name values) (end_to_end @ per_layer))
         values) ]

let results_schema = "oclcu-bench-e2e-results/1"

(* Add [records] to the result set in [path] (created if absent). *)
let append_results path records =
  let old =
    if Sys.file_exists path then
      match J.member "runs" (J.of_string (Oracle.read_file path)) with
      | Some (J.List l) -> l
      | _ -> []
    else []
  in
  let doc = J.Obj [ ("schema", J.Str results_schema); ("runs", J.List (old @ records)) ] in
  Out_channel.with_open_bin path (fun oc -> output_string oc (J.to_string_pretty doc))

(* Add a workload's bench-side spans to the Chrome trace-event file in
   [path] (created if absent) as one more process; every span carries
   its operation id. *)
let write_trace path (r : run) =
  let old, dropped =
    if Sys.file_exists path then
      let doc = J.of_string (Oracle.read_file path) in
      ( (match J.member "traceEvents" doc with Some (J.List l) -> l | _ -> []),
        Option.value ~default:0 (Oracle.int_at [ "dropped_spans" ] doc) )
    else ([], 0)
  in
  let pid =
    1 + List.length (List.filter (fun e -> J.member "ph" e = Some (J.Str "M")) old)
  in
  let t0 = List.fold_left (fun a s -> Float.min a s.Probe.sp_t0) infinity r.r_spans in
  let events =
    J.Obj
      [ ("name", J.Str "process_name"); ("ph", J.Str "M"); ("pid", J.Int pid);
        ("args", J.Obj [ ("name", J.Str r.r_workload) ]) ]
    :: List.map
      (fun (s : Probe.span) ->
         J.Obj
           [ ("name", J.Str s.sp_name); ("cat", J.Str s.sp_cat);
             ("ph", J.Str "X"); ("ts", J.Float (1e6 *. (s.sp_t0 -. t0)));
             ("dur", J.Float (1e6 *. s.sp_dur)); ("pid", J.Int pid);
             ("tid", J.Int 1); ("args", J.Obj [ ("op", J.Str s.sp_op) ]) ])
      r.r_spans
  in
  Out_channel.with_open_bin path (fun oc ->
      output_string oc
        (J.to_string
           (J.Obj
              [ ("traceEvents", J.List (old @ events));
                ("dropped_spans", J.Int (dropped + !Probe.dropped_spans)) ])))

(* ------------------------------------------------------------------ *)
(* compare                                                             *)
(* ------------------------------------------------------------------ *)

let compare_files a b =
  let runs path =
    match J.member "runs" (J.of_string (Oracle.read_file path)) with
    | Some (J.List l) -> l
    | _ -> failwith (path ^ ": no runs")
  in
  let ra = runs a and rb = runs b in
  let hosts =
    List.sort_uniq compare
      (List.map (fun r -> J.to_string (Option.value ~default:J.Null (J.member "host" r)))
         (ra @ rb))
  in
  if List.length hosts > 1 then begin
    Printf.printf "refusing to compare: host metadata differ\n";
    List.iter (Printf.printf "  %s\n") hosts;
    exit 2
  end;
  let workload r = Option.bind (J.member "workload" r) J.to_string_opt in
  let names =
    List.sort_uniq compare (List.filter_map workload (ra @ rb))
  in
  let values rs w name =
    List.filter_map
      (fun r ->
         if workload r <> Some w then None
         else
           Option.bind (J.member "metrics" r) (fun ms ->
               Option.bind (J.member name ms) (fun v ->
                   Option.bind (J.member "value" v) J.to_float_opt)))
      rs
  in
  let any_worse = ref false in
  Printf.printf "%-17s %-12s %-28s %-28s %6s %8s %s\n" "workload" "metric"
    "A q1/median/q3 (n)" "B q1/median/q3 (n)" "bound" "change" "verdict";
  List.iter
    (fun w ->
       List.iter
         (fun (x : metric) ->
            let va = values ra w x.name and vb = values rb w x.name in
            if va <> [] && vb <> [] then begin
              let sa = Stats.summarise va and sb = Stats.summarise vb in
              let v =
                Stats.compare_sides ~bound:x.bound ~lower:(x.better = Lower) sa sb
              in
              if v = Stats.Worse then any_worse := true;
              let side s =
                Printf.sprintf "%.4g/%.4g/%.4g (%d)" s.Stats.q1 s.med s.q3 s.n
              in
              Printf.printf "%-17s %-12s %-28s %-28s %5.0f%% %+7.2f%% %s\n" w x.name
                (side sa) (side sb) (100.0 *. x.bound)
                (100.0 *. (sb.med -. sa.med) /. Float.abs sa.med)
                (Stats.verdict_name v)
            end)
         end_to_end)
    names;
  if !any_worse then exit 1

(* ------------------------------------------------------------------ *)
(* Oracle promotion                                                    *)
(* ------------------------------------------------------------------ *)

(* Every operation of every workload once, traced for counts and not
   checked: the raw material of reference.json. *)
let oracle_entries () =
  let empty = Oracle.of_ops [] in
  let ops =
    Ops.fig7_ops () @ Ops.fig8_ops ()
    @ Ops.corpus_ops
        ~cl:(Ops.capture_cl_sources Suite.Registry.all_opencl)
        ~cuda:Suite.Registry.all_cuda
  in
  let p = traced_pass empty ~check:false ~seed:0 ~pass:0 ops in
  let by_id = List.map (fun d -> (d.d_id, d.d_obs)) p.p_ops in
  List.map
    (fun (o : Ops.op) ->
       match List.assoc_opt o.id by_id with
       | Some obs -> (o.id, Oracle.normalise (J.Obj obs))
       | None -> failwith ("oracle: operation " ^ o.id ^ " failed"))
    ops

let verify_configs =
  [ [ "OCLCU_DOMAINS=1" ]; [ "OCLCU_DOMAINS=2" ]; [ "OCLCU_ENGINE=lockstep" ] ]

let promote path =
  let entries = oracle_entries () in
  let oracle = Oracle.of_ops entries in
  let ok = ref true in
  List.iter
    (fun extra ->
       Printf.printf "verifying under %s ...\n%!" (String.concat " " extra);
       let out = run_child ~extra [ "--oracle-child" ] ~input:"" in
       match J.of_string (last_line out) with
       | J.Obj other ->
         List.iter
           (fun (id, e) ->
              match List.assoc_opt id other with
              | None -> ok := false; Printf.printf "  %s: missing\n" id
              | Some o ->
                (match Oracle.diff "" e o with
                 | None -> ()
                 | Some d -> ok := false; Printf.printf "  %s: %s\n" id d))
           entries
       | _ -> ok := false)
    verify_configs;
  if not !ok then begin
    print_endline "promote: configurations disagree; reference not written";
    exit 1
  end;
  let lb = List.map (fun (o : Ops.op) -> o.id) (launch_bound oracle) in
  Printf.printf "launch-bound slice (>= %d native launches): %s\n" launch_bound_min
    (String.concat " " lb);
  Oracle.save path oracle
    ~verified:("default" :: List.map (String.concat " ") verify_configs);
  Printf.printf "wrote %s (%d operations)\n" path (List.length entries)

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)
(* ------------------------------------------------------------------ *)

(* Re-execute without OCLCU_* so the library's defaults apply (its
   configuration refs are initialised from the environment at start-up,
   before any of this runs). *)
let scrub_env () =
  let env = Array.to_list (Unix.environment ()) in
  let bad, good = List.partition (Probe.starts_with "OCLCU_") env in
  if bad <> [] then begin
    let names =
      List.map (fun kv -> List.hd (String.split_on_char '=' kv)) bad
    in
    Unix.execve Sys.executable_name Sys.argv
      (Array.of_list (("E2E_SCRUBBED_ENV=" ^ String.concat "," names) :: good))
  end

let usage () =
  prerr_endline
    "usage: main.exe [--workload W]... [--seed N] [--seconds S] [--trace 0|1]\n\
    \                [--out F] [--reference P] [--smoke] [--promote]\n\
    \       main.exe compare A.json B.json";
  exit 2

type opts = {
  sel : string list;
  seed : int;
  seconds : float;
  trace : bool;
  out : string option;
  reference : string;
  smoke : bool;
  promote : bool;
  child : bool;        (* the measuring child of exactly one workload *)
}

let parse_opts args =
  let rec go o = function
    | [] -> o
    | "--workload" :: w :: rest -> go { o with sel = o.sel @ [ w ] } rest
    | "--seed" :: n :: rest -> go { o with seed = int_of_string n } rest
    | "--seconds" :: s :: rest -> go { o with seconds = float_of_string s } rest
    | "--trace" :: t :: rest -> go { o with trace = t = "1" } rest
    | "--out" :: f :: rest -> go { o with out = Some f } rest
    | "--reference" :: p :: rest -> go { o with reference = p } rest
    | "--smoke" :: rest -> go { o with smoke = true } rest
    | "--promote" :: rest -> go { o with promote = true } rest
    | "--child" :: rest -> go { o with child = true } rest
    | _ -> usage ()
  in
  let o =
    try
      go
        { sel = []; seed = 1; seconds = 15.0; trace = false; out = None;
          reference = Oracle.default_path; smoke = false; promote = false;
          child = false }
        args
    with Failure _ -> usage ()
  in
  List.iter
    (fun n -> if not (List.exists (fun w -> w.w_name = n) workloads) then usage ())
    o.sel;
  o

(* The measuring child: one workload, its report, its result line. *)
let measure o =
  let w = List.find (fun w -> w.w_name = List.hd o.sel) workloads in
  let oracle = Oracle.load o.reference in
  (* the smoke run exercises both result kinds *)
  let traced = o.trace || o.smoke in
  let r = run_workload oracle w ~seed:o.seed ~seconds:o.seconds ~trace:traced ~smoke:o.smoke in
  print_metrics "end-to-end" (List.filter (fun (_, v) -> not (Float.is_nan v)) r.r_e2e);
  if traced then begin
    print_metrics "per-layer (traced pass)" r.r_layer;
    print_self r
  end;
  if o.smoke then
    List.iter
      (fun trace ->
         match validate_line (summary_line r ~trace) ~trace with
         | Ok () -> ()
         | Error e ->
           incr failed;
           Printf.printf "smoke: %s result schema: %s\n" w.w_name e)
      [ false; true ]
  else print_endline (summary_line r ~trace:o.trace);
  Option.iter
    (fun f ->
       append_results f [ run_record r ~seed:o.seed ~seconds:o.seconds ~trace:traced ];
       if traced then write_trace (f ^ ".trace.json") r)
    o.out;
  if !failed > 0 then exit 1

(* Each workload in a child process of its own, one after another, so
   that its peak memory is its own and it inherits no other workload's
   heap or caches.  The children write straight to standard output. *)
let orchestrate o args =
  let rec drop = function
    | "--workload" :: _ :: rest -> drop rest
    | a :: rest -> a :: drop rest
    | [] -> []
  in
  let rest = drop args in
  if o.trace || o.smoke then
    Option.iter
      (fun f -> if Sys.file_exists (f ^ ".trace.json") then Sys.remove (f ^ ".trace.json"))
      o.out;
  let names = if o.sel = [] then List.map (fun w -> w.w_name) workloads else o.sel in
  let ok =
    List.fold_left
      (fun ok w ->
         let pid =
           spawn ("--child" :: "--workload" :: w :: rest) ~stdin_fd:Unix.stdin
             ~stdout_fd:Unix.stdout
         in
         exited_ok pid && ok)
      true names
  in
  if o.smoke then Printf.printf "smoke: %s\n" (if ok then "ok" else "FAILED");
  if not ok then exit 1

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  if not (List.mem "--oracle-child" args) then scrub_env ();
  match args with
  | [ "compare"; a; b ] -> compare_files a b
  | [ "--setup-child" ] -> setup_child ()
  | [ "--capture-child" ] -> capture_child ()
  | [ "--oracle-child" ] -> print_endline (J.to_string (J.Obj (oracle_entries ())))
  | _ ->
    let o = parse_opts args in
    if o.promote then promote o.reference
    else if o.child then measure o
    else orchestrate o args
