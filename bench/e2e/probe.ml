(* Outside-in layer timing for the end-to-end benchmark.

   Every number here comes from timing calls into the library's public
   entry points on one monotonic clock (bechamel's CLOCK_MONOTONIC
   binding); nothing inside the library is instrumented or configured.
   Probes are live only during the traced pass ([active]); otherwise a
   probe costs one bool load.  [recording] is the warm-up pass's mode:
   no timing, but every program the workload builds is remembered so
   the set-up children can rebuild the same programs cold. *)

module J = Trace.Json

let clock_source = "bechamel.monotonic_clock (CLOCK_MONOTONIC)"

(* Seconds on the monotonic clock. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let time f =
  let t0 = now () in
  let r = f () in
  (now () -. t0, r)

let active = ref false
let recording = ref false

(* --- recorded build inputs (warm-up pass) ----------------------------- *)

let recorded_cl : string list ref = ref []
let recorded_cu : (string * int option) list ref = ref []

let record_cl src = if !recording then recorded_cl := src :: !recorded_cl

let record_cu src tex =
  if !recording then recorded_cu := (src, tex) :: !recorded_cu

(* --- per-row accumulators ------------------------------------------- *)

type row = {
  mutable calls : int;
  mutable busy : float;        (* seconds *)
  mutable bytes : int;         (* input bytes, where a row has any *)
  mutable samples : float list;  (* per-call seconds, enqueue rows only *)
}

let rows : (string, row) Hashtbl.t = Hashtbl.create 64

let row name =
  match Hashtbl.find_opt rows name with
  | Some r -> r
  | None ->
    let r = { calls = 0; busy = 0.0; bytes = 0; samples = [] } in
    Hashtbl.replace rows name r;
    r

let busy name = match Hashtbl.find_opt rows name with Some r -> r.busy | None -> 0.0

(* --- bench-side spans ------------------------------------------------ *)

type span = {
  sp_op : string;     (* operation id the span belongs to *)
  sp_cat : string;    (* "op" | "step" | "layer" *)
  sp_name : string;
  sp_t0 : float;      (* seconds, monotonic *)
  sp_dur : float;
}

let max_spans = 200_000
let spans : span list ref = ref []
let n_spans = ref 0
let dropped_spans = ref 0
let cur_op = ref ""

let add_span cat name t0 dur =
  if !n_spans < max_spans then begin
    spans := { sp_op = !cur_op; sp_cat = cat; sp_name = name; sp_t0 = t0;
               sp_dur = dur } :: !spans;
    incr n_spans
  end
  else incr dropped_spans

let reset () =
  Hashtbl.reset rows;
  spans := [];
  n_spans := 0;
  dropped_spans := 0

let account ?(cat = "layer") ?(bytes = 0) ?(sample = false) name t0 =
  let dt = now () -. t0 in
  let r = row name in
  r.calls <- r.calls + 1;
  r.busy <- r.busy +. dt;
  r.bytes <- r.bytes + bytes;
  if sample then r.samples <- dt :: r.samples;
  add_span cat name t0 dt

(* Time one call into a public layer function under row [name]. *)
let call ?bytes ?sample name f =
  if not !active then f ()
  else
    let t0 = now () in
    Fun.protect f ~finally:(fun () -> account ?bytes ?sample name t0)

(* --- per-run host time -------------------------------------------- *)

(* Host seconds of each application run of the current operation;
   always recorded.  An operation without application runs (the corpus)
   is one sample. *)
let cur_samples : float list ref = ref []

let sample f =
  let t0 = now () in
  let r = f () in
  cur_samples := (now () -. t0) :: !cur_samples;
  r

(* --- simulator counts from metrics-only tracing ---------------------- *)

type gpu = {
  mutable launches : int;
  mutable sim_ops : int;
  mutable gmem : int;
  mutable smem : int;
  mutable seq : int;
  mutable par : int;
  mutable replayed : int;
}

let gpu =
  { launches = 0; sim_ops = 0; gmem = 0; smem = 0; seq = 0; par = 0;
    replayed = 0 }

let reset_gpu () =
  gpu.launches <- 0; gpu.sim_ops <- 0; gpu.gmem <- 0; gpu.smem <- 0;
  gpu.seq <- 0; gpu.par <- 0; gpu.replayed <- 0

let starts_with p s =
  String.length s >= String.length p && String.sub s 0 (String.length p) = p

(* Per-step launch counts of the current operation, checked against the
   oracle's [counts] field. *)
let cur_counts : (string * J.t) list ref = ref []

let harvest key =
  let ms = Trace.Sink.metrics () in
  if Trace.Sink.dropped_metrics () > 0 then failwith "trace sink dropped launch metrics";
  Trace.Sink.clear ();
  let sum f = List.fold_left (fun a m -> a + f m) 0 ms in
  let launches = List.length ms in
  let ops = sum Trace.Metrics.total_ops in
  let gmem = sum (fun m -> m.Trace.Metrics.m_gmem_transactions) in
  let smem = sum (fun m -> m.Trace.Metrics.m_smem_transactions) in
  gpu.launches <- gpu.launches + launches;
  gpu.sim_ops <- gpu.sim_ops + ops;
  gpu.gmem <- gpu.gmem + gmem;
  gpu.smem <- gpu.smem + smem;
  List.iter
    (fun m ->
       let o = m.Trace.Metrics.m_outcome in
       if o = "seq" then gpu.seq <- gpu.seq + 1
       else if starts_with "par:" o then gpu.par <- gpu.par + 1
       else gpu.replayed <- gpu.replayed + 1)
    ms;
  cur_counts :=
    !cur_counts
    @ [ (key,
         J.Obj
           [ ("launches", J.Int launches); ("sim_ops", J.Int ops);
             ("gmem_transactions", J.Int gmem);
             ("smem_transactions", J.Int smem) ]) ]

(* One run configuration of an operation (native, translated, ...):
   timed under row [layer ^ ".run"], and its kernel launches harvested
   under [key]. *)
let step ~key ~layer f =
  if not !active then f ()
  else begin
    Trace.Sink.clear ();
    let t0 = now () in
    let res =
      Fun.protect f ~finally:(fun () -> account ~cat:"step" (layer ^ ".run") t0)
    in
    harvest key;
    res
  end

(* --- the timing shadow of the OpenCL host API ------------------------ *)

(* [Shadow (C) (L)] is [C] with every host-API entry point timed into
   the rows [L.layer ^ ".enqueue_nd_range" | ".build_program" |
   ".transfer" | ".api_other"].  Accessors the harness itself uses
   ([host], [time_ns], [build_time_ns]) are left untimed. *)
module Shadow
    (C : Bridge.Cl_api.S)
    (L : sig val layer : string end) : Bridge.Cl_api.S with type t = C.t =
struct
  include C

  let enqueue = L.layer ^ ".enqueue_nd_range"
  let build = L.layer ^ ".build_program"
  let transfer = L.layer ^ ".transfer"
  let other = L.layer ^ ".api_other"

  let device_name t = call other (fun () -> C.device_name t)
  let device_info t p = call other (fun () -> C.device_info t p)

  let create_buffer t ?read_only n =
    call other (fun () -> C.create_buffer t ?read_only n)

  let write_buffer t b ?offset ~size ~ptr () =
    call transfer (fun () -> C.write_buffer t b ?offset ~size ~ptr ())

  let read_buffer t b ?offset ~size ~ptr () =
    call transfer (fun () -> C.read_buffer t b ?offset ~size ~ptr ())

  let release_buffer t b = call other (fun () -> C.release_buffer t b)

  let build_program t src =
    record_cl src;
    call ~bytes:(String.length src) build (fun () -> C.build_program t src)

  let create_kernel t n = call other (fun () -> C.create_kernel t n)
  let set_arg_buffer t k i b = call other (fun () -> C.set_arg_buffer t k i b)
  let set_arg_int t k i n = call other (fun () -> C.set_arg_int t k i n)
  let set_arg_float t k i x = call other (fun () -> C.set_arg_float t k i x)
  let set_arg_double t k i x = call other (fun () -> C.set_arg_double t k i x)
  let set_arg_local t k i n = call other (fun () -> C.set_arg_local t k i n)
  let set_arg_image t k i m = call other (fun () -> C.set_arg_image t k i m)
  let set_arg_sampler t k i s = call other (fun () -> C.set_arg_sampler t k i s)

  let create_image2d t ~width ~height ~order ~chtype ?host_ptr () =
    call other (fun () ->
        C.create_image2d t ~width ~height ~order ~chtype ?host_ptr ())

  let create_sampler t ~normalized ~address ~filter =
    call other (fun () -> C.create_sampler t ~normalized ~address ~filter)

  let read_image t img ~ptr = call transfer (fun () -> C.read_image t img ~ptr)

  let enqueue_nd_range t k ~gws ~lws =
    call ~sample:true enqueue (fun () -> C.enqueue_nd_range t k ~gws ~lws)

  let finish t = call other (fun () -> C.finish t)
end

module Native = Shadow (Bridge.Cl_api.Native) (struct let layer = "opencl" end)

module On_cuda =
  Shadow (Bridge.Cl_on_cuda.Api) (struct let layer = "cl_on_cuda" end)

(* The two Figure-7 configurations through the shadows; the simulated
   duration is computed exactly as {!Bridge.Framework.run_app_native}
   and [run_app_on_cuda] compute it, which the oracle re-checks. *)
let run_app_native (a : Bridge.Framework.ocl_app) : Bridge.Framework.run =
  let open Bridge in
  let c = Cl_api.Native.make (Framework.device_of Framework.Titan_opencl) in
  let out = a.Framework.oa_run (Framework.Clctx ((module Native), c)) in
  { Framework.r_output = out;
    r_time_ns = Cl_api.Native.time_ns c -. Cl_api.Native.build_time_ns c }

let run_app_on_cuda (a : Bridge.Framework.ocl_app) : Bridge.Framework.run =
  let open Bridge in
  let c = Cl_on_cuda.Api.make (Framework.device_of Framework.Titan_cuda) in
  let out = a.Framework.oa_run (Framework.Clctx ((module On_cuda), c)) in
  { Framework.r_output = out;
    r_time_ns = Cl_on_cuda.Api.time_ns c -. Cl_on_cuda.Api.build_time_ns c }
