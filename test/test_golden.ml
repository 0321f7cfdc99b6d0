(* Golden-file tests for the profiling surfaces: the nvprof-style
   summary printed by `oclcu prof` and the Chrome trace-event exporter.

   Everything profiled here runs on the simulated clock, so the output
   is byte-deterministic — except each span's [wall_ns] argument in the
   Chrome export, which is host wall time and is normalised to 0 before
   comparison.

   A warm-up (untraced) run precedes the traced one so the build-cache
   spans always read "[cache hit]" regardless of which tests ran
   earlier in the process.

   Regenerate the goldens after an intentional output change with:

     OCLCU_PROMOTE=1 OCLCU_GOLDEN_DIR=test/golden \
       dune exec test/test_main.exe -- test '.*golden.*'
*)

let golden_dir =
  match Sys.getenv_opt "OCLCU_GOLDEN_DIR" with
  | Some d -> d
  | None ->
    (* `dune runtest` runs with cwd = the test directory; `dune exec`
       from the project root does not *)
    if Sys.file_exists "golden" then "golden" else "test/golden"

let promote = Sys.getenv_opt "OCLCU_PROMOTE" = Some "1"

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let check_golden name actual =
  let path = Filename.concat golden_dir name in
  if promote then write_file path actual
  else if not (Sys.file_exists path) then
    Alcotest.fail
      (Printf.sprintf "missing golden %s (run with OCLCU_PROMOTE=1)" path)
  else
    let expected = read_file path in
    if not (String.equal expected actual) then begin
      (* keep the actual output around for inspection *)
      write_file (name ^ ".actual") actual;
      Alcotest.fail
        (Printf.sprintf "%s differs from golden (saved %s.actual)" name name)
    end

(* Normalise the only nondeterministic field of the Chrome export:
   "wall_ns":<float> carries host wall-clock time. *)
let normalize_chrome s =
  let buf = Buffer.create (String.length s) in
  let key = "\"wall_ns\":" in
  let klen = String.length key in
  let n = String.length s in
  let i = ref 0 in
  while !i < n do
    if !i + klen <= n && String.sub s !i klen = key then begin
      Buffer.add_string buf key;
      Buffer.add_char buf '0';
      i := !i + klen;
      while
        !i < n
        && (match s.[!i] with
            | '0' .. '9' | '.' | '-' | '+' | 'e' | 'E' -> true
            | _ -> false)
      do
        incr i
      done
    end
    else begin
      Buffer.add_char buf s.[!i];
      incr i
    end
  done;
  Buffer.contents buf

(* --- a profiling session, as `oclcu prof` performs it ----------------- *)

type traced_run = {
  tr_label : string;
  tr_spans : Trace.Event.span list;
  tr_metrics : Trace.Metrics.t list;
}

let traced_run label f =
  Trace.Sink.clear ();
  ignore (f ());
  let r =
    { tr_label = label;
      tr_spans = Trace.Sink.events ();
      tr_metrics = Trace.Sink.metrics () }
  in
  Trace.Sink.clear ();
  r

(* Native and translated profiles of [src], on devices under [config]. *)
let profile_cuda_src ?config label src : traced_run list =
  let native () =
    Bridge.Framework.(run_cuda_native ~dev:(device_of ?config Titan_cuda) src)
  in
  let translated result =
    Bridge.Framework.(
      run_translated_cuda ~dev:(device_of ?config Titan_opencl) result)
  in
  let attribute = Option.map (fun c -> c.Gpusim.Config.attribute) config in
  (* untraced warm-up: populates the parse and translate caches *)
  ignore (native ());
  let warm_translated =
    match Bridge.Framework.translate_cuda ?attribute src with
    | Bridge.Framework.Failed _ -> None
    | Bridge.Framework.Translated result ->
      ignore (translated result);
      Some result
  in
  Trace.Sink.enable ();
  Trace.Sink.clear ();
  let native = traced_run (label ^ " @ CUDA/Titan") native in
  let runs =
    match warm_translated with
    | None -> [ native ]
    | Some result ->
      [ native;
        traced_run (label ^ " @ OpenCL/Titan (translated)") (fun () ->
            translated result) ]
  in
  Trace.Sink.disable ();
  runs

(* Native and wrapped profiles of an OpenCL app, on devices under
   [config], after an untraced warm-up of both. *)
let profile_ocl_app ?config (app : Bridge.Framework.ocl_app) : traced_run list =
  let native () =
    Bridge.Framework.(run_app_native app ~dev:(device_of ?config Titan_opencl) ())
  in
  let wrapped () =
    Bridge.Framework.(run_app_on_cuda app ~dev:(device_of ?config Titan_cuda) ())
  in
  ignore (native ());
  ignore (wrapped ());
  Trace.Sink.enable ();
  Trace.Sink.clear ();
  let label = app.Bridge.Framework.oa_name in
  let runs =
    [ traced_run (label ^ " @ OpenCL/Titan") native;
      traced_run (label ^ " @ CUDA/Titan (wrapped)") wrapped ]
  in
  Trace.Sink.disable ();
  runs

let summary_text (runs : traced_run list) =
  String.concat "\n"
    (List.map
       (fun tr ->
          let amps = Trace.Summary.amplifications tr.tr_spans in
          Trace.Summary.to_string ~label:tr.tr_label tr.tr_spans
          ^ Trace.Summary.metrics_to_string tr.tr_metrics
          ^ (if amps = [] then ""
             else Trace.Summary.amplification_to_string amps))
       runs)

(* What `oclcu prof TARGET --attribute` prints per run, the per-site
   table under the run's label, and with [diff] the `--diff` table of
   the native and the translated run. *)
let attribution_text ?(diff = false) (runs : traced_run list) =
  String.concat ""
    (List.map
       (fun tr ->
          "==" ^ tr.tr_label ^ "==\n"
          ^ Trace.Summary.attribution_to_string tr.tr_metrics)
       runs)
  ^
  match diff, runs with
  | true, [ native; translated ] ->
    Trace.Summary.diff_to_string ~native:native.tr_metrics
      ~translated:translated.tr_metrics
  | _ -> ""

let attributing = { (Gpusim.Config.default ()) with attribute = true }

let devicequery_src () =
  let app =
    List.find
      (fun (c : Suite.Registry.cuda_app) -> c.cu_name = "deviceQuery")
      Suite.Registry.all_cuda
  in
  app.Suite.Registry.cu_src

let golden_tests =
  [ Alcotest.test_case "prof deviceQuery summary tables" `Quick (fun () ->
        let runs = profile_cuda_src "deviceQuery" (devicequery_src ()) in
        check_golden "prof_devicequery.txt" (summary_text runs));
    Alcotest.test_case "chrome trace export for deviceQuery" `Quick (fun () ->
        let runs = profile_cuda_src "deviceQuery" (devicequery_src ()) in
        let pairs = List.map (fun tr -> (tr.tr_label, tr.tr_spans)) runs in
        let json = Trace.Chrome.to_json pairs in
        (match Trace.Chrome.validate json with
         | Ok () -> ()
         | Error e -> Alcotest.fail ("invalid chrome trace: " ^ e));
        check_golden "chrome_devicequery.json"
          (normalize_chrome (Trace.Json.to_string json)))
  ]

(* The attribution reports of §6.2's two mechanisms: FT's bank-conflict
   replays, which only its 32-bit-addressing side shows (the six
   [tile[...]] sites of each kernel), and cfd, whose translation moves
   no per-site count. *)
let attribution_tests =
  [ Alcotest.test_case "prof FT --attribute --diff" `Quick (fun () ->
        let ft =
          List.find
            (fun (a : Bridge.Framework.ocl_app) -> a.Bridge.Framework.oa_name = "FT")
            Suite.Registry.all_opencl
        in
        check_golden "prof_ft_attribute.txt"
          (attribution_text ~diff:true (profile_ocl_app ~config:attributing ft)));
    Alcotest.test_case "prof cfd --attribute" `Quick (fun () ->
        let cfd =
          List.find
            (fun (c : Suite.Registry.cuda_app) -> c.cu_name = "cfd")
            Suite.Registry.all_cuda
        in
        check_golden "prof_cfd_attribute.txt"
          (attribution_text
             (profile_cuda_src ~config:attributing "cfd" cfd.Suite.Registry.cu_src)))
  ]

let suites =
  [ ("golden.prof", golden_tests); ("golden.attribution", attribution_tests) ]
