(* oclcu — command-line front end for the translation framework.

     oclcu translate file.cu          -> file.cu.cl + file.cu.cpp (Fig. 3)
     oclcu translate kernel.cl        -> kernel.cl.cu             (Fig. 2)
     oclcu translate --validate ...   -> also diff analyzer diagnostics
     oclcu check file.cu              -> Table-3 translatability report
     oclcu analyze file.{cu,cl}       -> kernel static analysis report
     oclcu run file.cu [--device ...] -> execute on a simulated device
     oclcu run --trace out.json --profile ... -> trace/profile the run
     oclcu prof FT|cfd|deviceQuery|file.cu -> profile on every framework
     oclcu devices                    -> list simulated devices *)

open Cmdliner

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let write_file path contents =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc contents);
  Printf.printf "wrote %s (%d bytes)\n" path (String.length contents)

(* Run a command body that writes output files, turning failures to
   open/write them into a Cmdliner error instead of an uncaught
   Sys_error. *)
let catching_sys_error f =
  match f () with
  | r -> r
  | exception Sys_error msg -> `Error (false, msg)

let ends_with ~suffix s =
  let n = String.length suffix and m = String.length s in
  m >= n && String.sub s (m - n) n = suffix

(* --- translate --------------------------------------------------------- *)

(* Translation validation: analyze the program before and after the
   translation and fail if the translation introduced any diagnostic
   absent from the source. *)
let report_validation = function
  | Error msg -> `Error (false, "validate: " ^ msg)
  | Ok o ->
    if Xlat_analysis.Validate.clean o then begin
      Printf.printf
        "validated: no diagnostics introduced (%d before, %d after)\n"
        (List.length o.Xlat_analysis.Validate.v_before)
        (List.length o.Xlat_analysis.Validate.v_after);
      `Ok ()
    end
    else begin
      List.iter
        (fun d ->
           Printf.eprintf "introduced: %s\n" (Xlat_analysis.Diag.to_string d))
        o.Xlat_analysis.Validate.v_introduced;
      `Error
        ( false,
          Printf.sprintf "translation introduced %d diagnostic(s)"
            (List.length o.Xlat_analysis.Validate.v_introduced) )
    end

(* Layered (dynamic) translation validation: run source and translation
   under per-layer truncated observation and localize any divergence to
   the lowest semantic layer that introduces it. *)
let print_layered_outcomes outcomes =
  let diverged = ref 0 in
  List.iter
    (fun (name, outcome) ->
       match outcome with
       | Xlat_validate.Layered.Unsupported why ->
         Printf.printf "kernel %-24s layered: unsupported (%s)\n" name why
       | Xlat_validate.Layered.Checked r ->
         (match r.Xlat_validate.Layered.rp_diverged with
          | None -> Printf.printf "kernel %-24s layered: equivalent\n" name
          | Some _ -> incr diverged);
         List.iter
           (fun line -> Printf.printf "  %s\n" line)
           (Xlat_validate.Layered.report_lines r))
    outcomes;
  !diverged

let report_layered = function
  | Error msg -> `Error (false, "layered: " ^ msg)
  | Ok outcomes ->
    (match print_layered_outcomes outcomes with
     | 0 -> `Ok ()
     | n ->
       `Error
         (false, Printf.sprintf "layered validation: %d kernel(s) diverge" n))

let translate_cmd =
  let input =
    Arg.(required & pos 0 (some file) None
         & info [] ~docv:"FILE" ~doc:"CUDA (.cu) or OpenCL (.cl) source file")
  in
  let validate =
    Arg.(value & flag
         & info [ "validate" ]
             ~doc:"Analyze the kernels before and after translation and fail \
                   if the translation introduces a diagnostic")
  in
  let layered =
    Arg.(value & opt bool true
         & info [ "layered" ] ~docv:"BOOL"
             ~doc:"With $(b,--validate): also run the layered dynamic \
                   validator (L0 arithmetic, L1 +local memory, L2 +global \
                   memory, L3 +scheduling) and localize any divergence to \
                   the lowest layer introducing it (default: true)")
  in
  let ir_dump =
    Arg.(value & flag
         & info [ "ir-dump" ]
             ~doc:"Instead of translating, dump the optimizing \
                   middle-end's kernel IR for every function after the \
                   enabled passes ($(b,OCLCU_IR_PASSES) selects them; \
                   default all), with per-pass rewrite counts and the \
                   reason for any function the lowering rejected (it runs \
                   on the interpreter)")
  in
  let run_ir_dump input src =
    let dialect =
      if ends_with ~suffix:".cl" input then Minic.Parser.OpenCL
      else Minic.Parser.Cuda
    in
    match Minic.Parser.program ~dialect src with
    | exception Minic.Parser.Error (msg, line) ->
      `Error (false, Printf.sprintf "%s:%d: %s" input line msg)
    | prog ->
      let cfg = !Ir.Pipeline.selected in
      Printf.printf "; IR passes: %s\n" (Ir.Pipeline.signature cfg);
      let est = Ir.Emit.make ~special_ty:Gpusim.Exec.special_ty ~cfg prog in
      List.iter
        (fun name ->
           print_newline ();
           match Ir.Emit.ir est name with
           | Some (Ok fn) ->
             (match Ir.Emit.stats est name with
              | Some st ->
                let parts =
                  List.filter (fun (_, n) -> n > 0) (Ir.Passes.stats_list st)
                in
                Printf.printf "; %s: %s\n" name
                  (if parts = [] then "no rewrites"
                   else
                     String.concat ", "
                       (List.map
                          (fun (k, n) -> Printf.sprintf "%s %d" k n)
                          parts))
              | None -> ());
             let c = Ir.Emit.census est fn in
             Printf.printf
               "; %s: registers %d int-banked, %d float-banked, %d boxed; \
                in slots %d vector registers, %d vector locals\n"
               name c.c_ints c.c_flts c.c_boxed c.c_vregs c.c_vlocals;
             print_string (Ir.Core.dump_fn fn)
           | Some (Error why) ->
             Printf.printf "; %s: interpreter (%s)\n" name why
           | None -> ())
        (Ir.Emit.function_names est);
      `Ok ()
  in
  let run input validate layered ir_dump =
    catching_sys_error @@ fun () ->
    let src = read_file input in
    if ir_dump then run_ir_dump input src
    else if ends_with ~suffix:".cl" input then begin
      (* OpenCL -> CUDA device translation (kernel.cl -> kernel.cl.cu) *)
      match Xlat.Ocl_to_cuda.translate_source src with
      | cuda_src, result ->
        write_file (input ^ ".cu") cuda_src;
        List.iter
          (fun ki ->
             let dyn =
               List.length
                 (List.filter
                    (fun r -> r <> Xlat.Ocl_to_cuda.P_keep)
                    ki.Xlat.Ocl_to_cuda.ki_roles)
             in
             Printf.printf "kernel %-24s %d dynamic-memory parameter(s)\n"
               ki.Xlat.Ocl_to_cuda.ki_name dyn)
          result.Xlat.Ocl_to_cuda.kernels;
        if validate then
          match
            report_validation (Xlat_analysis.Validate.validate_opencl_source src)
          with
          | `Ok () when layered ->
            report_layered (Xlat_validate.Layered.check_opencl_source src)
          | r -> r
        else `Ok ()
      | exception Xlat.Ocl_to_cuda.Untranslatable msg ->
        `Error (false, "untranslatable: " ^ msg)
      | exception Minic.Parser.Error (msg, line) ->
        `Error (false, Printf.sprintf "%s:%d: %s" input line msg)
    end
    else begin
      (* CUDA -> OpenCL: feature check, then split translation *)
      match Bridge.Framework.translate_cuda src with
      | Failed findings ->
        List.iter
          (fun f ->
             Printf.eprintf "untranslatable: %s [%s]\n"
               f.Xlat.Feature.f_construct
               (Xlat.Feature.category_name f.Xlat.Feature.f_category))
          findings;
        `Error (false, "translation rejected (see findings above)")
      | Translated result ->
        write_file (input ^ ".cl") (Xlat.Cuda_to_ocl.cl_source result);
        write_file (input ^ ".cpp") (Xlat.Cuda_to_ocl.host_source result);
        List.iter
          (fun km ->
             Printf.printf
               "kernel %-24s +%d symbol / +%d texture parameter(s)%s\n"
               km.Xlat.Cuda_to_ocl.km_name
               (List.length km.Xlat.Cuda_to_ocl.km_symbols)
               (List.length km.Xlat.Cuda_to_ocl.km_textures)
               (match km.Xlat.Cuda_to_ocl.km_dynshared with
                | Some _ -> " + dynamic __local"
                | None -> ""))
          result.Xlat.Cuda_to_ocl.kmetas;
        if validate then
          match
            report_validation (Xlat_analysis.Validate.validate_cuda_source src)
          with
          | `Ok () when layered ->
            report_layered (Xlat_validate.Layered.check_cuda_source src)
          | r -> r
        else `Ok ()
      | exception Minic.Parser.Error (msg, line) ->
        `Error (false, Printf.sprintf "%s:%d: %s" input line msg)
    end
  in
  Cmd.v
    (Cmd.info "translate"
       ~doc:"Translate between CUDA (.cu) and OpenCL (.cl) source")
    Term.(ret (const run $ input $ validate $ layered $ ir_dump))

(* --- check ------------------------------------------------------------- *)

let check_cmd =
  let input =
    Arg.(required & pos 0 (some file) None
         & info [] ~docv:"FILE" ~doc:"CUDA source to lint")
  in
  let tex1d =
    Arg.(value & opt (some int) None
         & info [ "tex1d-texels" ]
             ~doc:"Runtime width of 1D linear textures, for the §5 limit check")
  in
  let run input tex1d =
    let src = read_file input in
    let prog =
      match Minic.Parser.program ~dialect:Minic.Parser.Cuda src with
      | p -> Some p
      | exception _ -> None
    in
    match Xlat.Feature.check_cuda_app ~tex1d_texels:tex1d ~src prog with
    | [] ->
      print_endline "translatable: no model-specific features found";
      `Ok ()
    | findings ->
      List.iter
        (fun f ->
           Printf.printf "%-44s [%s]\n" f.Xlat.Feature.f_construct
             (Xlat.Feature.category_name f.Xlat.Feature.f_category))
        findings;
      `Error (false, Printf.sprintf "%d blocking feature(s)" (List.length findings))
  in
  Cmd.v
    (Cmd.info "check" ~doc:"Report model-specific features (Table 3 categories)")
    Term.(ret (const run $ input $ tex1d))

(* --- analyze ------------------------------------------------------------ *)

let analyze_cmd =
  let input =
    Arg.(required & pos 0 (some file) None
         & info [] ~docv:"FILE"
             ~doc:"Kernel source to analyze; .cl parses as OpenCL, anything \
                   else as CUDA")
  in
  let strict =
    Arg.(value & flag
         & info [ "strict" ]
             ~doc:"Exit non-zero when warnings are present (by default only \
                   errors fail the command)")
  in
  let no_layers =
    Arg.(value & flag
         & info [ "no-layers" ]
             ~doc:"Skip the per-kernel layer-refinement section (which \
                   translates the source and checks L0-L3 equivalence)")
  in
  let run input strict no_layers =
    (* the exit-code contract (see the man page) promises exactly 0/1,
       so errors bypass Cmdliner's 124 convention *)
    let fail fmt =
      Printf.ksprintf
        (fun msg -> Printf.eprintf "oclcu: analyze: %s\n" msg; exit 1)
        fmt
    in
    let src = read_file input in
    let is_cl = ends_with ~suffix:".cl" input in
    let dialect =
      if is_cl then Minic.Parser.OpenCL else Minic.Parser.Cuda
    in
    match Minic.Parser.program ~dialect src with
    | prog ->
      let warnings =
        match Xlat_analysis.Checks.analyze_program prog with
        | [] ->
          print_endline "clean: no barrier-divergence, race or address-space \
                         diagnostics";
          0
        | diags ->
          List.iter
            (fun d ->
               print_endline ("warning: " ^ Xlat_analysis.Diag.to_string d))
            diags;
          List.length diags
      in
      let diverged =
        if no_layers then 0
        else begin
          print_endline "layer refinement (vs own translation):";
          match
            if is_cl then Xlat_validate.Layered.check_opencl_source src
            else Xlat_validate.Layered.check_cuda_source src
          with
          | Error why ->
            Printf.printf "  skipped: %s\n" why;
            0
          | Ok outcomes -> print_layered_outcomes outcomes
        end
      in
      if diverged > 0 then
        fail "%d kernel(s) diverge from their translation" diverged
      else if warnings > 0 && strict then
        fail "%d warning(s) with --strict" warnings
      else `Ok ()
    | exception Minic.Parser.Error (msg, line) ->
      fail "%s:%d: %s" input line msg
    | exception Minic.Lexer.Error (msg, line) ->
      fail "%s:%d: %s" input line msg
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:"Static analysis of kernels: barrier divergence, local-memory \
             races, address-space misuse; plus a layer-refinement section \
             validating the source against its own translation"
       ~man:
         [ `S Manpage.s_exit_status;
           `P "Exit status follows a warnings/errors contract:";
           `I ("0", "the source is clean, or carries only warnings (static \
                     diagnostics) without $(b,--strict).");
           `I ("1", "errors: a kernel diverges from its translation at some \
                     layer, the source fails to parse, or warnings are \
                     present and $(b,--strict) was given.") ])
    Term.(ret (const run $ input $ strict $ no_layers))

(* --- run ---------------------------------------------------------------- *)

let device_conv =
  Arg.enum
    [ ("titan-cuda", Bridge.Framework.Titan_cuda);
      ("titan-opencl", Bridge.Framework.Titan_opencl);
      ("amd-opencl", Bridge.Framework.Amd_opencl) ]

(* One labelled, traced run: enable the sink around [f], harvest spans
   and metrics, and leave the sink cleared for the next run. *)
type traced_run = {
  tr_label : string;
  tr_spans : Trace.Event.span list;
  tr_metrics : Trace.Metrics.t list;
  tr_dropped_spans : int;          (* ring-buffer evictions during the run *)
  tr_dropped_metrics : int;
}

let traced_run label f =
  if not (Trace.Sink.is_enabled ()) then Trace.Sink.enable ();
  Trace.Sink.clear ();
  let finish () =
    (* harvest the drop counters before [clear] resets them *)
    let r =
      { tr_label = label;
        tr_spans = Trace.Sink.events ();
        tr_metrics = Trace.Sink.metrics ();
        tr_dropped_spans = Trace.Sink.dropped_spans ();
        tr_dropped_metrics = Trace.Sink.dropped_metrics () }
    in
    Trace.Sink.clear ();
    r
  in
  match f () with
  | v -> (finish (), Ok v)
  | exception e -> (finish (), Error e)

(* Every run of a CLI invocation launches under the configuration its
   flags built, which the header echoes as a fuzz repro records it. *)
let print_profile ~(config : Gpusim.Config.t) (tr : traced_run) =
  print_string
    (Trace.Summary.to_string ~label:tr.tr_label
       ~config:(Gpusim.Config.to_string config) tr.tr_spans);
  if tr.tr_dropped_spans > 0 || tr.tr_dropped_metrics > 0 then
    Printf.printf
      "!! trace truncated: the ring buffer evicted %d span(s) and %d metrics \
       record(s);\n!! totals above undercount the earliest events of this \
       run\n"
      tr.tr_dropped_spans tr.tr_dropped_metrics;
  print_string (Trace.Summary.metrics_to_string tr.tr_metrics);
  let amps = Trace.Summary.amplifications tr.tr_spans in
  if amps <> [] then print_string (Trace.Summary.amplification_to_string amps);
  if config.attribute then begin
    print_string (Trace.Summary.attribution_to_string tr.tr_metrics);
    print_string (Trace.Summary.pool_to_string tr.tr_metrics)
  end

let chrome_runs trs =
  List.map (fun tr -> (tr.tr_label, tr.tr_spans)) trs

let chrome_metrics trs =
  List.map (fun tr -> (tr.tr_label, tr.tr_metrics)) trs

let trace_arg =
  Arg.(value & opt (some string) None
       & info [ "trace" ] ~docv:"OUT.json"
           ~doc:"Write a Chrome trace-event JSON of the run (load it at \
                 $(b,https://ui.perfetto.dev) or chrome://tracing); the \
                 timeline is the simulated clock")

let csv_arg =
  Arg.(value & opt (some string) None
       & info [ "csv" ] ~docv:"OUT.csv"
           ~doc:"Write the per-kernel metrics records as CSV")

let attribute_arg =
  Arg.(value & flag
       & info [ "attribute" ]
           ~doc:"Attribute counted events (ops, memory transactions, bank \
                 conflicts, barriers, warp divergence) to source statements: \
                 the devices this command creates build with a stable site \
                 id on every statement, launches of what they build track \
                 the executing site through both backends, and a per-site \
                 hot-spot table plus worker-pool telemetry is printed")

(* A host call the runtime rejected (a malformed cuda* call, a wrapper's
   refusal, a CUDA runtime error) is the program's error, not an
   internal one: [run] reports it and exits 1, as its man page says. *)
let exit_on_rejected_call f =
  match f () with
  | r -> r
  | exception
      ( Bridge.Hostrun.Host_error msg
      | Bridge.Cuda_on_cl.Wrapper_error msg
      | Cuda.Cudart.Cuda_error msg ) ->
    Printf.eprintf "oclcu: run: %s\n" msg;
    exit 1

let run_cmd =
  let input =
    Arg.(required & pos 0 (some file) None
         & info [] ~docv:"FILE" ~doc:"CUDA program (.cu) to execute")
  in
  let device =
    Arg.(value & opt device_conv Bridge.Framework.Titan_cuda
         & info [ "device"; "d" ]
             ~doc:"Target: $(b,titan-cuda) (native), $(b,titan-opencl) or \
                   $(b,amd-opencl) (via translation)")
  in
  let profile =
    Arg.(value & flag
         & info [ "profile" ]
             ~doc:"Print an nvprof-style profile (GPU activities / API \
                   calls, per-kernel metrics) after the run")
  in
  let backend =
    let backend_conv =
      Arg.enum
        [ ("compiled", Gpusim.Exec.Compiled); ("interp", Gpusim.Exec.Interp) ]
    in
    Arg.(value & opt backend_conv !Gpusim.Exec.backend
         & info [ "backend" ]
             ~doc:"Execution backend of kernels and host code: \
                   $(b,compiled) (closure-compiled through the IR, the \
                   default) or $(b,interp) (AST interpreter); the \
                   $(b,OCLCU_BACKEND) environment variable sets the default")
  in
  let domains_arg =
    Arg.(value & opt int !Gpusim.Exec.domains
         & info [ "domains" ]
             ~docv:"N"
             ~doc:"Worker domains for kernel execution: thread blocks run \
                   concurrently on $(docv) domains (1 = sequential engine); \
                   results are byte-identical either way.  The \
                   $(b,OCLCU_DOMAINS) environment variable sets the default \
                   (machine core count otherwise)")
  in
  let engine_arg =
    let engine_conv =
      Arg.enum
        [ ("scalar", Gpusim.Exec.Scalar); ("lockstep", Gpusim.Exec.Lockstep) ]
    in
    Arg.(value & opt engine_conv !Gpusim.Exec.engine
         & info [ "engine" ]
             ~doc:"Within-block execution engine: $(b,scalar) (per-item \
                   coroutines, the default) or $(b,lockstep) (whole warps in \
                   lockstep over the IR; ineligible kernels fall back to \
                   scalar with identical results).  The $(b,OCLCU_ENGINE) \
                   environment variable sets the default")
  in
  let run input device trace profile attribute backend domains engine =
    catching_sys_error @@ fun () ->
    exit_on_rejected_call @@ fun () ->
    let config =
      { (Gpusim.Config.default ()) with
        backend; engine; domains = max 1 domains; attribute }
    in
    let dev = Bridge.Framework.device_of ~config device in
    let profile = profile || attribute in
    let src = read_file input in
    let tracing = trace <> None || profile in
    let execute () =
      match device with
      | Bridge.Framework.Titan_cuda -> Ok (Bridge.Framework.run_cuda_native ~dev src)
      | _ ->
        (match Bridge.Framework.translate_cuda ~attribute src with
         | Failed findings ->
           List.iter
             (fun f ->
                Printf.eprintf "untranslatable: %s [%s]\n"
                  f.Xlat.Feature.f_construct
                  (Xlat.Feature.category_name f.Xlat.Feature.f_category))
             findings;
           Error "cannot run on an OpenCL device: translation rejected"
         | Translated result ->
           Ok (Bridge.Framework.run_translated_cuda ~dev result))
    in
    let finish (r : Bridge.Framework.run) =
      print_string r.r_output;
      Printf.printf "[%s: %.1f us simulated]\n"
        (Bridge.Framework.target_name device)
        (r.r_time_ns /. 1e3)
    in
    if not tracing then
      match execute () with
      | Ok r -> finish r; `Ok ()
      | Error msg -> `Error (false, msg)
    else begin
      let tr, outcome =
        traced_run (Filename.basename input) (fun () -> execute ())
      in
      Trace.Sink.disable ();
      match outcome with
      | Error e -> raise e
      | Ok (Error msg) -> `Error (false, msg)
      | Ok (Ok r) ->
        finish r;
        if profile then print_profile ~config tr;
        (match trace with
         | Some path ->
           Trace.Chrome.write_file path
             ~metrics:(chrome_metrics [ tr ])
             (chrome_runs [ tr ]);
           Printf.printf "wrote %s (%d spans)\n" path (List.length tr.tr_spans)
         | None -> ());
        `Ok ()
    end
  in
  let exits =
    Cmd.Exit.info 1
      ~doc:"the program made a host call the runtime rejected: a malformed \
            $(b,cuda*) call, a refusal of the CUDA-on-OpenCL wrappers or a \
            CUDA runtime error.  The message follows $(b,oclcu: run:) on \
            standard error."
    :: Cmd.Exit.defaults
  in
  Cmd.v
    (Cmd.info "run" ~exits ~doc:"Execute a CUDA program on a simulated device")
    Term.(
      ret
        (const run $ input $ device $ trace_arg $ profile $ attribute_arg
         $ backend $ domains_arg $ engine_arg))

(* --- prof --------------------------------------------------------------- *)

(* Profile a miniature app (by suite name) or a CUDA source file on every
   framework it can run on, printing an nvprof-style report per run.
   Profiling both sides is what makes the paper's §6 mechanisms visible:
   FT's bank-conflict replays appear only in the 32-bit addressing rows,
   cfd's occupancy drops from 0.469 to 0.375 under the CUDA register
   allocator, and deviceQuery's wrapper amplification shows up as one
   cudaGetDeviceProperties span enclosing seven clGetDeviceInfo calls. *)
let prof_cmd =
  let target =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"TARGET"
             ~doc:"A CUDA source file (.cu), or the name of a miniature \
                   benchmark from the built-in suites (e.g. $(b,FT), \
                   $(b,cfd), $(b,deviceQuery))")
  in
  let device config target = Bridge.Framework.device_of ~config target in
  let profile_cuda_src config label src =
    let native, nat_outcome =
      traced_run (label ^ " @ CUDA/Titan") (fun () ->
          Bridge.Framework.run_cuda_native ~dev:(device config Titan_cuda) src)
    in
    (match nat_outcome with Error e -> raise e | Ok _ -> ());
    match Bridge.Framework.translate_cuda ~attribute:config.attribute src with
    | Failed findings ->
      List.iter
        (fun f ->
           Printf.eprintf "untranslatable: %s [%s]\n"
             f.Xlat.Feature.f_construct
             (Xlat.Feature.category_name f.Xlat.Feature.f_category))
        findings;
      [ native ]
    | Translated result ->
      let translated, tr_outcome =
        traced_run (label ^ " @ OpenCL/Titan (translated)") (fun () ->
            Bridge.Framework.run_translated_cuda
              ~dev:(device config Titan_opencl) result)
      in
      (match tr_outcome with Error e -> raise e | Ok _ -> ());
      [ native; translated ]
  in
  let profile_ocl_app config (app : Bridge.Framework.ocl_app) =
    let native, nat_outcome =
      traced_run
        (app.Bridge.Framework.oa_name ^ " @ OpenCL/Titan")
        (fun () ->
           Bridge.Framework.run_app_native app ~dev:(device config Titan_opencl) ())
    in
    (match nat_outcome with Error e -> raise e | Ok _ -> ());
    let wrapped, wrap_outcome =
      traced_run
        (app.Bridge.Framework.oa_name ^ " @ CUDA/Titan (wrapped)")
        (fun () ->
           Bridge.Framework.run_app_on_cuda app ~dev:(device config Titan_cuda) ())
    in
    (match wrap_outcome with Error e -> raise e | Ok _ -> ());
    [ native; wrapped ]
  in
  let diff_arg =
    Arg.(value & flag
         & info [ "diff" ]
             ~doc:"Print a translation cost diff: run the target natively \
                   and translated with $(b,--attribute) on, align the two \
                   per-site tables by origin site id (annotation is \
                   deterministic, so both sides number the same statements \
                   identically), and show the per-site deltas plus the \
                   translator-injected code's share (site 0).  Implies \
                   $(b,--attribute)")
  in
  let run target attribute diff trace csv =
    catching_sys_error @@ fun () ->
    let config =
      { (Gpusim.Config.default ()) with attribute = attribute || diff }
    in
    let runs =
      if Sys.file_exists target && not (Sys.is_directory target) then begin
        if not (ends_with ~suffix:".cu" target) then
          failwith "prof: only CUDA (.cu) source files can be profiled";
        Some
          (profile_cuda_src config (Filename.basename target) (read_file target))
      end
      else
        match
          List.find_opt
            (fun (c : Suite.Registry.cuda_app) -> c.cu_name = target)
            Suite.Registry.all_cuda
        with
        | Some c -> Some (profile_cuda_src config c.cu_name c.cu_src)
        | None ->
          (match
             List.find_opt
               (fun (a : Bridge.Framework.ocl_app) ->
                  a.Bridge.Framework.oa_name = target)
               Suite.Registry.all_opencl
           with
           | Some a -> Some (profile_ocl_app config a)
           | None -> None)
    in
    Trace.Sink.disable ();
    match runs with
    | None ->
      `Error
        ( false,
          Printf.sprintf
            "no file or miniature benchmark named %S (try: oclcu prof FT)"
            target )
    | Some runs ->
      List.iteri
        (fun i tr ->
           if i > 0 then print_newline ();
           print_profile ~config tr)
        runs;
      (* --diff: the first run is always the native side and the second,
         when present, the translated (or wrapped) one *)
      (if diff then
         match runs with
         | [ native; translated ] ->
           print_newline ();
           print_string
             (Trace.Summary.diff_to_string ~native:native.tr_metrics
                ~translated:translated.tr_metrics)
         | _ ->
           print_newline ();
           print_endline
             "--diff: nothing to compare (the translated run is missing)");
      (match
         List.filter
           (fun (_, hits, misses) -> hits + misses > 0)
           (Trace.Build_cache.all_stats ())
       with
       | [] -> ()
       | used ->
         print_newline ();
         print_endline "==  Build caches";
         List.iter
           (fun (name, hits, misses) ->
              Printf.printf "%-28s %d hit(s), %d miss(es)\n" name hits misses)
           used);
      (match trace with
       | Some path ->
         Trace.Chrome.write_file path
           ~metrics:(chrome_metrics runs)
           (chrome_runs runs);
         Printf.printf "\nwrote %s (%d spans)\n" path
           (List.fold_left (fun a tr -> a + List.length tr.tr_spans) 0 runs)
       | None -> ());
      (match csv with
       | Some path ->
         let ms = List.concat_map (fun tr -> tr.tr_metrics) runs in
         Trace.Csv_export.write_file path ms;
         Printf.printf "wrote %s (%d launches)\n" path (List.length ms)
       | None -> ());
      `Ok ()
  in
  Cmd.v
    (Cmd.info "prof"
       ~doc:"Profile a program or miniature benchmark on every framework \
             it runs on (nvprof-style summary, per-kernel metrics, wrapper \
             amplification; $(b,--attribute) adds a per-site hot-spot table \
             and $(b,--diff) a native-vs-translated cost diff aligned by \
             source site)")
    Term.(ret (const run $ target $ attribute_arg $ diff_arg $ trace_arg
               $ csv_arg))

(* --- fuzz --------------------------------------------------------------- *)

let fuzz_cmd =
  let seed =
    Arg.(value & opt int 42
         & info [ "seed" ] ~docv:"N" ~doc:"Campaign seed; case $(i,i) is \
                                           derived from (seed, i) alone.")
  in
  let count =
    Arg.(value & opt int 200
         & info [ "count" ] ~docv:"N" ~doc:"Number of kernels to generate.")
  in
  let time =
    Arg.(value & opt (some float) None
         & info [ "time" ] ~docv:"S" ~doc:"Stop after $(docv) seconds even \
                                           if --count is not reached.")
  in
  let out =
    Arg.(value & opt string "_fuzz"
         & info [ "out" ] ~docv:"DIR" ~doc:"Directory for minimal repros.")
  in
  let replay =
    Arg.(value & opt (some dir) None
         & info [ "replay" ] ~docv:"DIR"
             ~doc:"Re-run a previously written repro directory instead of \
                   fuzzing; exits 1 while the divergence still reproduces.")
  in
  let run seed count time out replay =
    catching_sys_error @@ fun () ->
    match replay with
    | Some dir ->
      if Fuzz.Driver.replay ~log:print_endline dir then
        `Error (false, "repro still diverges")
      else `Ok ()
    | None ->
      let stats =
        Fuzz.Driver.run ~out_dir:out ?time_budget:time ~log:print_endline
          ~seed ~count ()
      in
      print_endline (Fuzz.Driver.summary stats);
      if stats.Fuzz.Driver.divergent > 0 then begin
        Printf.printf "minimal repros under %s:\n" out;
        List.iter (Printf.printf "  %s\n") stats.Fuzz.Driver.repro_dirs;
        `Error (false, "divergences found")
      end
      else `Ok ()
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:"Differential conformance fuzzing: random Mini-C kernels are \
             round-tripped through both translators and executed under both \
             backends; any divergence is shrunk to a minimal repro.")
    Term.(ret (const run $ seed $ count $ time $ out $ replay))

(* --- validate-sweep ----------------------------------------------------- *)

let validate_sweep_cmd =
  let direction =
    Arg.(value & opt (enum [ ("both", `Both); ("ocl", `Ocl); ("cuda", `Cuda) ])
           `Both
         & info [ "direction" ] ~docv:"DIR"
             ~doc:"Which translation direction(s) to sweep: $(b,ocl) \
                   (OpenCL->CUDA over the captured suite kernels), $(b,cuda) \
                   (CUDA->OpenCL), or $(b,both)")
  in
  let limit =
    Arg.(value & opt (some int) None
         & info [ "limit" ] ~docv:"N"
             ~doc:"Only sweep the first $(docv) applications per direction")
  in
  let run direction limit =
    let checked = ref 0 and unsupported = ref 0 and diverged = ref 0 in
    let tally outcomes =
      List.iter
        (fun (name, outcome) ->
           match outcome with
           | Xlat_validate.Layered.Unsupported why ->
             incr unsupported;
             Printf.printf "    kernel %-24s unsupported (%s)\n" name why
           | Xlat_validate.Layered.Checked r ->
             incr checked;
             (match r.Xlat_validate.Layered.rp_diverged with
              | None -> ()
              | Some (l, site) ->
                incr diverged;
                Printf.printf "    kernel %-24s DIVERGES %s: %s\n" name
                  (Xlat_validate.Layered.layer_name l) site))
        outcomes
    in
    let take l =
      match limit with
      | None -> l
      | Some n -> List.filteri (fun i _ -> i < n) l
    in
    if direction <> `Cuda then begin
      print_endline "== OpenCL -> CUDA (captured suite kernels) ==";
      List.iter
        (fun (app : Bridge.Framework.ocl_app) ->
           let srcs = Suite.Capture.kernel_sources app in
           Printf.printf "  %s/%s (%d program(s))\n" app.oa_suite app.oa_name
             (List.length srcs);
           List.iter
             (fun src ->
                match Xlat_validate.Layered.check_opencl_source src with
                | Error why -> Printf.printf "    skipped: %s\n" why
                | Ok outcomes -> tally outcomes)
             srcs)
        (take Suite.Registry.all_opencl)
    end;
    if direction <> `Ocl then begin
      print_endline "== CUDA -> OpenCL (suite sources) ==";
      List.iter
        (fun (c : Suite.Registry.cuda_app) ->
           if c.cu_expect_translatable then begin
             Printf.printf "  %s/%s\n" c.cu_suite c.cu_name;
             match Xlat_validate.Layered.check_cuda_source c.cu_src with
             | Error why -> Printf.printf "    skipped: %s\n" why
             | Ok outcomes -> tally outcomes
           end)
        (take Suite.Registry.all_cuda)
    end;
    Printf.printf
      "swept %d kernel(s): %d equivalent at every layer, %d unsupported, \
       %d divergent\n"
      (!checked + !unsupported) !checked !unsupported !diverged;
    if !diverged > 0 then
      `Error (false, Printf.sprintf "%d kernel(s) diverge" !diverged)
    else `Ok ()
  in
  Cmd.v
    (Cmd.info "validate-sweep"
       ~doc:"Run the layered translation validator (L0-L3) over the whole \
             benchmark suite in both translation directions; fails on any \
             divergence")
    Term.(ret (const run $ direction $ limit))

(* --- devices ------------------------------------------------------------ *)

let devices_cmd =
  let run () =
    List.iter
      (fun (name, hw, fw) ->
         let hw : Gpusim.Device.hw = hw in
         let fw : Gpusim.Device.framework = fw in
         Printf.printf "%-14s %-28s %s (smem word %d bytes)\n" name
           hw.hw_name fw.fw_name fw.smem_word)
      [ ("titan-cuda", Gpusim.Device.titan, Gpusim.Device.cuda_on_nvidia);
        ("titan-opencl", Gpusim.Device.titan, Gpusim.Device.opencl_on_nvidia);
        ("amd-opencl", Gpusim.Device.hd7970, Gpusim.Device.opencl_on_amd) ]
  in
  Cmd.v (Cmd.info "devices" ~doc:"List the simulated devices") Term.(const run $ const ())

let () =
  let info =
    Cmd.info "oclcu" ~version:"1.0.0"
      ~doc:"Bidirectional OpenCL/CUDA translation framework (SC '15 reproduction)"
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [ translate_cmd; check_cmd; analyze_cmd; run_cmd; prof_cmd; fuzz_cmd;
            validate_sweep_cmd; devices_cmd ]))
