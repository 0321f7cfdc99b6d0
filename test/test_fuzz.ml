(* Differential conformance fuzzer: smoke, round-trip, shrinker and
   repro-persistence tests.  The smoke run is the tier-1 guarantee that
   [count] deterministic seeds produce zero unshrunk divergences across
   the six-way pyramid (3 translation stages x 2 VM backends). *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

let tmp_dir name =
  let dir = Filename.concat (Filename.get_temp_dir_name ()) name in
  if Sys.file_exists dir then
    Array.iter
      (fun sub ->
         let d = Filename.concat dir sub in
         if Sys.is_directory d then
           Array.iter (fun f -> Sys.remove (Filename.concat d f))
             (Sys.readdir d);
         if Sys.file_exists d && Sys.is_directory d then Sys.rmdir d
         else if Sys.file_exists d then Sys.remove d)
      (Sys.readdir dir);
  dir

(* --- deterministic fuzz smoke: >=100 kernels, zero divergences ------- *)

let smoke_tests =
  [ Alcotest.test_case "120-case deterministic smoke (seed 7)" `Slow
      (fun () ->
         let stats =
           Fuzz.Driver.run ~out_dir:(tmp_dir "oclcu-fuzz-smoke") ~seed:7
             ~count:120 ()
         in
         check_int "all cases executed" 120 stats.Fuzz.Driver.total;
         check_int "zero divergences" 0 stats.Fuzz.Driver.divergent;
         check "mostly runnable" true (stats.Fuzz.Driver.agreed >= 110);
         (* the generator must keep exercising the paper's §5 features *)
         let cov = stats.Fuzz.Driver.coverage in
         check "vector coverage" true (cov.Fuzz.Gen.cov_vectors > 50);
         check "swizzle coverage" true (cov.Fuzz.Gen.cov_swizzles > 30);
         check "barrier coverage" true (cov.Fuzz.Gen.cov_barriers > 20);
         check "atomic coverage" true (cov.Fuzz.Gen.cov_atomics > 10);
         check "local-memory coverage" true
           (cov.Fuzz.Gen.cov_dyn_local + cov.Fuzz.Gen.cov_static_local > 20));
    Alcotest.test_case "campaign is deterministic per (seed, index)" `Quick
      (fun () ->
         for i = 0 to 9 do
           let a = Fuzz.Gen.source (Fuzz.Driver.case_of ~seed:42 i) in
           let b = Fuzz.Gen.source (Fuzz.Driver.case_of ~seed:42 i) in
           check_str (Printf.sprintf "case %d stable" i) a b
         done;
         let a = Fuzz.Gen.source (Fuzz.Driver.case_of ~seed:1 0) in
         let b = Fuzz.Gen.source (Fuzz.Driver.case_of ~seed:2 0) in
         check "different seeds differ" true (a <> b))
  ]

(* --- satellite: pretty-print -> re-parse round trip ------------------ *)

let prop_print_parse_roundtrip =
  QCheck.Test.make ~count:100 ~name:"print->parse->print is a fixpoint"
    QCheck.(int_range 0 100_000)
    (fun seed ->
       let case = Fuzz.Gen.generate (Fuzz.Rng.create seed) in
       let src = Fuzz.Gen.source case in
       match Minic.Parser.program ~dialect:Minic.Parser.OpenCL src with
       | exception Minic.Parser.Error (e, line) ->
         QCheck.Test.fail_reportf "re-parse failed at line %d: %s" line e
       | prog ->
         let src' = Minic.Pretty.program_str Minic.Pretty.OpenCL prog in
         if String.equal src src' then true
         else QCheck.Test.fail_reportf "not a fixpoint:\n%s\n-- vs --\n%s"
                src src')

let prop_translation_roundtrip_parses =
  QCheck.Test.make ~count:60 ~name:"generated kernels survive OCL->CUDA->OCL"
    QCheck.(int_range 0 100_000)
    (fun seed ->
       let case = Fuzz.Gen.generate (Fuzz.Rng.create seed) in
       let r = Xlat.Ocl_to_cuda.translate case.Fuzz.Gen.c_prog in
       let cuda_src =
         Minic.Pretty.program_str Minic.Pretty.Cuda r.Xlat.Ocl_to_cuda.cuda_prog
       in
       match Minic.Parser.program ~dialect:Minic.Parser.Cuda cuda_src with
       | exception Minic.Parser.Error (e, line) ->
         QCheck.Test.fail_reportf "CUDA re-parse failed at line %d: %s" line e
       | cuda_prog ->
         let b = Xlat.Cuda_to_ocl.translate cuda_prog in
         let ocl_src =
           Minic.Pretty.program_str Minic.Pretty.OpenCL
             b.Xlat.Cuda_to_ocl.cl_prog
         in
         (match Minic.Parser.program ~dialect:Minic.Parser.OpenCL ocl_src with
          | _ -> true
          | exception Minic.Parser.Error (e, line) ->
            QCheck.Test.fail_reportf "round-trip re-parse failed at line %d: %s\n%s"
              line e ocl_src))

(* --- shrinker --------------------------------------------------------- *)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let shrink_tests =
  [ Alcotest.test_case "shrinker minimizes while preserving the predicate"
      `Quick
      (fun () ->
         (* find a generated case that uses an atomic, then shrink under
            the predicate "still contains an atomic call" *)
         let rec find i =
           if i > 500 then Alcotest.fail "no atomic case in 500 seeds"
           else
             let c = Fuzz.Gen.generate (Fuzz.Rng.create i) in
             if
               contains (Fuzz.Gen.source c) "atomic"
               && Fuzz.Shrink.count_stmts c.Fuzz.Gen.c_prog > 6
             then c
             else find (i + 1)
         in
         let case = find 0 in
         let interesting cand = contains (Fuzz.Gen.source cand) "atomic" in
         let before = Fuzz.Shrink.count_stmts case.Fuzz.Gen.c_prog in
         let small, attempts = Fuzz.Shrink.minimize ~interesting case in
         let after = Fuzz.Shrink.count_stmts small.Fuzz.Gen.c_prog in
         check "attempts counted" true (attempts > 0);
         check "still interesting" true (interesting small);
         check
           (Printf.sprintf "shrunk %d -> %d statements" before after)
           true (after < before));
    Alcotest.test_case "shrunk NDRange stays launchable" `Quick
      (fun () ->
         let case = Fuzz.Gen.generate (Fuzz.Rng.create 3) in
         let small, _ = Fuzz.Shrink.minimize ~interesting:(fun _ -> true) case in
         check "gws > 0" true (small.Fuzz.Gen.c_gws > 0);
         check "lws divides gws"
           true (small.Fuzz.Gen.c_gws mod small.Fuzz.Gen.c_lws = 0);
         check "elems >= gws" true
           (small.Fuzz.Gen.c_elems >= small.Fuzz.Gen.c_gws))
  ]

(* --- repro persistence / replay --------------------------------------- *)

module Plan = Xlat_validate.Plan

(* The pyramid's stage-A plan of [case], built from its printed source. *)
let stage_a case =
  Fuzz.Pyramid.plan_a case
    (Minic.Parser.program ~dialect:Minic.Parser.OpenCL (Fuzz.Gen.source case))

let initial_bytes (p : Plan.t) =
  String.concat ""
    (List.filter_map
       (function Plan.Buf (_, b) -> Some b | _ -> None)
       p.Plan.args)

let repro_tests =
  [ Alcotest.test_case "repro write/load round-trips the case" `Quick
      (fun () ->
         let case = Fuzz.Gen.generate (Fuzz.Rng.create 11) in
         let d =
           { Fuzz.Pyramid.d_stage = "B:ocl->cuda";
             d_kind = Fuzz.Pyramid.K_bytes;
             d_detail = "buffer out differs at byte 0" }
         in
         let dir =
           Fuzz.Repro.write ~out_dir:(tmp_dir "oclcu-fuzz-repro")
             ~name:"unit" ~config:(Gpusim.Config.default ()) ~case ~d
             ~layer:("L2", "work-item 1, event 7") ~seed:11 ~index:0
         in
         (* repros written while lockstep region fusion was a toggle
            carry a [fusion=] line; they must still load and replay *)
         let config = Filename.concat dir "config" in
         Fuzz.Repro.write_file config
           (Fuzz.Repro.read_file config ^ "fusion=1\n");
         let case' = Fuzz.Repro.load dir in
         let verdict, site = Fuzz.Repro.layer dir in
         check_str "layer verdict stored" "L2" verdict;
         check_str "layer site stored" "work-item 1, event 7" site;
         check_str "program preserved" (Fuzz.Gen.source case)
           (Fuzz.Gen.source case');
         check_int "gws" case.Fuzz.Gen.c_gws case'.Fuzz.Gen.c_gws;
         check_int "lws" case.Fuzz.Gen.c_lws case'.Fuzz.Gen.c_lws;
         check_int "elems" case.Fuzz.Gen.c_elems case'.Fuzz.Gen.c_elems;
         check_int "init_seed" case.Fuzz.Gen.c_init_seed
           case'.Fuzz.Gen.c_init_seed;
         (* a healthy translator means the replay no longer diverges *)
         check "replay agrees" false (Fuzz.Driver.replay dir));
    Alcotest.test_case "repro replays under its recorded configuration"
      `Quick (fun () ->
          let case = Fuzz.Gen.generate (Fuzz.Rng.create 11) in
          let d =
            { Fuzz.Pyramid.d_stage = "lockstep-4";
              d_kind = Fuzz.Pyramid.K_counters;
              d_detail = "lockstep-4 vs scalar: barriers 2/1" }
          in
          let default = Gpusim.Config.default () in
          let config =
            { default with
              engine = Lockstep;
              domains = default.domains + 2;
              passes = Ir.Pipeline.none }
          in
          let dir =
            Fuzz.Repro.write ~out_dir:(tmp_dir "oclcu-fuzz-repro")
              ~name:"config" ~config ~case ~d ~layer:("equivalent", "")
              ~seed:11 ~index:1
          in
          check "config round-trips" true (Fuzz.Repro.config dir = config);
          let log = ref [] in
          check "replay agrees" false
            (Fuzz.Driver.replay ~log:(fun l -> log := l :: !log) dir);
          check "replay runs under it" true
            (List.mem
               ("replay: configuration: " ^ Gpusim.Config.to_string config)
               !log);
          (* a repro from before the configuration was stored keeps only
             its pass set; its [engine] key named the diverging stage *)
          Fuzz.Repro.write_file (Filename.concat dir "config")
            "gws=64\nlws=8\nelems=64\ninit_seed=3\npasses=none\n\
             engine=lockstep\nstage=lockstep\n";
          check "old repro: defaults and its passes" true
            (Fuzz.Repro.config dir
             = { default with passes = Ir.Pipeline.none }));
    Alcotest.test_case "diagnosis of a healthy case reads equivalent" `Quick
      (fun () ->
         let case = Fuzz.Gen.generate (Fuzz.Rng.create 5) in
         let verdict, _site = Fuzz.Diagnose.layer_verdict case in
         (* generated kernels may trip an Unsupported corner, but a
            diagnosed one must never read as a divergence *)
         check "not a layer verdict" false
           (List.mem verdict [ "L0"; "L1"; "L2"; "L3" ]));
    Alcotest.test_case "stage-A initial bytes are pinned (seed 42)" `Quick
      (fun () ->
         (* stored repros keep only [init_seed]; these digests pin the
            bytes a replay regenerates from it *)
         List.iter
           (fun (index, digest) ->
              let a = stage_a (Fuzz.Driver.case_of ~seed:42 index) in
              check_str (Printf.sprintf "case %d" index) digest
                (Digest.to_hex (Digest.string (initial_bytes a))))
           [ (0, "bf3eef2f52f388d64b5f292e9862ebc0");
             (2, "bd6a453d03e9607d64226e2cf0db61c5");
             (15, "c7d6fa6c5304c34c3a42125fd9cf854d");
             (24, "dc59ec3aa86228ab1fe48b1140a99a19") ]);
    Alcotest.test_case "diagnosis validates the pyramid's stage-A/B plans"
      `Quick (fun () ->
          (* seed-42 cases whose NDRange is narrower than their buffers:
             a validator launch of its own would pass n = elems *)
          List.iter
            (fun index ->
               let case = Fuzz.Driver.case_of ~seed:42 index in
               let name = Printf.sprintf "case %d" index in
               check (name ^ ": gws < elems") true
                 (case.Fuzz.Gen.c_gws < case.Fuzz.Gen.c_elems);
               let a, b =
                 match Fuzz.Diagnose.plans case with
                 | Ok p -> p
                 | Error why -> Alcotest.failf "%s: %s" name why
               in
               let pyramid_a = stage_a case in
               check (name ^ ": stage-A arguments") true
                 (a.Plan.args = pyramid_a.Plan.args);
               check (name ^ ": n = gws") true
                 (List.for_all
                    (function Plan.Int n -> n = case.Fuzz.Gen.c_gws | _ -> true)
                    a.Plan.args);
               check_str (name ^ ": stage B carries stage A's bytes")
                 (initial_bytes a) (initial_bytes b);
               let pyramid_out =
                 match
                   Fuzz.Pyramid.run_stage ~stage:"opencl"
                     ~config:(Gpusim.Config.default ()) case pyramid_a
                     ~reference:None
                 with
                 | Ok (bytes, _) -> bytes
                 | Error d ->
                   Alcotest.failf "%s: %s" name d.Fuzz.Pyramid.d_detail
               in
               let l3 =
                 Xlat_validate.Layered.run_side ~cfg:(Fuzz.Diagnose.cfg case)
                   ~layer:Xlat_validate.Layered.L3 a
               in
               check_str (name ^ ": validator L3 buffers = pyramid stage A")
                 pyramid_out
                 (String.concat "" l3.Xlat_validate.Layered.rr_finals);
               check_str (name ^ ": verdict") "equivalent"
                 (fst (Fuzz.Diagnose.layer_verdict case)))
            [ 2; 15; 24 ])
  ]

let suites =
  [ ("fuzz.smoke", smoke_tests);
    ( "fuzz.roundtrip",
      [ QCheck_alcotest.to_alcotest prop_print_parse_roundtrip;
        QCheck_alcotest.to_alcotest prop_translation_roundtrip_parses ] );
    ("fuzz.shrink", shrink_tests);
    ("fuzz.repro", repro_tests) ]
