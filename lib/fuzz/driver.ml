(* The fuzz campaign driver: generate -> pyramid -> shrink -> persist.

   Case [i] of a campaign with seed [s] is derived from the stream
   [Rng.create (s * 1_000_003 + i)], so any individual case can be
   regenerated without replaying the campaign prefix. *)

type stats = {
  mutable total : int;
  mutable agreed : int;
  mutable skipped : int;
  mutable divergent : int;
  mutable shrink_attempts : int;
  mutable repro_dirs : string list;
  coverage : Gen.coverage;
}

let make_stats () =
  { total = 0; agreed = 0; skipped = 0; divergent = 0; shrink_attempts = 0;
    repro_dirs = []; coverage = Gen.empty_coverage () }

let case_of ~seed index = Gen.generate (Rng.create ((seed * 1_000_003) + index))

let source_lines c =
  List.length (String.split_on_char '\n' (String.trim (Gen.source c)))

(* Shrink [case] while [Pyramid.run] keeps reporting the same divergence. *)
let shrink ~config ~(d : Pyramid.divergence) (case : Gen.case) :
  Gen.case * int =
  let interesting cand =
    match Pyramid.run ~config cand with
    | Pyramid.Diverge d' -> Pyramid.same_divergence d d'
    | _ -> false
  in
  Shrink.minimize ~interesting case

(* Run a fuzzing campaign.  [count] bounds the number of cases,
   [time_budget] (seconds, optional) additionally bounds wall time.
   [log] receives human-readable progress lines.  Every pyramid runs
   under the process defaults, which a repro records. *)
let run ?(out_dir = "_fuzz") ?time_budget ?(log = fun _ -> ()) ~seed ~count ()
  : stats =
  let config = Gpusim.Config.default () in
  let stats = make_stats () in
  let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9 in
  let t0 = now () in
  let budget_left () =
    match time_budget with
    | None -> true
    | Some s -> now () -. t0 < s
  in
  let i = ref 0 in
  while !i < count && budget_left () do
    let index = !i in
    incr i;
    let case = case_of ~seed index in
    stats.total <- stats.total + 1;
    Gen.observe stats.coverage case;
    match Pyramid.run ~config case with
    | Pyramid.Agree -> stats.agreed <- stats.agreed + 1
    | Pyramid.Skip reason ->
      stats.skipped <- stats.skipped + 1;
      log (Printf.sprintf "case %d: skipped (%s)" index reason)
    | Pyramid.Diverge d ->
      stats.divergent <- stats.divergent + 1;
      log
        (Printf.sprintf "case %d: DIVERGENCE at stage %s (%s): %s" index
           d.Pyramid.d_stage
           (Pyramid.kind_name d.Pyramid.d_kind)
           d.Pyramid.d_detail);
      let small, attempts = shrink ~config ~d case in
      stats.shrink_attempts <- stats.shrink_attempts + attempts;
      log
        (Printf.sprintf "case %d: shrunk %d -> %d lines in %d attempts" index
           (source_lines case) (source_lines small) attempts);
      let layer = Diagnose.layer_verdict ~config small in
      log
        (Printf.sprintf "case %d: layer diagnosis: %s%s" index (fst layer)
           (if snd layer = "" then "" else " (" ^ snd layer ^ ")"));
      if List.length stats.repro_dirs < 8 then begin
        let name = Printf.sprintf "seed%d-case%d" seed index in
        let dir =
          Repro.write ~out_dir ~name ~config ~case:small ~d ~layer ~seed
            ~index
        in
        stats.repro_dirs <- dir :: stats.repro_dirs;
        log (Printf.sprintf "case %d: minimal repro written to %s" index dir)
      end
  done;
  stats.repro_dirs <- List.rev stats.repro_dirs;
  stats

let summary (s : stats) =
  let cov = s.coverage in
  Printf.sprintf
    "fuzz: %d cases — %d agree, %d skipped, %d divergent\n\
     coverage: vectors %d, swizzles %d, barriers %d, atomics %d, \
     dynamic-local %d, static-local %d, helper-fns %d"
    s.total s.agreed s.skipped s.divergent cov.Gen.cov_vectors
    cov.Gen.cov_swizzles cov.Gen.cov_barriers cov.Gen.cov_atomics
    cov.Gen.cov_dyn_local cov.Gen.cov_static_local cov.Gen.cov_helpers

(* Replay a persisted repro directory; returns true when it still
   diverges (i.e. the bug is still present). *)
let replay ?(log = fun _ -> ()) dir : bool =
  let case = Repro.load dir in
  let layer_verdict, layer_site = Repro.layer dir in
  log
    (Printf.sprintf "replay: stored layer verdict: %s%s" layer_verdict
       (if layer_site = "" then "" else " (" ^ layer_site ^ ")"));
  (* re-run under the configuration the divergence was found under, so
     pass-, engine- and domain-dependent divergences reproduce *)
  let config = Repro.config dir in
  log ("replay: configuration: " ^ Gpusim.Config.to_string config);
  match Pyramid.run ~config case with
  | Pyramid.Agree -> log "replay: all pyramid executions agree"; false
  | Pyramid.Skip reason -> log ("replay: skipped (" ^ reason ^ ")"); false
  | Pyramid.Diverge d ->
    log
      (Printf.sprintf "replay: divergence at stage %s (%s): %s"
         d.Pyramid.d_stage
         (Pyramid.kind_name d.Pyramid.d_kind)
         d.Pyramid.d_detail);
    true
