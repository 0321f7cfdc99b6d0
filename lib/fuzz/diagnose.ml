(* Layer diagnosis of a divergent case.

   Once the driver has shrunk a repro, the layered translation validator
   re-checks the pyramid's own stage-A and stage-B plans (the generated
   kernel and its CUDA translation, with the buffers and scalars the
   pyramid launched them with) at the case's geometry, and the
   divergence is attributed to the lowest semantic layer that introduces
   it (L0 arithmetic, L1 +local memory, L2 +global memory, L3
   +scheduling).  The verdict ships with the repro so a triager knows
   which layer to look at before reading any code. *)

module Layered = Xlat_validate.Layered

(* The validator's configuration for [case]: its NDRange. *)
let cfg (case : Gen.case) =
  { Layered.default_cfg with
    vc_gws = case.Gen.c_gws; vc_lws = case.Gen.c_lws }

(* The (source, translation) plans the validator checks: the pyramid's
   stage A and stage B, or why they cannot be built. *)
let plans (case : Gen.case) =
  match Pyramid.plans case with
  | Ok p -> Ok p
  | Error (Pyramid.Skip why) -> Error why
  | Error (Pyramid.Diverge d) -> Error d.Pyramid.d_detail
  | Error Pyramid.Agree -> Error "no plans"
  | exception e -> Error (Printexc.to_string e)

(* (verdict, site): verdict is "equivalent", "L0".."L3", or
   "unsupported"; site is the divergence location or the skip reason. *)
let layer_verdict ?config (case : Gen.case) : string * string =
  match plans case with
  | Error why -> ("unsupported", why)
  | Ok (src, dst) ->
    let r = Layered.check_plans ?config ~cfg:(cfg case) ~src ~dst () in
    (match r.Layered.rp_diverged with
     | None -> ("equivalent", "")
     | Some (l, site) -> (Layered.layer_name l, site))
