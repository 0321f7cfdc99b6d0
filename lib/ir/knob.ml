(* The OCLCU_* environment knobs, all read one way: the value is
   trimmed, and one that does not parse is reported on stderr, naming
   the variable, while the default stays.  A typo in a CI leg then shows
   instead of silently testing the default. *)

(* The knob's value for the raw setting, and the report of a malformed
   one. *)
let parse name conv ~default = function
  | None -> (default, None)
  | Some raw ->
    (match conv (String.trim raw) with
     | Some v -> (v, None)
     | None ->
       (default,
        Some (Printf.sprintf "oclcu: malformed %s=%S; keeping the default" name raw)))

let read name conv ~default =
  let v, report = parse name conv ~default (Sys.getenv_opt name) in
  Option.iter prerr_endline report;
  v
