(* The committed correctness oracle (reference.json).

   One entry per operation id holding what a correct run must observe:
   simulated nanoseconds and output digests of every run configuration,
   native-vs-translated agreement, Table-3 verdicts, translated-source
   digests, IR/lockstep census and, for operations that launch kernels,
   the simulator's per-configuration counts.  [--promote] regenerates it
   after checking that the entries are identical at one and two domains
   and under the lockstep engine. *)

module J = Trace.Json

let default_path = "bench/e2e/reference.json"
let schema = "oclcu-bench-e2e-reference/1"

type t = { ops : (string * J.t) list; tbl : (string, J.t) Hashtbl.t }

let of_ops ops =
  let tbl = Hashtbl.create 256 in
  List.iter (fun (k, v) -> Hashtbl.replace tbl k v) ops;
  { ops; tbl }

let read_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let load path =
  let doc = J.of_string (read_file path) in
  if J.member "schema" doc <> Some (J.Str schema) then
    failwith (path ^ ": not a " ^ schema ^ " document");
  match J.member "ops" doc with
  | Some (J.Obj ops) -> of_ops ops
  | _ -> failwith (path ^ ": no ops object")

let save path ~verified t =
  let doc =
    J.Obj
      [ ("schema", J.Str schema);
        ("verified_configs", J.List (List.map (fun s -> J.Str s) verified));
        ("ops", J.Obj t.ops) ]
  in
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (J.to_string_pretty doc))

let find t id = Hashtbl.find_opt t.tbl id

(* Observations go through print+parse so they compare exactly like
   values read back from the committed file. *)
let normalise v = J.of_string (J.to_string v)

(* First difference between [expected] and [got], as "path: a vs b". *)
let rec diff path expected got =
  match expected, got with
  | J.Obj e, J.Obj g ->
    let keys = List.sort_uniq compare (List.map fst e @ List.map fst g) in
    List.find_map
      (fun k ->
         let sub = if path = "" then k else path ^ "." ^ k in
         match List.assoc_opt k e, List.assoc_opt k g with
         | Some a, Some b -> diff sub a b
         | Some _, None -> Some (sub ^ ": missing")
         | None, Some _ -> Some (sub ^ ": unexpected")
         | None, None -> None)
      keys
  | _ ->
    if expected = got then None
    else Some (Printf.sprintf "%s: expected %s, got %s" path
                 (J.to_string expected) (J.to_string got))

(* Check one observation.  [counts] is only compared when the pass
   harvested it (the traced pass); every other field always is. *)
let check t id (obs : (string * J.t) list) =
  match find t id with
  | None -> Error "no oracle entry (run --promote)"
  | Some (J.Obj fields) ->
    let expected =
      if List.mem_assoc "counts" obs then fields
      else List.remove_assoc "counts" fields
    in
    (match diff "" (J.Obj expected) (normalise (J.Obj obs)) with
     | None -> Ok ()
     | Some d -> Error d)
  | Some _ -> Error "malformed oracle entry"

let int_at path v =
  let rec go v = function
    | [] -> (match v with J.Int n -> Some n | _ -> None)
    | k :: rest -> Option.bind (J.member k v) (fun v -> go v rest)
  in
  go v path

(* Native kernel launches of an operation that runs apps. *)
let native_launches t id =
  Option.bind (find t id) (int_at [ "counts"; "native"; "launches" ])

(* Relative cost used to pick the smoke operations: simulated ops for
   app runs, source bytes for the front-end corpus. *)
let cost t id =
  match find t id with
  | None -> max_int
  | Some e ->
    (match int_at [ "bytes" ] e with
     | Some b -> b
     | None ->
       List.fold_left
         (fun a k ->
            a + Option.value ~default:0 (int_at [ "counts"; k; "sim_ops" ] e))
         0 [ "native"; "on_cuda"; "on_ocl" ])
