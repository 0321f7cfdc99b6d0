(* Minimal-repro persistence.

   A divergence is written to [<out>/<name>/] as three files:

     kernel.cl   the (shrunk) OpenCL kernel, exactly as executed
     config      key=value launch configuration + divergence metadata
     README.md   the replay command and a one-line explanation

   Buffer contents are not stored: they are regenerated deterministically
   from [init_seed], so the three files are a complete reproduction. *)

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let ensure_dir dir =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755

let config_str (c : Gen.case) extra =
  String.concat ""
    (List.map
       (fun (k, v) -> Printf.sprintf "%s=%s\n" k v)
       ([ ("gws", string_of_int c.Gen.c_gws);
          ("lws", string_of_int c.Gen.c_lws);
          ("elems", string_of_int c.Gen.c_elems);
          ("init_seed", string_of_int c.Gen.c_init_seed) ]
        @ extra))

(* Which execution engine exposed the divergence: lockstep-stage bugs
   only reproduce with the warp engine enabled, so the repro records it
   and [--replay] reports it. *)
let divergence_engine (d : Pyramid.divergence) =
  if String.length d.Pyramid.d_stage >= 8
     && String.sub d.Pyramid.d_stage 0 8 = "lockstep"
  then "lockstep"
  else "scalar"

let write ~out_dir ~name ~(case : Gen.case) ~(d : Pyramid.divergence)
    ~(layer : string * string) ~seed ~index : string =
  ensure_dir out_dir;
  let dir = Filename.concat out_dir name in
  ensure_dir dir;
  let src = Gen.source case in
  let layer_verdict, layer_site = layer in
  write_file (Filename.concat dir "kernel.cl") src;
  write_file (Filename.concat dir "config")
    (config_str case
       [ ("seed", string_of_int seed);
         ("index", string_of_int index);
         (* the enabled IR pass set: a pass-dependent divergence only
            reproduces under the same middle-end configuration *)
         ("passes", Ir.Pipeline.signature !Ir.Pipeline.selected);
         (* the engine whose stage diverged; the pyramid always re-runs
            both, so replay reproduces either way *)
         ("engine", divergence_engine d);
         ("stage", d.Pyramid.d_stage);
         ("kind", Pyramid.kind_name d.Pyramid.d_kind);
         ("detail", d.Pyramid.d_detail);
         ("layer", layer_verdict);
         ("layer_site", layer_site) ]);
  write_file (Filename.concat dir "README.md")
    (Printf.sprintf
       "# Fuzz divergence: %s (%s)\n\n%s\n\nLayer verdict: %s%s\n\n\
        Replay with:\n\n    oclcu fuzz --replay %s\n"
       d.Pyramid.d_stage (Pyramid.kind_name d.Pyramid.d_kind)
       d.Pyramid.d_detail layer_verdict
       (if layer_site = "" then "" else " (" ^ layer_site ^ ")")
       dir);
  dir

let config_kv dir =
  let config = read_file (Filename.concat dir "config") in
  List.filter_map
    (fun line ->
       match String.index_opt line '=' with
       | Some i ->
         Some
           ( String.sub line 0 i,
             String.sub line (i + 1) (String.length line - i - 1) )
       | None -> None)
    (String.split_on_char '\n' config)

(* The stored layer diagnosis; repros written before the layered
   validator existed have no [layer] key and read back as "-". *)
let layer dir : string * string =
  let kv = config_kv dir in
  ( Option.value (List.assoc_opt "layer" kv) ~default:"-",
    Option.value (List.assoc_opt "layer_site" kv) ~default:"" )

(* The engine whose stage diverged; repros written before the lockstep
   engine existed read back as "scalar". *)
let engine dir : string =
  Option.value (List.assoc_opt "engine" (config_kv dir)) ~default:"scalar"

(* The IR pass set active when the divergence was found; repros written
   before the middle-end existed read back as the default ("all"). *)
let passes dir : Ir.Pipeline.config =
  let s =
    Option.value (List.assoc_opt "passes" (config_kv dir)) ~default:"all"
  in
  match Ir.Pipeline.parse s with
  | Ok c -> c
  | Error _ -> Ir.Pipeline.all

(* Re-load a written repro as a runnable case. *)
let load dir : Gen.case =
  let src = read_file (Filename.concat dir "kernel.cl") in
  let kv = config_kv dir in
  let get k =
    match List.assoc_opt k kv with
    | Some v -> int_of_string v
    | None -> failwith (Printf.sprintf "fuzz replay: missing %S in %s/config" k dir)
  in
  let prog = Minic.Parser.program ~dialect:Minic.Parser.OpenCL src in
  { Gen.c_prog = prog;
    c_gws = get "gws";
    c_lws = get "lws";
    c_elems = get "elems";
    c_init_seed = get "init_seed" }
