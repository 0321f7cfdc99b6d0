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

(* [config] is the pyramid's base configuration; stages derive theirs
   from it, so replaying under it reruns every stage as it ran. *)
let write ~out_dir ~name ~config ~(case : Gen.case) ~(d : Pyramid.divergence)
    ~(layer : string * string) ~seed ~index : string =
  ensure_dir out_dir;
  let dir = Filename.concat out_dir name in
  ensure_dir dir;
  let src = Gen.source case in
  let layer_verdict, layer_site = layer in
  write_file (Filename.concat dir "kernel.cl") src;
  write_file (Filename.concat dir "config")
    (config_str case
       ([ ("seed", string_of_int seed); ("index", string_of_int index) ]
        @ Gpusim.Config.to_kv config
        @ [ ("stage", d.Pyramid.d_stage);
            ("kind", Pyramid.kind_name d.Pyramid.d_kind);
            ("detail", d.Pyramid.d_detail);
            ("layer", layer_verdict);
            ("layer_site", layer_site) ]));
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

(* The pyramid's base configuration.  Repros written before it was
   stored have no [domains] key: they replay under the process defaults
   and their pass set (all when absent, from before the middle-end), and
   their [engine] key named the diverging stage's engine, not a
   setting. *)
let config dir : Gpusim.Config.t =
  let kv = config_kv dir in
  if List.mem_assoc "domains" kv then Gpusim.Config.of_kv kv
  else
    Gpusim.Config.of_kv
      [ ("passes", Option.value (List.assoc_opt "passes" kv) ~default:"all") ]

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
