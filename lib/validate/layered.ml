(* Layered-semantics translation validation (vellvm-style refinement).

   A source kernel and its translation are executed under instrumented
   Vm observation modes that truncate every effect above the active
   semantic layer, and the per-layer observations are diffed; a
   divergence is attributed to the lowest layer that introduces it.

     L0  pure expression/arithmetic evaluation.  Branch decisions are
         traced in order; the payload of every local/global store is
         collected per work-item as an unordered bag (the values leaving
         the pure dataflow core), but no store above private memory
         lands and loads see pristine initial arenas.  Barriers are
         no-ops, atomics return the current cell value without writing.
     L1  + private/local memory.  Local stores are performed and traced
         in order (payloads only: the translators repack dynamic __local
         arguments into the shared pool, so local placement is not
         directly comparable); global memory stays truncated.
     L2  + global memory.  Global stores are performed and traced in
         order with their arena offsets; atomics stay truncated so a
         scheduling-layer bug cannot leak downwards.
     L3  + scheduling: the real cooperative engine with live barriers
         and atomics; the barrier-round count and the final bytes of
         every global buffer are compared.

   Observation robustness: private-memory traffic is never observed
   (translators introduce temporaries, shifting private placement), and
   observation is masked inside the translator-emitted runtime helpers
   (__oc2cu_* index helpers, __c2o_* bounded-atomic CAS loops) whose
   internal control flow has no counterpart in the source kernel. *)

open Minic.Ast

(* ------------------------------------------------------------------ *)
(* Layers and reports                                                  *)
(* ------------------------------------------------------------------ *)

type layer = L0 | L1 | L2 | L3

let all_layers = [ L0; L1; L2; L3 ]

let layer_name = function L0 -> "L0" | L1 -> "L1" | L2 -> "L2" | L3 -> "L3"

type status =
  | Equivalent
  | Vacuous of string   (* statically sliced out: layer cannot act *)
  | Diverges of string  (* divergence site *)
  | Skipped of string   (* could not run the layer (e.g. source faults) *)

type report = {
  rp_kernel : string;
  rp_layers : (layer * status) list;  (* ascending; stops where refinement stops *)
  rp_diverged : (layer * string) option;  (* lowest diverging layer *)
}

type outcome =
  | Checked of report
  | Unsupported of string  (* kernel the harness cannot drive *)

let status_line = function
  | Equivalent -> "equivalent"
  | Vacuous why -> Printf.sprintf "equivalent (vacuous: %s)" why
  | Diverges site -> Printf.sprintf "diverges at %s" site
  | Skipped why -> Printf.sprintf "skipped (%s)" why

let report_lines r =
  List.map
    (fun (l, st) -> Printf.sprintf "%s: %s" (layer_name l) (status_line st))
    r.rp_layers

(* ------------------------------------------------------------------ *)
(* Configuration                                                       *)
(* ------------------------------------------------------------------ *)

type vcfg = {
  vc_gws : int;
  vc_lws : int;
  vc_elems : int;      (* buffer length in elements (slack over gws) *)
  vc_seed : int;
  vc_max_events : int;
}

let default_cfg =
  { vc_gws = 8; vc_lws = 4; vc_elems = 64; vc_seed = 0x5eed;
    vc_max_events = 200_000 }

(* ------------------------------------------------------------------ *)
(* Observation events                                                  *)
(* ------------------------------------------------------------------ *)

type event =
  | E_item of int             (* work-item boundary marker *)
  | E_branch of bool
  | E_lstore of string        (* performed local store: payload bytes *)
  | E_gstore of int * string  (* performed global store: offset, payload *)
  | E_bag of string list      (* one item's truncated-store payloads, sorted *)

let hex ?(limit = 16) s =
  let n = min limit (String.length s) in
  let b = Buffer.create (2 * n) in
  String.iter (fun c -> Buffer.add_string b (Printf.sprintf "%02x" (Char.code c)))
    (String.sub s 0 n);
  (if String.length s > limit then Buffer.add_string b "..");
  Buffer.contents b

let pp_event = function
  | E_item k -> Printf.sprintf "item#%d" k
  | E_branch b -> Printf.sprintf "branch:%b" b
  | E_lstore p -> Printf.sprintf "local-store[%s]" (hex p)
  | E_gstore (a, p) -> Printf.sprintf "global-store@%d[%s]" a (hex p)
  | E_bag l -> Printf.sprintf "value-bag(%d)" (List.length l)

type collector = {
  mutable evs : event list;  (* reversed *)
  mutable n : int;
  mutable bag : string list; (* current item's truncated-store payloads *)
  mutable items : int;
  mutable mask : int;        (* >0 inside translator runtime helpers *)
  limit : int;
  mutable overflow : bool;
}

let collector limit =
  { evs = []; n = 0; bag = []; items = 0; mask = 0; limit; overflow = false }

let push c ev =
  if c.n >= c.limit then c.overflow <- true
  else begin
    c.evs <- ev :: c.evs;
    c.n <- c.n + 1
  end

let flush_bag c =
  if c.bag <> [] then begin
    push c (E_bag (List.sort compare c.bag));
    c.bag <- []
  end

(* Translator-emitted runtime helpers whose internal control flow has no
   source counterpart; observation is masked while inside them. *)
let runtime_helper n =
  String.starts_with ~prefix:"__oc2cu_" n
  || String.starts_with ~prefix:"__c2o_" n

(* Serialise a stored value exactly as the store writes it (wrapped /
   rounded, little-endian), so a vector store and its struct-lowered
   translation produce identical payloads. *)
let payload (ctx : Vm.Interp.ctx) ty (v : Vm.Value.t) : string =
  let b = Buffer.create 16 in
  let add_scalar s v =
    if is_float_scalar s then begin
      let f = Vm.Value.round_float s (Vm.Value.to_float v) in
      match scalar_size s with
      | 4 -> Buffer.add_int32_le b (Int32.bits_of_float f)
      | _ -> Buffer.add_int64_le b (Int64.bits_of_float f)
    end
    else begin
      let n = max 1 (scalar_size s) in
      let x = Vm.Value.to_int v in
      for i = 0 to n - 1 do
        Buffer.add_char b
          (Char.chr
             (Int64.to_int
                (Int64.logand (Int64.shift_right_logical x (8 * i)) 0xFFL)))
      done
    end
  in
  let layout = ctx.Vm.Interp.layout in
  (match Vm.Layout.resolve layout ty with
   | TScalar s -> add_scalar s v
   | TVec (s, n) ->
     let comps =
       match v with Vm.Value.VVec c -> c | v -> Array.make n v
     in
     for i = 0 to n - 1 do
       let c =
         if i < Array.length comps then comps.(i) else Vm.Value.VInt 0L
       in
       add_scalar s c
     done
   | TNamed name when Vm.Layout.is_struct layout (TNamed name) ->
     (* struct assignment: v is the source address; capture its bytes *)
     let size = Vm.Layout.sizeof layout (TNamed name) in
     let src = Vm.Value.to_int v in
     let arena = ctx.Vm.Interp.arena_of (Vm.Value.ptr_space src) in
     Buffer.add_bytes b
       (Vm.Memory.load_bytes arena (Vm.Value.ptr_offset src) size)
   | _ ->
     (* pointers, handles, decayed arrays: the 8 raw bytes *)
     let x = Vm.Value.to_int v in
     for i = 0 to 7 do
       Buffer.add_char b
         (Char.chr
            (Int64.to_int
               (Int64.logand (Int64.shift_right_logical x (8 * i)) 0xFFL)))
     done);
  Buffer.contents b

let observer_for ~(layer : layer) ~kernel_name (c : collector) :
  Vm.Interp.observer =
  let obs_enter n =
    if runtime_helper n then c.mask <- c.mask + 1
    else if c.mask = 0 && n = kernel_name then begin
      flush_bag c;
      c.items <- c.items + 1;
      push c (E_item c.items)
    end
  in
  let obs_leave n = if runtime_helper n then c.mask <- c.mask - 1 in
  let obs_branch b = if c.mask = 0 then push c (E_branch b) in
  let obs_store ctx space _addr ty v =
    if c.mask = 0 then
      match space with
      | AS_private | AS_none -> ()
      | AS_local ->
        (match layer with
         | L0 -> c.bag <- ("l:" ^ payload ctx ty v) :: c.bag
         | L1 | L2 -> push c (E_lstore (payload ctx ty v))
         | L3 -> ())
      | AS_global | AS_constant ->
        (match layer with
         | L0 | L1 -> c.bag <- ("g:" ^ payload ctx ty v) :: c.bag
         | L2 -> push c (E_gstore (_addr, payload ctx ty v))
         | L3 -> ())
  in
  let obs_perform space =
    match layer, space with
    | L0, (AS_local | AS_global | AS_constant) -> false
    | L1, (AS_global | AS_constant) -> false
    | _ -> true
  in
  { Vm.Interp.obs_branch; obs_store; obs_perform; obs_enter; obs_leave }

(* ------------------------------------------------------------------ *)
(* Truncated scheduling externals (layers below L3)                    *)
(* ------------------------------------------------------------------ *)

let atomic_names = Xlat_analysis.Footprint.atomic_names

let barrier_names = [ "barrier"; "__syncthreads" ]

(* An atomic truncated to its read: returns the current cell value and
   performs no write, so layers below L3 cannot see the operation. *)
let atomic_read_only ctx (args : Vm.Interp.tval list) =
  match args with
  | p :: _ ->
    let ptr = Vm.Value.to_int p.Vm.Interp.v in
    let space = Vm.Value.ptr_space ptr in
    let addr = Vm.Value.ptr_offset ptr in
    let elt =
      match Vm.Layout.resolve ctx.Vm.Interp.layout p.Vm.Interp.ty with
      | TPtr t | TArr (t, _) -> t
      | _ -> TScalar Int
    in
    Vm.Interp.tv (Vm.Interp.load ctx space addr elt) elt
  | [] -> Vm.Interp.tunit

let truncated_externals () =
  List.map (fun n -> (n, fun _ _ -> Vm.Interp.tunit)) barrier_names
  @ List.map (fun n -> (n, atomic_read_only)) atomic_names

(* ------------------------------------------------------------------ *)
(* One instrumented run                                                *)
(* ------------------------------------------------------------------ *)

(* Deterministic splitmix64 fill, mirroring the fuzzer's "small finite
   values" policy so float arithmetic stays well-behaved. *)
let fill_state seed = ref (Int64.of_int (0x9e3779b9 + seed))

let next_u64 st =
  let z = Int64.add !st 0x9e3779b97f4a7c15L in
  st := z;
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30))
      0xbf58476d1ce4e5b9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
      0x94d049bb133111ebL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let range st lo hi =
  lo + Int64.to_int (Int64.rem (Int64.logand (next_u64 st) Int64.max_int)
                       (Int64.of_int (hi - lo)))

let fill_buffer st elt (b : Bytes.t) =
  let s = match unqual elt with TScalar s -> s | TVec (s, _) -> s | _ -> Char in
  let sz = max 1 (scalar_size s) in
  let n = Bytes.length b / sz in
  for i = 0 to n - 1 do
    let off = i * sz in
    match s with
    | Float ->
      Bytes.set_int32_le b off
        (Int32.bits_of_float (float_of_int (range st (-256) 256) /. 4.0))
    | Double ->
      Bytes.set_int64_le b off
        (Int64.bits_of_float (float_of_int (range st (-256) 256) /. 4.0))
    | Int | UInt ->
      Bytes.set_int32_le b off (Int32.of_int (range st (-120) 120))
    | _ -> Bytes.set b off (Char.chr (range st 0 256))
  done

type run_result = {
  rr_events : event array;
  rr_overflow : bool;
  rr_barriers : int;
  rr_finals : string list;          (* final bytes, one per buffer *)
  rr_error : string option;         (* run raised after this prefix *)
}

let exn_detail e =
  let s = Printexc.to_string e in
  if String.length s > 160 then String.sub s 0 160 else s

(* Each side runs on one domain: the event streams compare in the
   sequential engine's order. *)
let run_side ?(config = Gpusim.Config.default ()) ~(cfg : vcfg)
    ~(layer : layer) (p : Plan.t) : run_result =
  let c = collector cfg.vc_max_events in
  let observer, extra_externals =
    match layer with
    | L3 -> (None, [])
    | _ -> (Some (observer_for ~layer ~kernel_name:p.Plan.kernel c),
            truncated_externals ())
  in
  let barriers, finals, error =
    match
      Plan.run ~config:{ config with domains = 1 } ?observer ~extra_externals
        ~gws:cfg.vc_gws ~lws:cfg.vc_lws p
    with
    | s, finals ->
      (s.Gpusim.Exec.counters.Gpusim.Counters.barriers, finals, None)
    | exception e -> (-1, [], Some (exn_detail e))
  in
  flush_bag c;
  { rr_events = Array.of_list (List.rev c.evs);
    rr_overflow = c.overflow;
    rr_barriers = barriers;
    rr_finals = finals;
    rr_error = error }

(* ------------------------------------------------------------------ *)
(* Diffing                                                             *)
(* ------------------------------------------------------------------ *)

let item_before (evs : event array) i =
  let item = ref 0 in
  for j = 0 to min i (Array.length evs - 1) do
    match evs.(j) with E_item k -> item := k | _ -> ()
  done;
  !item

let diff_events (a : run_result) (b : run_result) : string option =
  let n = min (Array.length a.rr_events) (Array.length b.rr_events) in
  let rec go i =
    if i < n then
      if a.rr_events.(i) <> b.rr_events.(i) then
        Some
          (Printf.sprintf "work-item %d, event %d: %s vs %s"
             (item_before a.rr_events i) i
             (pp_event a.rr_events.(i))
             (pp_event b.rr_events.(i)))
      else go (i + 1)
    else if Array.length a.rr_events <> Array.length b.rr_events then
      let longer, who =
        if Array.length a.rr_events > Array.length b.rr_events then (a, "source")
        else (b, "translation")
      in
      Some
        (Printf.sprintf "work-item %d, event %d: %s only in %s"
           (item_before longer.rr_events n) n
           (pp_event longer.rr_events.(n)) who)
    else None
  in
  go 0

let compare_runs ~(layer : layer) (src : run_result) (dst : run_result) :
  status =
  if src.rr_overflow || dst.rr_overflow then
    Skipped "observation budget exceeded"
  else
    match src.rr_error, dst.rr_error with
    | Some e, None -> Skipped (Printf.sprintf "source kernel raised: %s" e)
    | None, Some e ->
      Diverges (Printf.sprintf "translated kernel raised: %s" e)
    | Some es, Some ed ->
      if es = ed && diff_events src dst = None then
        Skipped (Printf.sprintf "both sides raise identically: %s" es)
      else
        Diverges
          (Printf.sprintf "differing failures: %s vs %s" es ed)
    | None, None ->
      (match diff_events src dst with
       | Some site -> Diverges site
       | None when layer = L3 ->
         if src.rr_barriers <> dst.rr_barriers then
           Diverges
             (Printf.sprintf "barrier rounds: %d vs %d" src.rr_barriers
                dst.rr_barriers)
         else
           let rec bufs i = function
             | [], [] -> Equivalent
             | x :: xs, y :: ys ->
               if String.equal x y then bufs (i + 1) (xs, ys)
               else begin
                 let k = ref 0 in
                 while !k < min (String.length x) (String.length y)
                       && x.[!k] = y.[!k] do incr k done;
                 Diverges
                   (Printf.sprintf "global buffer %d, byte %d: %02x vs %02x"
                      i !k
                      (if !k < String.length x then Char.code x.[!k] else 0)
                      (if !k < String.length y then Char.code y.[!k] else 0))
               end
             | _ -> Diverges "global buffer count differs"
           in
           bufs 0 (src.rr_finals, dst.rr_finals)
       | None -> Equivalent)

(* ------------------------------------------------------------------ *)
(* The refinement ladder                                               *)
(* ------------------------------------------------------------------ *)

let check_plans ?config ?(cfg = default_cfg) ~(src : Plan.t) ~(dst : Plan.t)
    () : report =
  let fp =
    let of_side p =
      match Minic.Ast.find_function (Plan.prog p) p.Plan.kernel with
      | Some k -> Xlat_analysis.Footprint.of_kernel (Plan.prog p) k
      | None ->
        { Xlat_analysis.Footprint.fp_local = true; fp_global = true;
          fp_sched = true }
    in
    Xlat_analysis.Footprint.union (of_side src) (of_side dst)
  in
  let slice = function
    | L0 -> None
    | L1 -> if fp.Xlat_analysis.Footprint.fp_local then None else Some "no local-memory traffic"
    | L2 -> if fp.fp_global then None else Some "no global-memory traffic"
    | L3 ->
      if fp.fp_global || fp.fp_sched then None
      else Some "no shared state or scheduling constructs"
  in
  let rec ladder acc = function
    | [] -> (List.rev acc, None)
    | layer :: rest ->
      (match slice layer with
       | Some why -> ladder ((layer, Vacuous why) :: acc) rest
       | None ->
         let s = run_side ?config ~cfg ~layer src in
         let d = run_side ?config ~cfg ~layer dst in
         (match compare_runs ~layer s d with
          | Equivalent -> ladder ((layer, Equivalent) :: acc) rest
          | Vacuous _ as st -> ladder ((layer, st) :: acc) rest
          | Diverges site ->
            (List.rev ((layer, Diverges site) :: acc), Some (layer, site))
          | Skipped why -> (List.rev ((layer, Skipped why) :: acc), None)))
  in
  let layers, diverged = ladder [] all_layers in
  { rp_kernel = src.Plan.kernel; rp_layers = layers; rp_diverged = diverged }

(* ------------------------------------------------------------------ *)
(* Plan synthesis from kernel signatures                               *)
(* ------------------------------------------------------------------ *)

(* The validator's own launch of [k]: [vc_elems]-element buffers filled
   from [vc_seed], and [vc_elems] for every scalar. *)
let plan_of_kernel ?(cfg = default_cfg) (prog : program) (k : func) =
  Plan.of_kernel prog k ~lws:cfg.vc_lws ~elems:cfg.vc_elems
    ~scalar:cfg.vc_elems ~fill:(fill_buffer (fill_state cfg.vc_seed))

(* Does the program rely on dynamically sized shared memory? *)
let uses_extern_shared (prog : program) (k : func) =
  let file_scope =
    List.exists
      (function
        | TVar d -> d.d_storage.s_extern && type_space d.d_ty = AS_local
        | _ -> false)
      prog
  in
  let in_body =
    match k.fn_body with
    | None -> false
    | Some body ->
      List.exists
        (fun s ->
           let found = ref false in
           ignore
             (map_stmt
                ~expr:(fun e -> e)
                ~stmt:(fun s ->
                    (match s with
                     | SDecl d
                       when d.d_storage.s_extern && type_space d.d_ty = AS_local
                       -> found := true
                     | _ -> ());
                    s)
                s);
           !found)
        body
  in
  file_scope || in_body

(* ------------------------------------------------------------------ *)
(* Whole-source entry points (one refinement report per kernel)        *)
(* ------------------------------------------------------------------ *)

let parse_dialect dialect src =
  match Minic.Parser.program ~dialect src with
  | prog -> Ok prog
  | exception e -> Error (exn_detail e)

(* OpenCL source against its CUDA translation (paper Fig. 2 direction). *)
let check_opencl_source ?(cfg = default_cfg) (src : string) :
  ((string * outcome) list, string) result =
  match parse_dialect Minic.Parser.OpenCL src with
  | Error e -> Error ("parse: " ^ e)
  | Ok ocl_prog ->
    (match Xlat.Ocl_to_cuda.translate ocl_prog with
     | exception Xlat.Ocl_to_cuda.Untranslatable why ->
       Error ("untranslatable: " ^ why)
     | exception e -> Error (exn_detail e)
     | res ->
       Ok
         (List.map
            (fun (k : func) ->
               let name = k.fn_name in
               match
                 List.find_opt
                   (fun ki -> ki.Xlat.Ocl_to_cuda.ki_name = name)
                   res.Xlat.Ocl_to_cuda.kernels
               with
               | None -> (name, Unsupported "kernel lost in translation")
               | Some ki ->
                 (match plan_of_kernel ~cfg ocl_prog k with
                  | Error why -> (name, Unsupported why)
                  | Ok src ->
                    let dst =
                      Plan.to_cuda src res.Xlat.Ocl_to_cuda.cuda_prog ki
                    in
                    (name, Checked (check_plans ~cfg ~src ~dst ()))))
            (kernels ocl_prog)))

(* CUDA source against its OpenCL translation (paper Fig. 3 direction). *)
let check_cuda_source ?(cfg = default_cfg) (src : string) :
  ((string * outcome) list, string) result =
  match parse_dialect Minic.Parser.Cuda src with
  | Error e -> Error ("parse: " ^ e)
  | Ok cu_prog ->
    (match Xlat.Cuda_to_ocl.translate cu_prog with
     | exception Xlat.Cuda_to_ocl.Untranslatable why ->
       Error ("untranslatable: " ^ why)
     | exception e -> Error (exn_detail e)
     | res ->
       Ok
         (List.map
            (fun (k : func) ->
               let name = k.fn_name in
               match
                 List.find_opt
                   (fun km -> km.Xlat.Cuda_to_ocl.km_name = name)
                   res.Xlat.Cuda_to_ocl.kmetas
               with
               | None -> (name, Unsupported "kernel lost in translation")
               | Some km ->
                 if km.Xlat.Cuda_to_ocl.km_symbols <> [] then
                   (name, Unsupported "device-symbol parameters")
                 else if km.Xlat.Cuda_to_ocl.km_textures <> [] then
                   (name, Unsupported "texture parameters")
                 else
                   (match plan_of_kernel ~cfg cu_prog k with
                    | Error why -> (name, Unsupported why)
                    | Ok src ->
                      let src =
                        if uses_extern_shared cu_prog k then
                          { src with Plan.dyn_shared = cfg.vc_lws * 16 }
                        else src
                      in
                      let dst =
                        Plan.to_opencl src res.Xlat.Cuda_to_ocl.cl_prog km
                      in
                      (name, Checked (check_plans ~cfg ~src ~dst ()))))
            (kernels cu_prog)))
