(* The three concrete kernel checks built on {!Cfg} and {!Dataflow}:

   - barrier divergence: a barrier() / __syncthreads() whose execution
     is controlled by a thread-id-dependent condition, found by a taint
     analysis seeded from get_local_id/get_global_id/threadIdx and
     control-dependence over the postdominator tree;

   - local/shared-memory races: conflicting accesses to __local /
     __shared__ arrays inside one barrier interval (a GPUVerify-lite
     over the "most recent barrier" dataflow), with the guarded
     reduction idiom [if (tid < s) a[tid] += a[tid + s]] exempted;

   - address-space misuse: a pointer declared over one address space
     assigned, initialised or cast into a different explicit space.

   Both dialects are understood at once — the OpenCL builtins, the CUDA
   builtins, and the helpers the OpenCL-to-CUDA translator emits
   (__oc2cu_get_local_id, the __OC2CU_shared_mem pool) — so the same
   checks run unchanged on a kernel before and after translation. *)

open Minic.Ast

module SS = Set.Make (String)
module SM = Map.Make (String)
module IS = Set.Make (Int)

(* ------------------------------------------------------------------ *)
(* Thread-id taint                                                     *)
(* ------------------------------------------------------------------ *)

(* Builtins returning a value that differs between work-items of the
   same group; get_group_id and the size queries are group-uniform. *)
let thread_id_fns =
  [ "get_local_id"; "get_global_id";
    "__oc2cu_get_local_id"; "__oc2cu_get_global_id" ]

let is_barrier_name n = n = "barrier" || n = "__syncthreads"

let rec expr_tainted env e =
  let t = expr_tainted env in
  match e with
  | IntLit _ | FloatLit _ | StrLit _ | SizeofT _ | Launch _ -> false
  | Ident n -> SS.mem n env
  | Member (Ident "threadIdx", _) -> true
  | Member (Ident ("blockIdx" | "blockDim" | "gridDim"), _) -> false
  | Member (a, _) -> t a
  | Call (n, _, args) -> List.mem n thread_id_fns || List.exists t args
  | Unary (_, a) -> t a
  | Binary (_, a, b) -> t a || t b
  | Assign (_, _, r) -> t r
  | Cond (c, a, b) -> t c || t a || t b
  | Index (a, i) -> t a || t i
  | Cast (_, a) | StaticCast (_, a) | ReinterpretCast (_, a) | SizeofE a -> t a
  | VecLit (_, args) -> List.exists t args

let rec init_tainted env = function
  | IExpr e -> expr_tainted env e
  | IList l -> List.exists (init_tainted env) l

(* Effect of the assignments inside [e] on the tainted-variable set;
   plain scalar assignments update strongly (x = 0 untaints x). *)
let assign_effects env e =
  let env = ref env in
  ignore
    (map_expr
       (fun e ->
          (match e with
           | Assign (op, Ident n, rhs) ->
             let tainted =
               expr_tainted !env rhs || (op <> None && SS.mem n !env)
             in
             env := if tainted then SS.add n !env else SS.remove n !env
           | _ -> ());
          e)
       e);
  !env

let taint_instr env = function
  | Cfg.I_decl d ->
    let env =
      match d.d_init with
      | Some i when init_tainted env i -> SS.add d.d_name env
      | _ -> SS.remove d.d_name env
    in
    env
  | Cfg.I_expr e -> assign_effects env e

module TaintFlow = Dataflow.Forward (struct
    type t = SS.t

    let equal = SS.equal
    let join = SS.union
  end)

let solve_taint cfg =
  TaintFlow.solve cfg ~init:SS.empty ~bottom:SS.empty
    ~transfer:(fun nd env -> List.fold_left taint_instr env nd.Cfg.instrs)

(* ------------------------------------------------------------------ *)
(* Barrier placement                                                   *)
(* ------------------------------------------------------------------ *)

let expr_contains p e =
  let found = ref false in
  ignore
    (map_expr
       (fun e ->
          if p e then found := true;
          e)
       e);
  !found

let contains_barrier =
  expr_contains (function
    | Call (n, _, _) -> is_barrier_name n
    | _ -> false)

let expr_mentions name =
  expr_contains (function Ident n -> n = name | _ -> false)

let instr_has_barrier = function
  | Cfg.I_expr e -> contains_barrier e
  | Cfg.I_decl _ -> false

(* Unique id per barrier statement; -1 marks "no barrier yet" (entry). *)
let number_barriers (cfg : Cfg.t) =
  let tbl = Hashtbl.create 8 in
  let next = ref 0 in
  Array.iter
    (fun (nd : Cfg.node) ->
       List.iteri
         (fun pos ins ->
            if instr_has_barrier ins then begin
              Hashtbl.replace tbl (nd.Cfg.id, pos) !next;
              incr next
            end)
         nd.Cfg.instrs)
    cfg.Cfg.nodes;
  tbl

module PhaseFlow = Dataflow.Forward (struct
    type t = IS.t

    let equal = IS.equal
    let join = IS.union
  end)

(* "Most recent barrier" sets: two accesses may fall in the same
   barrier interval iff their phase sets intersect. *)
let solve_phases cfg barriers =
  PhaseFlow.solve cfg ~init:(IS.singleton (-1)) ~bottom:IS.empty
    ~transfer:(fun nd ph ->
      List.fold_left
        (fun ph (pos, ins) ->
           ignore ins;
           match Hashtbl.find_opt barriers (nd.Cfg.id, pos) with
           | Some b -> IS.singleton b
           | None -> ph)
        ph
        (List.mapi (fun pos ins -> (pos, ins)) nd.Cfg.instrs))

(* ------------------------------------------------------------------ *)
(* Check 1: barrier divergence                                         *)
(* ------------------------------------------------------------------ *)

let pp_expr = Minic.Pretty.expr_str Minic.Pretty.OpenCL

let check_barrier_divergence ~kernel (cfg : Cfg.t) ~taint_out ~deps ~live :
  Diag.t list =
  let tainted_branch c =
    match cfg.Cfg.nodes.(c).Cfg.branch with
    | Some e -> expr_tainted taint_out.(c) e
    | None -> false
  in
  let diags = ref [] in
  Array.iter
    (fun (nd : Cfg.node) ->
       if live.(nd.Cfg.id)
          && List.exists instr_has_barrier nd.Cfg.instrs
       then
         match List.find_opt tainted_branch deps.(nd.Cfg.id) with
         | Some c ->
           let cond = Option.get cfg.Cfg.nodes.(c).Cfg.branch in
           diags :=
             Diag.make Diag.Barrier_divergence ~kernel ~subject:"barrier"
               ~detail:
                 (Printf.sprintf
                    "barrier reachable under thread-id-dependent condition \
                     '%s'"
                    (pp_expr cond))
             :: !diags
         | None -> ())
    cfg.Cfg.nodes;
  !diags

(* ------------------------------------------------------------------ *)
(* Check 2: local/shared-memory races                                  *)
(* ------------------------------------------------------------------ *)

(* Leading address-space of a kernel parameter, as the OpenCL-to-CUDA
   translator computes it. *)
let param_space (pa : param) =
  match pa.pa_space, unqual pa.pa_ty with
  | (AS_local | AS_constant | AS_global), _ -> pa.pa_space
  | _, (TPtr t | TArr (t, _)) -> type_space t
  | _ -> AS_none

let decl_is_local (d : decl) =
  d.d_storage.s_space = AS_local
  || type_space d.d_ty = AS_local
  (* a pointer derived from the translated dynamic-shared pool *)
  || (match d.d_init with
      | Some (IExpr e) -> expr_mentions Xlat.Ocl_to_cuda.shared_pool e
      | _ -> false)

let local_arrays (f : func) (cfg : Cfg.t) =
  let from_params =
    List.filter_map
      (fun pa -> if param_space pa = AS_local then Some pa.pa_name else None)
      f.fn_params
  in
  let from_decls = ref [] in
  Array.iter
    (fun (nd : Cfg.node) ->
       List.iter
         (function
           | Cfg.I_decl d when decl_is_local d ->
             from_decls := d.d_name :: !from_decls
           | _ -> ())
         nd.Cfg.instrs)
    cfg.Cfg.nodes;
  SS.of_list (from_params @ !from_decls)

type access = {
  ac_arr : string;
  ac_idx : expr;
  ac_write : bool;
  ac_tainted : bool;  (* index depends on the thread id *)
  ac_guarded : bool;  (* control-dependent on a thread-id condition *)
  ac_phase : IS.t;
}

(* All local-array accesses inside [e], as (array, index, is_write). *)
let accesses_of_expr locals e : (string * expr * bool) list =
  let acc = ref [] in
  let add a i w = acc := (a, i, w) :: !acc in
  let rec go ?(write = false) e =
    match e with
    | Index (Ident a, i) when SS.mem a locals ->
      add a i write;
      go i
    | Index (a, i) ->
      go ~write a;
      go i
    | Assign (op, lhs, rhs) ->
      (* compound assignment reads the written cell too *)
      (match lhs with
       | Index (Ident a, i) when SS.mem a locals && op <> None -> add a i false
       | _ -> ());
      go ~write:true lhs;
      go rhs
    | Unary ((Preinc | Predec | Postinc | Postdec), tgt) ->
      (match tgt with
       | Index (Ident a, i) when SS.mem a locals -> add a i false
       | _ -> ());
      go ~write:true tgt
    | Unary (Addrof, tgt) -> (match tgt with Index (_, i) -> go i | _ -> ())
    | Unary (_, a) -> go a
    | Binary (_, a, b) ->
      go a;
      go b
    | Cond (c, a, b) ->
      go c;
      go a;
      go b
    | Call (_, _, args) -> List.iter (fun a -> go a) args
    | Member (a, _) -> go ~write a
    | Cast (_, a) | StaticCast (_, a) | ReinterpretCast (_, a) | SizeofE a ->
      go a
    | VecLit (_, args) -> List.iter (fun a -> go a) args
    | Launch _ | IntLit _ | FloatLit _ | StrLit _ | Ident _ | SizeofT _ -> ()
  in
  go e;
  List.rev !acc

let collect_accesses ~locals (cfg : Cfg.t) ~taint_in ~phase_in ~barriers
    ~guarded ~live : access list =
  let out = ref [] in
  Array.iter
    (fun (nd : Cfg.node) ->
       if live.(nd.Cfg.id) then begin
         let env = ref taint_in.(nd.Cfg.id) in
         let ph = ref phase_in.(nd.Cfg.id) in
         let record e =
           List.iter
             (fun (a, i, w) ->
                out :=
                  { ac_arr = a; ac_idx = i; ac_write = w;
                    ac_tainted = expr_tainted !env i;
                    ac_guarded = guarded nd.Cfg.id; ac_phase = !ph }
                  :: !out)
             (accesses_of_expr locals e)
         in
         List.iteri
           (fun pos ins ->
              (match ins with
               | Cfg.I_expr e -> record e
               | Cfg.I_decl d ->
                 let rec go_init = function
                   | IExpr e -> record e
                   | IList l -> List.iter go_init l
                 in
                 Option.iter go_init d.d_init);
              env := taint_instr !env ins;
              match Hashtbl.find_opt barriers (nd.Cfg.id, pos) with
              | Some b -> ph := IS.singleton b
              | None -> ())
           nd.Cfg.instrs;
         (* reads in the branch condition, after the block's instrs *)
         Option.iter record nd.Cfg.branch
       end)
    cfg.Cfg.nodes;
  List.rev !out

let check_local_races ~kernel (accesses : access list) : Diag.t list =
  let diags = ref [] in
  let add arr detail =
    diags := Diag.make Diag.Local_race ~kernel ~subject:arr ~detail :: !diags
  in
  let describe (a : access) =
    Printf.sprintf "%s %s[%s]"
      (if a.ac_write then "write" else "read")
      a.ac_arr (pp_expr a.ac_idx)
  in
  List.iter
    (fun (w : access) ->
       if w.ac_write && not w.ac_guarded then begin
         if not w.ac_tainted then
           (* every work-item of the group stores to the same cell *)
           add w.ac_arr
             (Printf.sprintf
                "unguarded %s: all work-items of a group write one cell"
                (describe w))
         else
           (* a cross-thread partner access in the same barrier interval *)
           List.iter
             (fun (o : access) ->
                if o != w
                   && o.ac_arr = w.ac_arr
                   && (not o.ac_guarded)
                   && (not (IS.is_empty (IS.inter o.ac_phase w.ac_phase)))
                   && not (equal_expr o.ac_idx w.ac_idx)
                then
                  add w.ac_arr
                    (Printf.sprintf
                       "%s conflicts with %s in the same barrier interval"
                       (describe w) (describe o)))
             accesses
       end)
    accesses;
  !diags

(* ------------------------------------------------------------------ *)
(* Check 3: address-space misuse                                       *)
(* ------------------------------------------------------------------ *)

(* The explicit address space a pointer-valued declaration points into;
   AS_none when unqualified (a wildcard: CUDA's generic space). *)
let pointee_space ?(storage_space = AS_none) ty =
  match unqual ty with
  | TPtr t | TArr (t, _) ->
    (match type_space t with
     | AS_none -> storage_space
     | s -> s)
  | _ -> AS_none

let space_str = function
  | AS_local -> "__local"
  | AS_global -> "__global"
  | AS_constant -> "__constant"
  | AS_private -> "__private"
  | AS_none -> "generic"

let check_addr_spaces ~kernel (prog : program) (f : func) (cfg : Cfg.t) ~live :
  Diag.t list =
  (* penv: pointer variable -> explicit pointee space;
     venv: variable -> the space the variable itself lives in *)
  let penv = ref SM.empty and venv = ref SM.empty in
  let add_var name ty ~storage_space =
    (match pointee_space ~storage_space ty with
     | AS_none -> ()
     | s -> penv := SM.add name s !penv);
    let own =
      match type_space ty with
      | AS_none -> storage_space
      | s -> s
    in
    if own <> AS_none then venv := SM.add name own !venv
  in
  List.iter
    (function
      | TVar d -> add_var d.d_name d.d_ty ~storage_space:d.d_storage.s_space
      | _ -> ())
    prog;
  List.iter
    (fun pa -> add_var pa.pa_name pa.pa_ty ~storage_space:pa.pa_space)
    f.fn_params;
  Array.iter
    (fun (nd : Cfg.node) ->
       List.iter
         (function
           | Cfg.I_decl d ->
             add_var d.d_name d.d_ty ~storage_space:d.d_storage.s_space
           | Cfg.I_expr _ -> ())
         nd.Cfg.instrs)
    cfg.Cfg.nodes;
  let rec expr_space e =
    match e with
    | Ident n -> Option.value (SM.find_opt n !penv) ~default:AS_none
    | Unary (Addrof, lv) -> lvalue_space lv
    | Binary ((Add | Sub), a, b) ->
      (match expr_space a with AS_none -> expr_space b | s -> s)
    | Cast (t, a) | StaticCast (t, a) | ReinterpretCast (t, a) ->
      (match pointee_space t with AS_none -> expr_space a | s -> s)
    | Cond (_, a, b) ->
      let sa = expr_space a and sb = expr_space b in
      if sa = sb then sa else AS_none
    | Assign (_, _, r) -> expr_space r
    | _ -> AS_none
  and lvalue_space lv =
    match lv with
    | Ident n -> Option.value (SM.find_opt n !venv) ~default:AS_none
    | Index (a, _) | Unary (Deref, a) -> expr_space a
    | Member (a, _) -> lvalue_space a
    | _ -> AS_none
  in
  let diags = ref [] in
  let conflict ~subject ~what lhs_space rhs_space =
    if lhs_space <> AS_none && rhs_space <> AS_none && lhs_space <> rhs_space
    then
      diags :=
        Diag.make Diag.Addr_space_misuse ~kernel ~subject
          ~detail:
            (Printf.sprintf "%s: a %s pointer receives a %s address" what
               (space_str lhs_space) (space_str rhs_space))
        :: !diags
  in
  let check_expr e =
    ignore
      (map_expr
         (fun e ->
            (match e with
             | Assign (None, (Ident p as lhs), rhs) ->
               conflict ~subject:p
                 ~what:(Printf.sprintf "assignment to '%s'" (pp_expr lhs))
                 (Option.value (SM.find_opt p !penv) ~default:AS_none)
                 (expr_space rhs)
             | Cast (t, a) | StaticCast (t, a) | ReinterpretCast (t, a) ->
               let subject =
                 match a with Ident n -> n | _ -> "cast"
               in
               conflict ~subject
                 ~what:(Printf.sprintf "cast of '%s'" (pp_expr a))
                 (pointee_space t) (expr_space a)
             | _ -> ());
            e)
         e)
  in
  Array.iter
    (fun (nd : Cfg.node) ->
       if live.(nd.Cfg.id) then begin
         List.iter
           (function
             | Cfg.I_decl d ->
               (match d.d_init with
                | Some (IExpr e) ->
                  check_expr e;
                  conflict ~subject:d.d_name
                    ~what:
                      (Printf.sprintf "initialisation of '%s'" d.d_name)
                    (pointee_space ~storage_space:d.d_storage.s_space d.d_ty)
                    (expr_space e)
                | _ -> ())
             | Cfg.I_expr e -> check_expr e)
           nd.Cfg.instrs;
         Option.iter check_expr nd.Cfg.branch
       end)
    cfg.Cfg.nodes;
  !diags

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

let analyze_kernel (prog : program) (f : func) : Diag.t list =
  match f.fn_body with
  | None -> []
  | Some body ->
    let kernel = f.fn_name in
    let cfg = Cfg.of_body body in
    let live = Cfg.reachable cfg in
    let taint_in, taint_out = solve_taint cfg in
    let deps = Cfg.control_deps cfg in
    let tainted_branch c =
      match cfg.Cfg.nodes.(c).Cfg.branch with
      | Some e -> expr_tainted taint_out.(c) e
      | None -> false
    in
    let guarded id = List.exists tainted_branch deps.(id) in
    let barriers = number_barriers cfg in
    let phase_in, _ = solve_phases cfg barriers in
    let locals = local_arrays f cfg in
    let accesses =
      collect_accesses ~locals cfg ~taint_in ~phase_in ~barriers ~guarded
        ~live
    in
    Diag.dedup_sort
      (check_barrier_divergence ~kernel cfg ~taint_out ~deps ~live
       @ check_local_races ~kernel accesses
       @ check_addr_spaces ~kernel prog f cfg ~live)

(* Analyze every kernel of a program; diagnostics are deduplicated by
   (check, kernel, subject) and deterministically ordered. *)
let analyze_program (prog : program) : Diag.t list =
  Diag.dedup_sort (List.concat_map (analyze_kernel prog) (kernels prog))
