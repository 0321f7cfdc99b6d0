(* OpenCL-to-CUDA device code translation (paper §3.5-§4, Figures 2/5).

   Input: an OpenCL C program AST.  Output: a CUDA program AST plus
   per-kernel metadata telling the wrapper runtime how each original
   argument slot must be fed at launch time:

   - dynamic __local pointer parameters become size_t parameters; the
     kernel derives its pointers from one big [extern __shared__] block
     at accumulated offsets (Fig. 5);
   - dynamic __constant pointer parameters become size_t parameters over
     a fixed __constant__ byte pool __OC2CU_const_mem;
   - __global qualifiers on parameters are dropped;
   - work-item built-ins map to prelude __device__ helpers over
     threadIdx/blockIdx/...;
   - vector component expressions (.lo/.hi/.even/.odd/swizzles) are
     lowered to CUDA's .x/.y/.z/.w, splitting assignments when the
     target has several components (§3.6);
   - 8/16-component vectors become C structs (§3.6). *)

open Minic.Ast

exception Untranslatable of string

type param_role =
  | P_keep
  | P_local_size      (* was "__local T*", now "size_t" *)
  | P_const_size      (* was "__constant T*", now "size_t" *)

type kernel_info = {
  ki_name : string;
  ki_roles : param_role list;
}

type result = {
  cuda_prog : Minic.Ast.program;
  kernels : kernel_info list;
}

let shared_pool = "__OC2CU_shared_mem"
let const_pool = "__OC2CU_const_mem"
let max_const_size = 65536

let prelude_src = {|
__device__ int __oc2cu_get_global_id(int d) {
  if (d == 0) return blockIdx.x * blockDim.x + threadIdx.x;
  if (d == 1) return blockIdx.y * blockDim.y + threadIdx.y;
  return blockIdx.z * blockDim.z + threadIdx.z;
}
__device__ int __oc2cu_get_local_id(int d) {
  if (d == 0) return threadIdx.x;
  if (d == 1) return threadIdx.y;
  return threadIdx.z;
}
__device__ int __oc2cu_get_group_id(int d) {
  if (d == 0) return blockIdx.x;
  if (d == 1) return blockIdx.y;
  return blockIdx.z;
}
__device__ int __oc2cu_get_global_size(int d) {
  if (d == 0) return gridDim.x * blockDim.x;
  if (d == 1) return gridDim.y * blockDim.y;
  return gridDim.z * blockDim.z;
}
__device__ int __oc2cu_get_local_size(int d) {
  if (d == 0) return blockDim.x;
  if (d == 1) return blockDim.y;
  return blockDim.z;
}
__device__ int __oc2cu_get_num_groups(int d) {
  if (d == 0) return gridDim.x;
  if (d == 1) return gridDim.y;
  return gridDim.z;
}
|}

let prelude () = Minic.Parser.program ~dialect:Minic.Parser.Cuda prelude_src

(* --- wide vectors (8/16 components) as structs ----------------------- *)

let wide_struct_name s n =
  Printf.sprintf "__oc2cu_%s%d" (Minic.Pretty.scalar_name s) n

let hexdig i = "0123456789abcdef".[i]

let wide_struct_def s n =
  TStruct
    ( wide_struct_name s n,
      List.init n (fun i ->
          (Printf.sprintf "s%c" (hexdig i), TScalar s)) )

let rec lower_wide_ty used t =
  match t with
  | TVec (s, n) when n > 4 ->
    used := (s, n) :: !used;
    TNamed (wide_struct_name s n)
  | TPtr u -> TPtr (lower_wide_ty used u)
  | TRef u -> TRef (lower_wide_ty used u)
  | TArr (u, d) -> TArr (lower_wide_ty used u, d)
  | TQual (sp, u) -> TQual (sp, lower_wide_ty used u)
  | TConst u -> TConst (lower_wide_ty used u)
  | t -> t

(* --- vector component lowering --------------------------------------- *)

let comp_name i = [| "x"; "y"; "z"; "w" |].(i)

(* Static width of an expression, inferred from declared variables. *)
let rec vec_width types e =
  match e with
  | Ident n -> (match Hashtbl.find_opt types n with
      | Some (TVec (_, w)) -> Some w
      | _ -> None)
  | Member (a, m) ->
    (match vec_width types a with
     | Some w ->
       (match Vm.Interp.vec_indices w m with
        | Some idx when List.length idx > 1 -> Some (List.length idx)
        | Some _ -> None
        | None -> None)
     | None -> None)
  | VecLit (TVec (_, w), _) -> Some w
  | Cast (TVec (_, w), _) -> Some w
  | Index (a, _) ->
    (match a with
     | Ident n ->
       (* parameters carry the address space inside the pointee:
          [__global int2 *p] is [TPtr (TQual (AS_global, int2))] *)
       (match Option.map unqual (Hashtbl.find_opt types n) with
        | Some (TPtr t) | Some (TArr (t, _)) ->
          (match unqual t with TVec (_, w) -> Some w | _ -> None)
        | _ -> None)
     | _ -> None)
  | Binary (_, a, b) ->
    (match vec_width types a with Some w -> Some w | None -> vec_width types b)
  | _ -> None

let scalar_of_vec types e =
  let rec go e =
    match e with
    | Ident n ->
      (match Option.map unqual (Hashtbl.find_opt types n) with
       | Some (TVec (s, _)) -> Some s
       | Some (TPtr t) | Some (TArr (t, _)) ->
         (match unqual t with TVec (s, _) -> Some s | _ -> None)
       | _ -> None)
    | Member (a, _) | Index (a, _) | Binary (_, a, _) | Cast (_, a) -> go a
    | VecLit (TVec (s, _), _) -> Some s
    | _ -> None
  in
  go e

(* Rewrite an rvalue vector-member expression into CUDA-legal form:
   v.lo (width 2) => make_float2(v.x, v.y); v.x stays. *)
let lower_member_rvalue types e m =
  match vec_width types e, e with
  | None, _ -> Member (e, m)
  | Some w, _ ->
    (match Vm.Interp.vec_indices w m with
     (* wide vectors are lowered to structs whose fields are s0..sf, so
        their single components keep the sN spelling *)
     | Some [ i ] when i < 4 && w <= 4 -> Member (e, comp_name i)
     | Some [ i ] -> Member (e, Printf.sprintf "s%c" (hexdig i))
     | Some idx ->
       let s = Option.value (scalar_of_vec types e) ~default:Float in
       let n = List.length idx in
       if n > 4 then
         raise (Untranslatable "wide sub-vector selection (lo/hi on float8)")
       else
         Call
           ( Printf.sprintf "make_%s%d" (Minic.Pretty.scalar_name s) n,
             [],
             List.map (fun i ->
                 if i < 4 then Member (e, comp_name i)
                 else Member (e, Printf.sprintf "s%c" (hexdig i)))
               idx )
     | None -> Member (e, m))

let lower_expr types (e : expr) : expr =
  map_expr
    (fun e ->
       match e with
       | Member (a, m) -> lower_member_rvalue types a m
       | VecLit (TVec (s, n), args) when n <= 4 ->
         (* (float4)(x) splat and (float4)(a,b,c,d) both become make_* ;
            splat repeats the single argument *)
         let args =
           if List.length args = 1 && n > 1 then
             List.init n (fun _ -> List.hd args)
           else args
         in
         Call (Printf.sprintf "make_%s%d" (Minic.Pretty.scalar_name s) n, [], args)
       | Call ("barrier", _, _) -> Call ("__syncthreads", [], [])
       | Call ("atomic_add", _, args) -> Call ("atomicAdd", [], args)
       | Call ("atomic_sub", _, args) -> Call ("atomicSub", [], args)
       | Call ("atomic_min", _, args) -> Call ("atomicMin", [], args)
       | Call ("atomic_max", _, args) -> Call ("atomicMax", [], args)
       | Call ("atomic_xchg", _, args) -> Call ("atomicExch", [], args)
       | Call ("atomic_cmpxchg", _, args) -> Call ("atomicCAS", [], args)
       | Call ("atomic_inc", _, args) ->
         (* different semantics (§3.7): OpenCL's unconditional increment
            is CUDA's atomicInc saturated at UINT_MAX *)
         Call ("atomicInc", [], args @ [ IntLit (0xFFFFFFFFL, UInt) ])
       | Call ("atomic_dec", _, args) ->
         Call ("atomicDec", [], args @ [ IntLit (0xFFFFFFFFL, UInt) ])
       | Call (("get_global_id" | "get_local_id" | "get_group_id"
               | "get_global_size" | "get_local_size" | "get_num_groups") as n,
               _, args) ->
         Call ("__oc2cu_" ^ n, [], args)
       | e -> e)
    e

(* Assignments whose left side selects several components must split
   into one statement per component (§3.6).  The right side is always
   evaluated once into a fresh temporary first: per-component
   re-evaluation would both duplicate side effects and — when source and
   target overlap, as in [v.wx = v.zw] — read components the earlier
   split statements already overwrote.  [sw] numbers the temporaries
   across one translation. *)
let split_multi_assign ~sw types (lhs : expr) op (rhs : expr) : stmt list option =
  match lhs with
  | Member (base, m) ->
    (match vec_width types base with
     | None -> None
     | Some w ->
       (match Vm.Interp.vec_indices w m with
        | Some idx when List.length idx > 1 ->
          let pick i =
            if i < 4 then comp_name i else Printf.sprintf "s%c" (hexdig i)
          in
          let base_scalar =
            Option.value (scalar_of_vec types base) ~default:Float
          in
          let direct rhs_comp =
            Some
              (List.mapi
                 (fun k i ->
                    SExpr (Assign (op, Member (base, pick i), rhs_comp k)))
                 idx)
          in
          let atomic = function
            | Ident _ | IntLit _ | FloatLit _ -> true
            | _ -> false
          in
          (* Fast paths: split directly when the RHS can be re-read per
             component without double side effects and without reading a
             component an earlier split assignment already wrote. *)
          (match rhs with
           | Member (Ident rb, rm)
             when (match vec_width types rhs with
                   | Some rw -> rw = List.length idx
                   | None -> false) ->
             let rw =
               match vec_width types (Ident rb) with Some w -> w | None -> 4
             in
             (match Vm.Interp.vec_indices rw rm with
              | Some ridx ->
                let overlap =
                  match base with
                  | Ident b when String.equal b rb ->
                    (* same vector: unsafe if any later read hits an
                       already-written component *)
                    List.exists
                      (fun k ->
                         let r = List.nth ridx k in
                         List.exists
                           (fun k' -> List.nth idx k' = r)
                           (List.init k (fun j -> j)))
                      (List.init (List.length idx) (fun j -> j))
                  | Ident _ -> false
                  | _ -> true
                in
                if overlap then None
                else
                  direct (fun k -> Member (Ident rb, pick (List.nth ridx k)))
              | None -> None)
           | _ when atomic rhs && vec_width types rhs = None ->
             direct (fun _ -> rhs)
           | _ -> None)
          |> (function
          | Some _ as fast -> fast
          | None ->
          incr sw;
          let tmp = Printf.sprintf "__oc2cu_sw%d" !sw in
          let tmp_ty, tmp_comp =
            match vec_width types rhs with
            | None ->
              (* scalar broadcast: every component gets the same value *)
              (TScalar base_scalar, fun _ -> Ident tmp)
            | Some _ ->
              let s = Option.value (scalar_of_vec types rhs) ~default:base_scalar in
              ( TVec (s, List.length idx),
                fun k -> Member (Ident tmp, pick k) )
          in
          let d =
            SDecl
              { d_name = tmp; d_ty = tmp_ty; d_storage = plain_storage;
                d_init = Some (IExpr rhs) }
          in
          Hashtbl.replace types tmp tmp_ty;
          Some
            (d
             :: List.mapi
                  (fun k i ->
                     SExpr (Assign (op, Member (base, pick i), tmp_comp k)))
                  idx))
        | _ -> None))
  | _ -> None

let rec lower_stmt ~sw types used_wide (s : stmt) : stmt list =
  match s with
  | SExpr (Assign (op, lhs, rhs)) ->
    (match split_multi_assign ~sw types lhs op rhs with
     | Some stmts ->
       List.concat_map (lower_stmt ~sw types used_wide) stmts
     | None -> [ SExpr (lower_expr types (Assign (op, lhs, rhs))) ])
  | SExpr e -> [ SExpr (lower_expr types e) ]
  | SDecl d ->
    let ty = lower_wide_ty used_wide d.d_ty in
    Hashtbl.replace types d.d_name d.d_ty;
    (* wide-vector literal initialisers become field assignments *)
    (match d.d_init, unqual d.d_ty with
     | Some (IExpr (VecLit (TVec (s, n), args))), _ when n > 4 ->
       let decl = SDecl { d with d_ty = ty; d_init = None } in
       let assigns =
         List.mapi
           (fun i a ->
              SExpr
                (Assign
                   ( None,
                     Member (Ident d.d_name, Printf.sprintf "s%c" (hexdig i)),
                     lower_expr types a )))
           (if List.length args = 1 then List.init n (fun _ -> List.hd args)
            else args)
       in
       ignore s;
       decl :: assigns
     | _ ->
       let init =
         Option.map
           (fun i ->
              let rec li = function
                | IExpr e -> IExpr (lower_expr types e)
                | IList l -> IList (List.map li l)
              in
              li i)
           d.d_init
       in
       [ SDecl { d with d_ty = ty; d_init = init } ])
  | SIf (c, a, b) ->
    [ SIf
        ( lower_expr types c,
          block (lower_stmt ~sw types used_wide a),
          Option.map (fun b -> block (lower_stmt ~sw types used_wide b)) b ) ]
  | SWhile (c, b) ->
    [ SWhile (lower_expr types c, block (lower_stmt ~sw types used_wide b)) ]
  | SDoWhile (b, c) ->
    [ SDoWhile (block (lower_stmt ~sw types used_wide b), lower_expr types c) ]
  | SFor (i, c, u, b) ->
    let i = Option.map (fun i -> block (lower_stmt ~sw types used_wide i)) i in
    [ SFor
        ( i,
          Option.map (lower_expr types) c,
          Option.map (lower_expr types) u,
          block (lower_stmt ~sw types used_wide b) ) ]
  | SReturn e -> [ SReturn (Option.map (lower_expr types) e) ]
  | SBreak -> [ SBreak ]
  | SContinue -> [ SContinue ]
  | SBlock l -> [ SBlock (List.concat_map (lower_stmt ~sw types used_wide) l) ]
  | SSite (id, s) ->
    (* keep the origin site over whatever the statement lowers to; wrap
       each lowered statement individually so a declaration that lowers
       to several statements is not confined to a fresh block scope *)
    List.map (fun s' -> SSite (id, s')) (lower_stmt ~sw types used_wide s)

and block = function
  | [ s ] -> s
  | l -> SBlock l

(* --- parameter lowering ---------------------------------------------- *)

let param_space (pa : param) =
  match pa.pa_space, pa.pa_ty with
  | (AS_local | AS_constant | AS_global), _ -> pa.pa_space
  | _, TPtr t -> type_space t
  | _ -> AS_none

let strip_param_qual (pa : param) =
  let rec strip t =
    match t with
    | TQual (_, u) -> strip u
    | TPtr u -> TPtr (strip u)
    | TConst u -> TConst (strip u)
    | t -> t
  in
  { pa with pa_space = AS_none; pa_ty = strip pa.pa_ty }

let pointee_ty (pa : param) =
  match unqual pa.pa_ty with
  | TPtr t | TArr (t, _) -> unqual t
  | t -> t

(* Turn one OpenCL kernel into a CUDA kernel. *)
let lower_kernel ~sw used_wide (f : func) : func * kernel_info =
  let types : (string, ty) Hashtbl.t = Hashtbl.create 16 in
  List.iter (fun pa -> Hashtbl.replace types pa.pa_name pa.pa_ty) f.fn_params;
  let roles =
    List.map
      (fun pa ->
         match param_space pa with
         | AS_local when is_pointer (unqual pa.pa_ty) || (match unqual pa.pa_ty with TArr _ -> true | _ -> false) -> P_local_size
         | AS_constant when is_pointer (unqual pa.pa_ty) -> P_const_size
         | _ -> P_keep)
      f.fn_params
  in
  let new_params =
    List.map2
      (fun pa role ->
         match role with
         | P_keep -> strip_param_qual pa
         | P_local_size | P_const_size ->
           { pa_name = pa.pa_name ^ "__size"; pa_ty = TScalar SizeT;
             pa_space = AS_none; pa_const = false })
      f.fn_params roles
  in
  (* pointer-deriving prologue, Fig. 5 *)
  let derive pool sp prev_sizes pa =
    let off =
      List.fold_left
        (fun acc s -> Binary (Add, acc, Ident s))
        (Ident pool) prev_sizes
    in
    ignore sp;
    SDecl
      { d_name = pa.pa_name;
        d_ty = TPtr (pointee_ty pa);
        d_storage = plain_storage;
        d_init = Some (IExpr (Cast (TPtr (pointee_ty pa), off))) }
  in
  let prologue =
    let rec go params roles local_seen const_seen acc =
      match params, roles with
      | [], [] -> List.rev acc
      | pa :: ps, r :: rs ->
        (match r with
         | P_local_size ->
           let st = derive shared_pool AS_local (List.rev local_seen) pa in
           go ps rs ((pa.pa_name ^ "__size") :: local_seen) const_seen (st :: acc)
         | P_const_size ->
           let st = derive const_pool AS_constant (List.rev const_seen) pa in
           go ps rs local_seen ((pa.pa_name ^ "__size") :: const_seen) (st :: acc)
         | P_keep -> go ps rs local_seen const_seen acc)
      | _ -> assert false
    in
    go f.fn_params roles [] [] []
  in
  List.iter
    (fun st ->
       match st with
       | SDecl d -> Hashtbl.replace types d.d_name d.d_ty
       | _ -> ())
    prologue;
  let body =
    match f.fn_body with
    | None -> None
    | Some body ->
      Some (prologue @ List.concat_map (lower_stmt ~sw types used_wide) body)
  in
  ( { f with fn_params = new_params; fn_body = body },
    { ki_name = f.fn_name; ki_roles = roles } )

let lower_helper ~sw used_wide (f : func) : func =
  let types : (string, ty) Hashtbl.t = Hashtbl.create 16 in
  List.iter (fun pa -> Hashtbl.replace types pa.pa_name pa.pa_ty) f.fn_params;
  { f with
    fn_params =
      List.map
        (fun pa ->
           let pa = strip_param_qual pa in
           { pa with pa_ty = lower_wide_ty used_wide pa.pa_ty })
        f.fn_params;
    fn_body =
      Option.map (List.concat_map (lower_stmt ~sw types used_wide)) f.fn_body }

(* --- whole-program translation ---------------------------------------- *)

let translate ?(attribute = false) (ocl : Minic.Ast.program) : result =
  Trace.Sink.with_span ~cat:Trace.Event.Xlat ~name:"xlat:ocl-to-cuda"
  @@ fun () ->
  (* attribution: tag source sites before lowering so origin ids ride
     through the translation; deterministic, so they match the ids a
     native run of the same source assigns *)
  let ocl = if attribute then Minic.Site.annotate ocl else ocl in
  let sw = ref 0 in
  let used_wide = ref [] in
  let infos = ref [] in
  let needs_shared_pool = ref false in
  let needs_const_pool = ref false in
  let tds =
    List.map
      (fun td ->
         match td with
         | TFunc f when f.fn_kind = FK_kernel ->
           let f', info = lower_kernel ~sw used_wide f in
           infos := info :: !infos;
           if List.mem P_local_size info.ki_roles then needs_shared_pool := true;
           if List.mem P_const_size info.ki_roles then needs_const_pool := true;
           TFunc f'
         | TFunc f -> TFunc (lower_helper ~sw used_wide f)
         | TVar d ->
           (* file-scope __constant stays; qualifier spelling is handled
              by the CUDA printer *)
           TVar { d with d_ty = lower_wide_ty used_wide d.d_ty }
         | TStruct (n, fs) ->
           TStruct (n, List.map (fun (fn, ft) -> (fn, lower_wide_ty used_wide ft)) fs)
         | TTypedef (n, t) -> TTypedef (n, lower_wide_ty used_wide t))
      ocl
  in
  let pool_decls =
    (if !needs_shared_pool then
       [ TVar
           { d_name = shared_pool;
             d_ty = TQual (AS_local, TArr (TScalar Char, None));
             d_storage = { plain_storage with s_extern = true };
             d_init = None } ]
     else [])
    @
    (if !needs_const_pool then
       [ TVar
           { d_name = const_pool;
             d_ty = TQual (AS_constant, TArr (TScalar Char, Some max_const_size));
             d_storage = plain_storage;
             d_init = None } ]
     else [])
  in
  let wide_defs =
    List.sort_uniq compare !used_wide
    |> List.map (fun (s, n) -> wide_struct_def s n)
  in
  let cuda_prog = wide_defs @ pool_decls @ prelude () @ tds in
  { cuda_prog =
      (* translator-injected top-level statements (prelude helpers,
         pointer-deriving prologues) charge to the overhead site *)
      (if attribute then Minic.Site.fill_overhead cuda_prog else cuda_prog);
    kernels = List.rev !infos }

(* Source-to-source entry point: kernel.cl -> kernel.cl.cu (Fig. 2). *)
let translate_source ?attribute (src : string) : string * result =
  Trace.Sink.with_span ~cat:Trace.Event.Xlat ~name:"xlat:ocl-to-cuda:source"
    ~args:[ ("bytes", string_of_int (String.length src)) ]
  @@ fun () ->
  let ocl = Minic.Parser.program ~dialect:Minic.Parser.OpenCL src in
  let r = translate ?attribute ocl in
  (Minic.Pretty.program_str Minic.Pretty.Cuda r.cuda_prog, r)
