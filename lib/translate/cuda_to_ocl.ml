(* CUDA-to-OpenCL translation (paper §3.4-§5, Figure 3).

   The translator splits a .cu program into an OpenCL device program
   (main.cu.cl) and a host program (main.cu.cpp).  The host code is left
   untouched except for the three constructs that cannot be wrapped:
   kernel calls (<<<...>>>), cudaMemcpyToSymbol() and
   cudaMemcpyFromSymbol().  Everything else keeps calling cuda* functions
   which the wrapper runtime (Bridge.Cuda_on_cl) implements over OpenCL.

   Device-side rules implemented here:
   - __global__/__device__ qualifiers -> __kernel / plain functions;
   - pointer kernel parameters gain address-space qualifiers inferred
     from use (§3.6), cloning a declaration when one pointer sees
     several spaces;
   - extern __shared__ arrays become dynamic __local parameters (§4.1);
   - runtime-initialised __constant__ and all __device__ globals become
     kernel parameters backed by buffers (§4.2, §4.3);
   - texture references become image + sampler parameters and tex*()
     fetches become read_image*() (§5);
   - templates are specialised, references become pointers, C++ casts
     become C casts (§3.6);
   - one-component vectors become scalars and longlong vectors become
     long vectors (§3.6);
   - atomicInc/atomicDec keep CUDA's wrap-around semantics via an
     emitted compare-and-swap helper (§3.7). *)

open Minic.Ast

exception Untranslatable of string

let fail fmt = Printf.ksprintf (fun s -> raise (Untranslatable s)) fmt

(* ------------------------------------------------------------------ *)
(* Metadata shared with the wrapper runtime                            *)
(* ------------------------------------------------------------------ *)

type sym_info = {
  sy_name : string;
  sy_space : addr_space;          (* AS_global or AS_constant *)
  sy_ty : ty;
}

type tex_info = {
  tx_name : string;
  tx_dim : int;
  tx_scalar : scalar;
  tx_mode : read_mode;
}

type kmeta = {
  km_name : string;
  km_dynshared : string option;   (* name of the added __local param *)
  km_symbols : string list;       (* appended symbol params, in order *)
  km_textures : string list;      (* appended texture params, in order *)
}

type result = {
  cl_prog : Minic.Ast.program;
  host_prog : Minic.Ast.program;
  kmetas : kmeta list;
  symbols : sym_info list;
  textures : tex_info list;
}

(* ------------------------------------------------------------------ *)
(* Small helpers                                                       *)
(* ------------------------------------------------------------------ *)

let idents_of_body body =
  fold_body_exprs
    (fun acc e -> match e with Ident n -> n :: acc | _ -> acc)
    [] body

(* longlong -> long; one-component vectors -> scalars (§3.6). *)
let rec lower_vec_ty t =
  match t with
  | TVec (s, 1) -> TScalar (lower_longlong s)
  | TVec (s, n) -> TVec (lower_longlong s, n)
  | TScalar s -> TScalar (lower_longlong s)
  | TPtr u -> TPtr (lower_vec_ty u)
  | TRef u -> TRef (lower_vec_ty u)
  | TArr (u, n) -> TArr (lower_vec_ty u, n)
  | TQual (sp, u) -> TQual (sp, lower_vec_ty u)
  | TConst u -> TConst (lower_vec_ty u)
  | t -> t

and lower_longlong = function
  | LongLong -> Long
  | ULongLong -> ULong
  | s -> s

(* ------------------------------------------------------------------ *)
(* Address-space inference for pointers (§3.6)                         *)
(* ------------------------------------------------------------------ *)

(* Environment: variable -> address space of the data it references. *)
type space_env = (string, addr_space) Hashtbl.t

let rec expr_space (env : space_env) (e : expr) : addr_space =
  match e with
  | Ident n -> Option.value (Hashtbl.find_opt env n) ~default:AS_none
  | Index (a, _) | Member (a, _) -> expr_space env a
  | Unary ((Deref | Addrof | Preinc | Predec | Postinc | Postdec), a) ->
    expr_space env a
  | Unary (_, a) -> expr_space env a
  | Binary ((Add | Sub), a, b) ->
    let sa = expr_space env a in
    if sa <> AS_none then sa else expr_space env b
  | Cast (_, a) | StaticCast (_, a) | ReinterpretCast (_, a) -> expr_space env a
  | Cond (_, a, b) ->
    let sa = expr_space env a in
    if sa <> AS_none then sa else expr_space env b
  | Assign (_, _, b) -> expr_space env b
  | _ -> AS_none

(* Collect, for each pointer-typed local variable of a kernel, the set of
   address spaces it is made to point into. *)
let pointer_spaces (env : space_env) body : (string, addr_space list) Hashtbl.t =
  let acc : (string, addr_space list) Hashtbl.t = Hashtbl.create 8 in
  let note name sp =
    if sp <> AS_none then begin
      let old = Option.value (Hashtbl.find_opt acc name) ~default:[] in
      if not (List.mem sp old) then Hashtbl.replace acc name (sp :: old)
    end
  in
  let rec walk s =
    match s with
    | SDecl d when is_pointer (unqual d.d_ty) ->
      (match d.d_init with
       | Some (IExpr e) -> note d.d_name (expr_space env e)
       | _ -> ())
    | SDecl _ -> ()
    | SExpr (Assign (None, Ident n, rhs)) -> note n (expr_space env rhs)
    | SExpr _ | SReturn _ | SBreak | SContinue -> ()
    | SIf (_, a, b) -> walk a; Option.iter walk b
    | SWhile (_, b) | SDoWhile (b, _) -> walk b
    | SFor (i, _, _, b) -> Option.iter walk i; walk b
    | SBlock l -> List.iter walk l
    | SSite (_, s) -> walk s
  in
  List.iter walk body;
  acc

(* ------------------------------------------------------------------ *)
(* Expression rewriting                                                *)
(* ------------------------------------------------------------------ *)

let dim_call fn d = Call (fn, [], [ int_lit d ])

let dim_index = function
  | "x" -> 0
  | "y" -> 1
  | "z" -> 2
  | m -> fail "unknown builtin component .%s" m

(* texture info lookup is threaded through rewriting *)
type rw_env = {
  textures : (string, tex_info) Hashtbl.t;
  one_comp_vars : (string, unit) Hashtbl.t;  (* float1 vars turned scalar *)
  mutable uses_bounded_atomics : bool;
}

let read_image_fn sc =
  if is_float_scalar sc then "read_imagef"
  else if is_unsigned sc then "read_imageui"
  else "read_imagei"

let rewrite_expr (rw : rw_env) (e : expr) : expr =
  map_expr
    (fun e ->
       match e with
       (* builtin index variables *)
       | Member (Ident "threadIdx", m) -> dim_call "get_local_id" (dim_index m)
       | Member (Ident "blockIdx", m) -> dim_call "get_group_id" (dim_index m)
       | Member (Ident "blockDim", m) -> dim_call "get_local_size" (dim_index m)
       | Member (Ident "gridDim", m) -> dim_call "get_num_groups" (dim_index m)
       (* .x on a one-component vector variable collapses to the scalar *)
       | Member (Ident v, "x") when Hashtbl.mem rw.one_comp_vars v -> Ident v
       (* barriers *)
       | Call ("__syncthreads", _, _) ->
         Call ("barrier", [], [ Ident "CLK_LOCAL_MEM_FENCE" ])
       | Call ("__threadfence", _, _) | Call ("__threadfence_block", _, _) ->
         Call ("mem_fence", [], [ Ident "CLK_GLOBAL_MEM_FENCE" ])
       (* atomics *)
       | Call ("atomicAdd", _, args) -> Call ("atomic_add", [], args)
       | Call ("atomicSub", _, args) -> Call ("atomic_sub", [], args)
       | Call ("atomicMin", _, args) -> Call ("atomic_min", [], args)
       | Call ("atomicMax", _, args) -> Call ("atomic_max", [], args)
       | Call ("atomicExch", _, args) -> Call ("atomic_xchg", [], args)
       | Call ("atomicCAS", _, args) -> Call ("atomic_cmpxchg", [], args)
       | Call ("atomicInc", _, args) ->
         (* CUDA wraps at the bound; OpenCL atomic_inc does not (§3.7) *)
         rw.uses_bounded_atomics <- true;
         Call ("__c2o_atomic_inc_bounded", [], args)
       | Call ("atomicDec", _, args) ->
         rw.uses_bounded_atomics <- true;
         Call ("__c2o_atomic_dec_bounded", [], args)
       (* C++ casts (§3.6) *)
       | StaticCast (t, a) -> Cast (lower_vec_ty t, a)
       | ReinterpretCast (t, a) -> Cast (lower_vec_ty t, a)
       | Cast (t, a) -> Cast (lower_vec_ty t, a)
       (* make_float1(x) -> x;  make_float4 -> vector literal *)
       | Call (name, [], args)
         when String.length name > 5 && String.sub name 0 5 = "make_" ->
         let tyname = String.sub name 5 (String.length name - 5) in
         (match Minic.Parser.vector_of_name tyname with
          | Some (_, 1) -> (match args with [ a ] -> a | _ -> e)
          | Some (s, n) -> VecLit (TVec (lower_longlong s, n), args)
          | None -> e)
       (* texture fetches (§5) *)
       | Call ("tex1Dfetch", _, (Ident tname :: coord)) ->
         (match Hashtbl.find_opt rw.textures tname with
          | Some tx ->
            Member
              ( Call
                  ( read_image_fn
                      (if tx.tx_mode = RM_normalized_float then Float
                       else tx.tx_scalar),
                    [],
                    [ Ident (tname ^ "_img"); Ident (tname ^ "_smp") ] @ coord ),
                "x" )
          | None -> fail "tex1Dfetch on unknown texture %s" tname)
       | Call (("tex1D" | "tex2D" | "tex3D"), _, (Ident tname :: coords)) ->
         (match Hashtbl.find_opt rw.textures tname with
          | Some tx ->
            let coord =
              match coords with
              | [ x ] -> Cast (TScalar Int, x)
              | [ x; y ] -> VecLit (TVec (Int, 2), [ Cast (TScalar Int, x); Cast (TScalar Int, y) ])
              | [ x; y; z ] ->
                VecLit
                  ( TVec (Int, 4),
                    [ Cast (TScalar Int, x); Cast (TScalar Int, y);
                      Cast (TScalar Int, z); int_lit 0 ] )
              | _ -> fail "bad texture fetch arity on %s" tname
            in
            Member
              ( Call
                  ( read_image_fn
                      (if tx.tx_mode = RM_normalized_float then Float
                       else tx.tx_scalar),
                    [],
                    [ Ident (tname ^ "_img"); Ident (tname ^ "_smp"); coord ] ),
                "x" )
          | None -> fail "texture fetch on unknown texture %s" tname)
       | e -> e)
    e

let bounded_atomics_src = {|
int __c2o_atomic_inc_bounded(volatile __global unsigned int* p, unsigned int bound) {
  unsigned int old = p[0];
  unsigned int assumed = 0;
  unsigned int fresh = 0;
  do {
    assumed = old;
    if (assumed >= bound) { fresh = 0; } else { fresh = assumed + 1; }
    old = atomic_cmpxchg(p, assumed, fresh);
  } while (old != assumed);
  return old;
}
int __c2o_atomic_dec_bounded(volatile __global unsigned int* p, unsigned int bound) {
  unsigned int old = p[0];
  unsigned int assumed = 0;
  unsigned int fresh = 0;
  do {
    assumed = old;
    if (assumed == 0 || assumed > bound) { fresh = bound; } else { fresh = assumed - 1; }
    old = atomic_cmpxchg(p, assumed, fresh);
  } while (old != assumed);
  return old;
}
|}

(* ------------------------------------------------------------------ *)
(* Statement rewriting inside device functions                         *)
(* ------------------------------------------------------------------ *)

let rewrite_stmts rw body = List.map (map_stmt ~expr:(fun e -> e) ~stmt:(fun s -> s)) body
  |> fun body ->
  (* full statement rewrite: expressions via rewrite_expr, declaration
     types via lower_vec_ty, dropping extern __shared__ declarations *)
  let rec go s =
    match s with
    | SDecl d when d.d_storage.s_extern && type_space d.d_ty = AS_local ->
      SBlock []     (* becomes a kernel parameter instead *)
    | SDecl d ->
      let d_ty = lower_vec_ty d.d_ty in
      (match unqual d.d_ty with
       | TVec (_, 1) -> Hashtbl.replace rw.one_comp_vars d.d_name ()
       | _ -> ());
      let rec ri = function
        | IExpr e -> IExpr (rewrite_expr rw e)
        | IList l -> IList (List.map ri l)
      in
      SDecl { d with d_ty; d_init = Option.map ri d.d_init }
    | SExpr e -> SExpr (rewrite_expr rw e)
    | SIf (c, a, b) -> SIf (rewrite_expr rw c, go a, Option.map go b)
    | SWhile (c, b) -> SWhile (rewrite_expr rw c, go b)
    | SDoWhile (b, c) -> SDoWhile (go b, rewrite_expr rw c)
    | SFor (i, c, u, b) ->
      SFor (Option.map go i, Option.map (rewrite_expr rw) c,
            Option.map (rewrite_expr rw) u, go b)
    | SReturn e -> SReturn (Option.map (rewrite_expr rw) e)
    | SBreak | SContinue -> s
    | SBlock l -> SBlock (List.map go l)
    | SSite (id, s) -> SSite (id, go s)
  in
  List.map go body

(* ------------------------------------------------------------------ *)
(* Reference parameters (§3.6)                                         *)
(* ------------------------------------------------------------------ *)

(* T& p  ->  T* p with p replaced by *p in the body; call sites pass &a. *)
let lower_reference_params (f : func) : func * bool list =
  let ref_flags =
    List.map (fun pa -> match unqual pa.pa_ty with TRef _ -> true | _ -> false)
      f.fn_params
  in
  if not (List.mem true ref_flags) then (f, ref_flags)
  else begin
    let ref_names =
      List.filteri (fun i _ -> List.nth ref_flags i) f.fn_params
      |> List.map (fun pa -> pa.pa_name)
    in
    let params =
      List.map
        (fun pa ->
           match unqual pa.pa_ty with
           | TRef t -> { pa with pa_ty = TPtr t }
           | _ -> pa)
        f.fn_params
    in
    (* map_stmt already applies the rewrite bottom-up over expressions *)
    let rewrite = function
      | Ident n when List.mem n ref_names -> Unary (Deref, Ident n)
      | e -> e
    in
    let body =
      Option.map
        (List.map (map_stmt ~expr:rewrite ~stmt:(fun s -> s)))
        f.fn_body
    in
    ({ f with fn_params = params; fn_body = body }, ref_flags)
  end

(* After every device function is lowered, call sites of functions that
   had reference parameters must pass addresses. *)
let fix_reference_call_sites (decls : topdecl list) (flags : (string * bool list) list) =
  let fix = function
    | Call (n, ts, args) as e ->
      (match List.assoc_opt n flags with
       | Some fl when List.mem true fl ->
         Call
           ( n, ts,
             List.mapi
               (fun i a ->
                  if (try List.nth fl i with _ -> false) then Unary (Addrof, a)
                  else a)
               args )
       | _ -> e)
    | e -> e
  in
  List.map
    (function
      | TFunc f ->
        TFunc
          { f with
            fn_body =
              Option.map
                (List.map (map_stmt ~expr:fix ~stmt:(fun s -> s)))
                f.fn_body }
      | td -> td)
    decls

(* ------------------------------------------------------------------ *)
(* Template specialisation (§3.6)                                      *)
(* ------------------------------------------------------------------ *)

let collect_instantiations (prog : Minic.Ast.program) =
  let insts = ref [] in
  let note name tys = if tys <> [] then insts := (name, tys) :: !insts in
  List.iter
    (function
      | TFunc { fn_body = Some body; _ } ->
        List.iter
          (fun s ->
             ignore
               (map_stmt
                  ~expr:(fun e ->
                      (match e with
                       | Call (n, tys, _) -> note n tys
                       | Launch l -> note l.l_kernel l.l_tmpl
                       | _ -> ());
                      e)
                  ~stmt:(fun s -> s) s))
          body
      | _ -> ())
    prog;
  List.sort_uniq compare !insts

let specialize_templates (prog : Minic.Ast.program) : Minic.Ast.program =
  let template_names =
    List.filter_map
      (fun f -> if f.fn_tmpl <> [] then Some f.fn_name else None)
      (functions prog)
  in
  (* explicit type arguments on runtime API calls
     (cudaCreateChannelDesc<float>()) are not instantiations of program
     templates and must be left alone *)
  let insts =
    List.filter
      (fun (n, _) -> List.mem n template_names)
      (collect_instantiations prog)
  in
  let rewritten =
    List.concat_map
      (function
        | TFunc f when f.fn_tmpl <> [] ->
          let mine = List.filter (fun (n, _) -> n = f.fn_name) insts in
          if mine = [] then []
          else List.map (fun (_, tys) -> TFunc (Minic.Specialize.func f tys)) mine
        | td -> [ td ])
      prog
  in
  (* rewrite call/launch sites to the mangled names *)
  let fix e =
    match e with
    | Call (n, (_ :: _ as tys), args)
      when List.exists (fun (n', t') -> n' = n && t' = tys) insts ->
      Call (Minic.Specialize.mangle n tys, [], args)
    | Launch l when l.l_tmpl <> [] ->
      Launch { l with l_kernel = Minic.Specialize.mangle l.l_kernel l.l_tmpl; l_tmpl = [] }
    | e -> e
  in
  List.map
    (function
      | TFunc f ->
        TFunc { f with fn_body = Option.map (List.map (map_stmt ~expr:fix ~stmt:(fun s -> s))) f.fn_body }
      | td -> td)
    rewritten

(* ------------------------------------------------------------------ *)
(* Kernel lowering                                                     *)
(* ------------------------------------------------------------------ *)

let qualify_pointer_param sp (pa : param) =
  match unqual pa.pa_ty with
  | TPtr t -> { pa with pa_ty = TPtr (TQual (sp, unqual t)); pa_space = AS_none }
  | _ -> pa

(* Infer the space a pointer parameter should carry.  Without
   inter-procedural information CUDA kernel pointer args are global. *)
let default_param_space = AS_global

let lower_kernel rw ~symbols ~textures_used ?(file_dynshared = []) (f : func) :
  func * kmeta =
  let body = Option.value f.fn_body ~default:[] in
  (* find the extern __shared__ declaration, if any *)
  let dynshared =
    let rec find s =
      match s with
      | SDecl d when d.d_storage.s_extern && type_space d.d_ty = AS_local ->
        let elt =
          match unqual d.d_ty with
          | TArr (t, _) | TPtr t -> unqual t
          | t -> t
        in
        Some (d.d_name, elt)
      | SBlock l -> List.fold_left (fun acc s -> match acc with Some _ -> acc | None -> find s) None l
      | SIf (_, a, b) ->
        (match find a with
         | Some r -> Some r
         | None -> Option.bind b find)
      | SFor (_, _, _, b) | SWhile (_, b) | SDoWhile (b, _) -> find b
      | SSite (_, s) -> find s
      | _ -> None
    in
    List.fold_left
      (fun acc s -> match acc with Some _ -> acc | None -> find s)
      None body
  in
  (* which runtime symbols and textures does this kernel use? *)
  let used = idents_of_body body in
  (* a file-scope [extern __shared__] pool (as emitted by the reverse,
     OpenCL-to-CUDA, pass) referenced by this kernel acts exactly like an
     in-body extern __shared__ declaration *)
  let dynshared =
    match dynshared with
    | Some _ -> dynshared
    | None ->
      List.find_opt (fun (n, _) -> List.mem n used) file_dynshared
  in
  let my_symbols =
    List.filter (fun sy -> List.mem sy.sy_name used) symbols
    |> List.map (fun sy -> sy.sy_name)
    |> List.sort_uniq compare
  in
  let my_textures =
    List.filter (fun tx -> List.mem tx.tx_name used) textures_used
    |> List.map (fun tx -> tx.tx_name)
    |> List.sort_uniq compare
  in
  (* space inference for local pointers, with the kernel params global *)
  let env : space_env = Hashtbl.create 16 in
  List.iter
    (fun pa ->
       if is_pointer (unqual pa.pa_ty) then
         Hashtbl.replace env pa.pa_name default_param_space)
    f.fn_params;
  (match dynshared with
   | Some (n, _) -> Hashtbl.replace env n AS_local
   | None -> ());
  List.iter (fun sy -> Hashtbl.replace env sy.sy_name sy.sy_space) symbols;
  (* local arrays in __shared__ space *)
  let rec note_decls s =
    match s with
    | SDecl d when type_space d.d_ty = AS_local || d.d_storage.s_space = AS_local ->
      Hashtbl.replace env d.d_name AS_local
    | SBlock l -> List.iter note_decls l
    | SIf (_, a, b) -> note_decls a; Option.iter note_decls b
    | SFor (_, _, _, b) | SWhile (_, b) | SDoWhile (b, _) -> note_decls b
    | SSite (_, s) -> note_decls s
    | _ -> ()
  in
  List.iter note_decls body;
  let ptr_spaces = pointer_spaces env body in
  (* annotate pointer declarations with the inferred space; pointers that
     see several spaces are cloned, one declaration per space, and each
     assignment retargets its clone (§3.6) *)
  let clone_name n sp =
    Printf.sprintf "%s__%s" n
      (match sp with
       | AS_local -> "loc" | AS_global -> "glb" | AS_constant -> "cst"
       | AS_private -> "prv" | AS_none -> "gen")
  in
  let multi =
    Hashtbl.fold
      (fun n sps acc -> if List.length sps > 1 then (n, sps) :: acc else acc)
      ptr_spaces []
  in
  let current_clone : (string, string) Hashtbl.t = Hashtbl.create 4 in
  let rec fix_ptr_stmt s =
    match s with
    | SDecl d when is_pointer (unqual d.d_ty) ->
      (match List.assoc_opt d.d_name multi with
       | Some sps ->
         (* one declaration per space; initialiser (if any) goes to the
            clone matching its space *)
         let init_space =
           match d.d_init with
           | Some (IExpr e) -> expr_space env e
           | _ -> AS_none
         in
         SBlock
           (List.map
              (fun sp ->
                 let pointee =
                   match unqual d.d_ty with TPtr t -> unqual t | t -> t
                 in
                 let init =
                   if sp = init_space then begin
                     Hashtbl.replace current_clone d.d_name (clone_name d.d_name sp);
                     Option.map
                       (function
                         | IExpr e -> IExpr (rewrite_uses e)
                         | i -> i)
                       d.d_init
                   end
                   else None
                 in
                 SDecl
                   { d_name = clone_name d.d_name sp;
                     d_ty = TPtr (TQual (sp, pointee));
                     d_storage = plain_storage;
                     d_init = init })
              (List.rev sps))
       | None ->
         let sp =
           match Hashtbl.find_opt ptr_spaces d.d_name with
           | Some [ sp ] -> sp
           | _ -> AS_global
         in
         let pointee = match unqual d.d_ty with TPtr t -> unqual t | t -> t in
         SDecl
           { d with
             d_ty = TPtr (TQual (sp, pointee));
             d_init =
               Option.map
                 (function IExpr e -> IExpr (rewrite_uses e) | i -> i)
                 d.d_init })
    | SExpr (Assign (None, Ident n, rhs)) when List.mem_assoc n multi ->
      let sp = expr_space env rhs in
      let cn = clone_name n sp in
      Hashtbl.replace current_clone n cn;
      SExpr (Assign (None, Ident cn, rewrite_uses rhs))
    | SExpr e -> SExpr (rewrite_uses e)
    | SDecl d ->
      SDecl
        { d with
          d_init =
            Option.map
              (let rec ri = function
                 | IExpr e -> IExpr (rewrite_uses e)
                 | IList l -> IList (List.map ri l)
               in
               ri)
              d.d_init }
    | SIf (c, a, b) ->
      let c = rewrite_uses c in
      let a = fix_ptr_stmt a in
      let b = Option.map fix_ptr_stmt b in
      SIf (c, a, b)
    | SWhile (c, b) -> SWhile (rewrite_uses c, fix_ptr_stmt b)
    | SDoWhile (b, c) -> SDoWhile (fix_ptr_stmt b, rewrite_uses c)
    | SFor (i, c, u, b) ->
      SFor (Option.map fix_ptr_stmt i, Option.map rewrite_uses c,
            Option.map rewrite_uses u, fix_ptr_stmt b)
    | SReturn e -> SReturn (Option.map rewrite_uses e)
    | SBreak | SContinue -> s
    | SBlock l -> SBlock (List.map fix_ptr_stmt l)
    | SSite (id, s) -> SSite (id, fix_ptr_stmt s)
  and rewrite_uses e =
    map_expr
      (function
        | Ident n when Hashtbl.mem current_clone n -> Ident (Hashtbl.find current_clone n)
        | e -> e)
      e
  in
  let body = List.map fix_ptr_stmt body in
  (* expression-level rewriting (builtins, atomics, textures, casts) *)
  let body = rewrite_stmts rw body in
  (* parameters: pointers gain __global; vector types are lowered *)
  let params =
    List.map
      (fun pa ->
         let pa = { pa with pa_ty = lower_vec_ty pa.pa_ty } in
         if is_pointer (unqual pa.pa_ty) then
           qualify_pointer_param default_param_space pa
         else pa)
      f.fn_params
  in
  (* appended parameters, in this fixed order (the host rewrite and the
     wrapper runtime rely on it): dynshared, symbols, textures *)
  let dyn_param =
    match dynshared with
    | Some (n, elt) ->
      [ { pa_name = n; pa_ty = TPtr (TQual (AS_local, lower_vec_ty elt));
          pa_space = AS_none; pa_const = false } ]
    | None -> []
  in
  let sym_params =
    List.map
      (fun n ->
         let sy = List.find (fun sy -> sy.sy_name = n) symbols in
         let elt =
           match unqual sy.sy_ty with
           | TArr (t, _) -> unqual t
           | t -> t
         in
         { pa_name = n; pa_ty = TPtr (TQual (sy.sy_space, lower_vec_ty elt));
           pa_space = AS_none; pa_const = false })
      my_symbols
  in
  let tex_params =
    List.concat_map
      (fun n ->
         let tx = List.find (fun t -> t.tx_name = n) textures_used in
         [ { pa_name = n ^ "_img"; pa_ty = TImage (max 1 tx.tx_dim);
             pa_space = AS_none; pa_const = false };
           { pa_name = n ^ "_smp"; pa_ty = TSampler;
             pa_space = AS_none; pa_const = false } ])
      my_textures
  in
  ( { f with
      fn_params = params @ dyn_param @ sym_params @ tex_params;
      fn_body = Some body;
      fn_tmpl = [] },
    { km_name = f.fn_name;
      km_dynshared = Option.map fst dynshared;
      km_symbols = my_symbols;
      km_textures = my_textures } )

(* ------------------------------------------------------------------ *)
(* Host-side rewriting: the three special cases (§3.2)                 *)
(* ------------------------------------------------------------------ *)

let host_launch_seq (kmetas : kmeta list) (l : launch) : stmt =
  let km =
    match List.find_opt (fun k -> k.km_name = l.l_kernel) kmetas with
    | Some km -> km
    | None -> fail "launch of unknown kernel %s" l.l_kernel
  in
  let kvar = "__k_" ^ l.l_kernel in
  let stmts = ref [] in
  let emit s = stmts := s :: !stmts in
  emit
    (SDecl
       { d_name = kvar; d_ty = TNamed "cl_kernel"; d_storage = plain_storage;
         d_init = Some (IExpr (Call ("__c2o_kernel", [], [ StrLit l.l_kernel ]))) });
  (* original arguments *)
  let n_orig = List.length l.l_args in
  List.iteri
    (fun i arg ->
       emit
         (SExpr
            (Call
               ( "__c2o_set_arg", [],
                 [ Ident kvar; int_lit i; arg ]))))
    l.l_args;
  let next = ref n_orig in
  (* dynamic shared memory becomes clSetKernelArg(k, i, size, NULL) *)
  (match km.km_dynshared with
   | Some _ ->
     let size = Option.value l.l_shmem ~default:(int_lit 0) in
     emit
       (SExpr
          (Call
             ( "clSetKernelArg", [],
               [ Ident kvar; int_lit !next; size; int_lit 0 ])));
     incr next
   | None -> ());
  (* symbol-backed parameters *)
  List.iter
    (fun sy ->
       emit
         (SExpr
            (Call
               ( "__c2o_set_symbol_arg", [],
                 [ Ident kvar; int_lit !next; StrLit sy ])));
       incr next)
    km.km_symbols;
  (* texture image + sampler parameters *)
  List.iter
    (fun tx ->
       emit
         (SExpr
            (Call
               ( "__c2o_set_texture_args", [],
                 [ Ident kvar; int_lit !next; StrLit tx ])));
       next := !next + 2)
    km.km_textures;
  (* NDRange = grid x block (Fig. 1) *)
  emit
    (SDecl
       { d_name = "__gws"; d_ty = TArr (TScalar SizeT, Some 3);
         d_storage = plain_storage; d_init = None });
  emit
    (SDecl
       { d_name = "__lws"; d_ty = TArr (TScalar SizeT, Some 3);
         d_storage = plain_storage; d_init = None });
  emit
    (SExpr
       (Call
          ( "__c2o_fill_dims", [],
            [ l.l_grid; l.l_block; Ident "__gws"; Ident "__lws" ])));
  emit
    (SExpr
       (Call
          ( "clEnqueueNDRangeKernel", [],
            [ Call ("__c2o_queue", [], []); Ident kvar; int_lit 3; int_lit 0;
              Ident "__gws"; Ident "__lws"; int_lit 0; int_lit 0; int_lit 0 ])));
  SBlock (List.rev !stmts)

let rewrite_host_stmt kmetas s =
  let rec go s =
    match s with
    | SExpr (Launch l) -> host_launch_seq kmetas l
    | SExpr (Call ("cudaMemcpyToSymbol", _, (Ident sym :: rest))) ->
      SExpr (Call ("__c2o_memcpy_to_symbol", [], StrLit sym :: rest))
    | SExpr (Call ("cudaMemcpyFromSymbol", _, dst :: Ident sym :: rest)) ->
      SExpr (Call ("__c2o_memcpy_from_symbol", [], dst :: StrLit sym :: rest))
    (* the texture reference argument is an identifier naming a device
       symbol; only that position becomes a string *)
    | SExpr (Call ("cudaBindTexture", _, (offset :: Ident tex :: rest))) ->
      SExpr (Call ("cudaBindTexture", [], offset :: StrLit tex :: rest))
    | SExpr (Call (("cudaBindTextureToArray" | "cudaUnbindTexture") as fn, _,
                   (Ident tex :: rest))) ->
      SExpr (Call (fn, [], StrLit tex :: rest))
    | SIf (c, a, b) -> SIf (c, go a, Option.map go b)
    | SWhile (c, b) -> SWhile (c, go b)
    | SDoWhile (b, c) -> SDoWhile (go b, c)
    | SFor (i, c, u, b) -> SFor (Option.map go i, c, u, go b)
    | SBlock l -> SBlock (List.map go l)
    | SSite (id, s) -> SSite (id, go s)
    | s -> s
  in
  go s

(* Texture name arguments inside cudaBindTexture calls must keep their
   identity even though the texture declaration lives in device code. *)

(* ------------------------------------------------------------------ *)
(* Whole-program translation                                           *)
(* ------------------------------------------------------------------ *)

let is_device_fn f =
  match f.fn_kind with
  | FK_kernel | FK_device -> true
  | FK_host -> false
  | FK_host_device -> true    (* emitted on both sides *)

let translate ?(attribute = false) (cuda : Minic.Ast.program) : result =
  Trace.Sink.with_span ~cat:Trace.Event.Xlat ~name:"xlat:cuda-to-ocl"
  @@ fun () ->
  (* attribution: tag source sites before lowering so origin ids ride
     through the translation and match a native run of the same source *)
  let cuda = if attribute then Minic.Site.annotate cuda else cuda in
  let cuda = specialize_templates cuda in
  (* partition *)
  let textures =
    List.filter_map
      (function
        | TVar d ->
          (match unqual d.d_ty with
           | TTexture (sc, dim, mode) ->
             Some { tx_name = d.d_name; tx_dim = dim; tx_scalar = sc; tx_mode = mode }
           | _ -> None)
        | _ -> None)
      cuda
  in
  let tex_tbl = Hashtbl.create 8 in
  List.iter (fun tx -> Hashtbl.replace tex_tbl tx.tx_name tx) textures;
  (* device globals: which become parameters (§4.2/§4.3)? *)
  let symbols =
    List.filter_map
      (function
        | TVar d ->
          let space =
            if type_space d.d_ty <> AS_none then type_space d.d_ty
            else d.d_storage.s_space
          in
          (match space, d.d_init with
           | AS_constant, Some _ -> None      (* static init: stays __constant *)
           | AS_constant, None ->
             Some { sy_name = d.d_name; sy_space = AS_constant; sy_ty = d.d_ty }
           | AS_global, _ ->
             Some { sy_name = d.d_name; sy_space = AS_global; sy_ty = lower_vec_ty d.d_ty }
           | _ -> None)
        | _ -> None)
      cuda
  in
  let rw =
    { textures = tex_tbl;
      one_comp_vars = Hashtbl.create 4;
      uses_bounded_atomics = false }
  in
  let kmetas = ref [] in
  let device_decls = ref [] in
  let host_decls = ref [] in
  let ref_flags = ref [] in
  (* file-scope [extern __shared__ char pool[]] declarations become the
     dynamic-shared pool of whichever kernels reference them *)
  let file_dynshared =
    List.filter_map
      (function
        | TVar d when d.d_storage.s_extern && type_space d.d_ty = AS_local ->
          let elt =
            match unqual d.d_ty with
            | TArr (t, _) | TPtr t -> unqual t
            | t -> t
          in
          Some (d.d_name, elt)
        | _ -> None)
      cuda
  in
  List.iter
    (fun td ->
       match td with
       | TFunc f when f.fn_kind = FK_kernel ->
         let f, flags = lower_reference_params f in
         ref_flags := (f.fn_name, flags) :: !ref_flags;
         let f', km =
           lower_kernel rw ~symbols ~textures_used:textures ~file_dynshared f
         in
         kmetas := km :: !kmetas;
         device_decls := TFunc f' :: !device_decls
       | TFunc f when is_device_fn f ->
         if f.fn_tmpl <> [] then () (* un-instantiated template: drop *)
         else begin
           let f, flags = lower_reference_params f in
           ref_flags := (f.fn_name, flags) :: !ref_flags;
           let body = Option.map (rewrite_stmts rw) f.fn_body in
           let params =
             List.map (fun pa -> { pa with pa_ty = lower_vec_ty pa.pa_ty }) f.fn_params
           in
           device_decls :=
             TFunc { f with fn_body = body; fn_params = params } :: !device_decls;
           (* __host__ __device__ also stays on the host side *)
           if f.fn_kind = FK_host_device then
             host_decls := TFunc f :: !host_decls
         end
       | TFunc f ->
         host_decls := TFunc f :: !host_decls
       | TVar d ->
         let space =
           if type_space d.d_ty <> AS_none then type_space d.d_ty
           else d.d_storage.s_space
         in
         (match unqual d.d_ty, space, d.d_init with
          | TTexture _, _, _ -> ()   (* replaced by kernel params *)
          | _, AS_local, _ when d.d_storage.s_extern ->
            ()                       (* became a dynamic __local param *)
          | _, AS_constant, Some _ ->
            (* statically initialised constant: direct translation *)
            device_decls := TVar d :: !device_decls
          | _, (AS_constant | AS_global), _ -> ()  (* became kernel params *)
          | _, _, _ -> host_decls := TVar d :: !host_decls)
       | TStruct _ | TTypedef _ ->
         (* shared type definitions go to both sides *)
         device_decls := td :: !device_decls;
         host_decls := td :: !host_decls)
    cuda;
  (* host pass: rewrite the three special constructs *)
  let kmetas = List.rev !kmetas in
  let host_prog =
    List.rev_map
      (function
        | TFunc f ->
          TFunc
            { f with
              fn_body = Option.map (List.map (rewrite_host_stmt kmetas)) f.fn_body }
        | td -> td)
      !host_decls
  in
  let atomic_helpers =
    if rw.uses_bounded_atomics then
      Minic.Parser.program ~dialect:Minic.Parser.OpenCL bounded_atomics_src
    else []
  in
  let device_decls = fix_reference_call_sites (List.rev !device_decls) !ref_flags in
  let cl_prog = atomic_helpers @ device_decls in
  { cl_prog =
      (* injected helpers and prologues charge to the overhead site *)
      (if attribute then Minic.Site.fill_overhead cl_prog else cl_prog);
    host_prog;
    kmetas;
    symbols;
    textures }

(* Source-to-source entry point: main.cu -> (main.cu.cl, main.cu.cpp). *)
let translate_source (src : string) : result =
  Trace.Sink.with_span ~cat:Trace.Event.Xlat ~name:"xlat:cuda-to-ocl:source"
    ~args:[ ("bytes", string_of_int (String.length src)) ]
  @@ fun () ->
  let cuda = Minic.Parser.program ~dialect:Minic.Parser.Cuda src in
  translate cuda

let cl_source (r : result) = Minic.Pretty.program_str Minic.Pretty.OpenCL r.cl_prog
let host_source (r : result) = Minic.Pretty.program_str Minic.Pretty.Cuda r.host_prog
