(* Lowering Mini-C functions into the kernel IR.

   The contract is observational identity with `Vm.Interp`: every
   lowered construct evaluates its pieces in the same order, charges the
   same operation classes at the same attribution site, and performs
   the same simulated-memory traffic — with one documented exception:
   scalar and pointer locals that are never address-taken live in
   virtual registers, so their private-memory load/store charges (and
   the matching `private_accesses` counter traffic) disappear.  That is
   the point of the backend; the fuzz pyramid checks the rule
   (`Fuzz.Pyramid.counter_refinement`) with no passes enabled.

   Lowering is per-function and total-or-nothing: any construct the IR
   does not model (struct members, initializers and parameters,
   templates) raises [Reject] and the function runs on the interpreter
   — `Emit` falls back per callee, so a kernel can be IR-compiled even
   when a helper it calls is not.

   A host compile ([~host:true], host `main()` and its helpers) also
   lowers the two host-only constructs, string literals and `<<<...>>>`
   kernel calls.  A device compile rejects both, as it always has: the
   lowering census of every device program stays what it was. *)

open Minic.Ast
module I = Vm.Interp
module V = Vm.Value
module Layout = Vm.Layout
module SS = Set.Make (String)

exception Reject of string

let reject fmt = Printf.ksprintf (fun s -> raise (Reject s)) fmt
let tyname t = Minic.Pretty.type_name Minic.Pretty.Cuda t

type modl = {
  md_prog : program;
  md_funcs : (string, func) Hashtbl.t;
  md_global_tys : (string, ty) Hashtbl.t;
  md_special_ty : string -> ty option;
  md_layout : Layout.env;
  md_cfg : Pipeline.config;
  md_host : bool;               (* string literals and launches lower *)
  (* per-function inline candidates: body collapsed to one expression *)
  md_inline : (string, expr) Hashtbl.t;
  md_sync_pure : (string, bool) Hashtbl.t;
}

(* ------------------------------------------------------------------ *)
(* Inline candidates                                                   *)
(* ------------------------------------------------------------------ *)

(* A device helper is inlinable when its body is an if/return tree over
   plain scalar parameters: the call then lowers to the equivalent
   conditional expression (same Op_branch charges, same on_branch
   decisions), the return conversion to `CastRet` and the parameters to
   normalized registers.  This is what dissolves the translator's
   `__oc2cu_get_*` dimension-switch helpers into foldable selects. *)
let rec expr_of_body (ss : stmt list) : expr option =
  match ss with
  | SSite (_, s) :: rest -> expr_of_body (s :: rest)
  | SBlock l :: rest -> expr_of_body (l @ rest)
  | [ SReturn (Some e) ] -> Some e
  | SIf (c, a, eo) :: rest ->
    (match expr_of_body [ a ] with
     | None -> None
     | Some t ->
       let els =
         match eo with
         | Some b when rest = [] -> expr_of_body [ b ]
         | Some _ -> None
         | None -> expr_of_body rest
       in
       (match els with Some e -> Some (Cond (c, t, e)) | None -> None))
  | _ -> None

let scalar_param (pa : param) =
  pa.pa_space = AS_none
  && (match unqual pa.pa_ty with
      | TScalar s -> s <> Void
      | _ -> false)

let inlinable (f : func) : expr option =
  match f.fn_body with
  | Some body
    when f.fn_kind <> FK_kernel
         && f.fn_tmpl = []
         && (match unqual f.fn_ret with
             | TScalar s -> s <> Void
             | _ -> false)
         && List.for_all scalar_param f.fn_params ->
    expr_of_body body
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Redundant-barrier analysis                                          *)
(* ------------------------------------------------------------------ *)

(* A statement-level barrier is removable when (a) no work-item can have
   touched __local or __global memory since the previous barrier (or
   kernel entry) on any path reaching it — so the two intervals it
   separates have nothing to order — and (b) it is not control-dependent
   on a thread-id-tainted branch (removing a divergence-sensitive
   barrier would change which items block).  A helper's entry counts as
   touched: its caller may have written just before the call, and only
   the helper's barrier orders those writes.  (a) is a forward dataflow
   over the `lib/analysis` CFG with a boolean "shared memory touched"
   fact; (b) reuses the analyzer's taint solver and control-dependence
   sets, the same machinery behind its barrier-divergence diagnostic.

   Removable barriers are identified by the physical identity of their
   call expression: the CFG stores the very same `expr` values the
   lowering walks, so `List.memq` is an exact join key. *)

module Cfg = Xlat_analysis.Cfg
module Checks = Xlat_analysis.Checks

module DirtyFlow = Xlat_analysis.Dataflow.Forward (struct
    type t = bool

    let equal = Bool.equal
    let join = ( || )
  end)

(* May calling [n] touch shared state or synchronize?  Whitelist the
   NDRange queries plus user helpers whose bodies provably cannot:
   no assignments, no barriers, only whitelisted calls. *)
let rec sync_pure_fn (md : modl) (n : string) : bool =
  match Hashtbl.find_opt md.md_sync_pure n with
  | Some b -> b
  | None ->
    Hashtbl.replace md.md_sync_pure n false (* recursion => not pure *);
    let pure =
      match Hashtbl.find_opt md.md_funcs n with
      | Some { fn_body = Some body; _ } ->
        let ok = ref true in
        let check_expr e =
          (match e with
           | Assign _
           | Unary ((Preinc | Predec | Postinc | Postdec), _) ->
             ok := false
           | Call (c, _, _)
             when not
                    (Core.is_invariant_external c
                     || sync_pure_fn md c) ->
             ok := false
           | Launch _ -> ok := false
           | _ -> ());
          e
        in
        let check_stmt s =
          (match s with
           | SDecl d ->
             if
               d.d_storage.s_space <> AS_none
               || type_space d.d_ty <> AS_none
             then ok := false
           | _ -> ());
          s
        in
        List.iter
          (fun s -> ignore (map_stmt ~expr:check_expr ~stmt:check_stmt s))
          body;
        !ok
      | _ -> false
    in
    Hashtbl.replace md.md_sync_pure n pure;
    pure

(* Names whose very mention reads or writes memory other work-items can
   see: __local / __global declarations and module globals. *)
let shared_names (md : modl) (body : stmt list) : SS.t =
  let acc = ref SS.empty in
  Hashtbl.iter (fun n _ -> acc := SS.add n !acc) md.md_global_tys;
  let stmt s =
    (match s with
     | SDecl d
       when d.d_storage.s_space = AS_local
            || d.d_storage.s_space = AS_global
            || type_space d.d_ty = AS_local
            || type_space d.d_ty = AS_global ->
       acc := SS.add d.d_name !acc
     | _ -> ());
    s
  in
  List.iter (fun s -> ignore (map_stmt ~expr:(fun e -> e) ~stmt s)) body;
  !acc

let rec dirty_expr md shared (e : expr) : bool =
  let d = dirty_expr md shared in
  match e with
  | IntLit _ | FloatLit _ | StrLit _ | SizeofT _ -> false
  | Ident n -> SS.mem n shared
  | Member (Ident s, _) when md.md_special_ty s <> None -> false
  | Member (a, _) -> d a
  | Index _ | Unary ((Deref | Addrof), _) -> true
  | Unary ((Preinc | Predec | Postinc | Postdec), Ident n) -> SS.mem n shared
  | Unary ((Preinc | Predec | Postinc | Postdec), _) -> true
  | Unary (_, a) -> d a
  | Binary (_, a, b) -> d a || d b
  | Assign (_, Ident n, r) -> SS.mem n shared || d r
  | Assign _ -> true
  | Cond (c, a, b) -> d c || d a || d b
  | Call (n, _, args) ->
    not (Core.is_invariant_external n || sync_pure_fn md n)
    || List.exists d args
  | Cast (_, a) | StaticCast (_, a) | ReinterpretCast (_, a) | SizeofE a -> d a
  | VecLit (_, args) -> List.exists d args
  | Launch _ -> true

let exact_barrier = function
  | Call (n, _, _) when Checks.is_barrier_name n -> true
  | _ -> false

let removable_barriers ~entry_dirty (md : modl) (body : stmt list) : expr list =
  let cfg = Cfg.of_body body in
  let shared = shared_names md body in
  let dirty = dirty_expr md shared in
  let decl_dirty (dd : decl) =
    dd.d_storage.s_space <> AS_none
    || type_space dd.d_ty <> AS_none
    || (match dd.d_init with
        | Some i ->
          let rec go = function
            | IExpr e -> dirty e
            | IList l -> List.exists go l
          in
          go i
        | None -> false)
  in
  let step fact = function
    | Cfg.I_decl dd -> fact || decl_dirty dd
    | Cfg.I_expr e ->
      if exact_barrier e then false
      else fact || dirty e || Checks.contains_barrier e
  in
  let transfer (nd : Cfg.node) fact =
    let fact = List.fold_left step fact nd.Cfg.instrs in
    match nd.Cfg.branch with Some c -> fact || dirty c | None -> fact
  in
  let in_facts, _ = DirtyFlow.solve cfg ~init:entry_dirty ~bottom:false ~transfer in
  let taint_out = snd (Checks.solve_taint cfg) in
  let deps = Cfg.control_deps cfg in
  let live = Cfg.reachable cfg in
  let divergent id =
    List.exists
      (fun c ->
         match cfg.Cfg.nodes.(c).Cfg.branch with
         | Some e -> Checks.expr_tainted taint_out.(c) e
         | None -> false)
      deps.(id)
  in
  let out = ref [] in
  Array.iter
    (fun (nd : Cfg.node) ->
       if live.(nd.Cfg.id) then begin
         let fact = ref in_facts.(nd.Cfg.id) in
         List.iter
           (fun ins ->
              (match ins with
               | Cfg.I_expr e when exact_barrier e ->
                 if (not !fact) && not (divergent nd.Cfg.id) then
                   out := e :: !out
               | _ -> ());
              fact := step !fact ins)
           nd.Cfg.instrs
       end)
    cfg.Cfg.nodes;
  !out

(* ------------------------------------------------------------------ *)
(* Per-function lowering state                                         *)
(* ------------------------------------------------------------------ *)

(* [VRef (r, inner)] binds a reference parameter: the register holds
   the caller-passed pointer (typed [TPtr inner]) and every use goes
   through [LvDeref], like the interpreter's raw aliasing binding (no
   allocation, no entry store). *)
type vref = VReg of int * ty | VRef of int * ty | VMem of int

type lstate = {
  md : modl;
  mutable nregs : int;
  mutable mems : Core.minfo list; (* reversed *)
  mutable nmem : int;
  mutable scope : (string * vref) list list;
  mutable site : int;
  mutable sited : bool;
  addr_taken : SS.t;
  removable : expr list;
  mutable inl_depth : int;
}

type acc = { mutable rev : Core.node list }

let new_acc () = { rev = [] }
let seal acc = List.rev acc.rev
let push acc n = acc.rev <- n :: acc.rev

let emit st acc k = push acc (Core.Ins { Core.i_site = st.site; i_kind = k })

let fresh st =
  let r = st.nregs in
  st.nregs <- r + 1;
  r

let letk st acc rhs =
  let r = fresh st in
  emit st acc (Core.Let (r, rhs));
  Core.Reg r

let new_mem st (m : Core.minfo) =
  let v = st.nmem in
  st.nmem <- v + 1;
  st.mems <- m :: st.mems;
  v

let push_scope st = st.scope <- [] :: st.scope
let pop_scope st =
  match st.scope with
  | _ :: rest -> st.scope <- rest
  | [] -> assert false

let bind st name v =
  match st.scope with
  | s :: rest -> st.scope <- ((name, v) :: s) :: rest
  | [] -> assert false

let lookup st name =
  let rec go = function
    | [] -> None
    | s :: rest ->
      (match List.assoc_opt name s with Some v -> Some v | None -> go rest)
  in
  go st.scope

let resolve st t = Layout.resolve st.md.md_layout t
let sizeof st t = Layout.sizeof st.md.md_layout t

let cst_int n = Core.Cst (I.tv (V.VInt n) (TScalar Int))
let one = I.tv (V.VInt 1L) (TScalar Int)

(* Static type oracle: Interp.static_type over the lowering's own
   bindings. *)
let rec sty st (e : expr) : ty =
  match e with
  | Ident name ->
    (match lookup st name with
     | Some (VReg (_, t)) -> t
     | Some (VRef (_, t)) -> t
     | Some (VMem v) -> (List.nth st.mems (st.nmem - 1 - v)).Core.m_ty
     | None ->
       (match Hashtbl.find_opt st.md.md_global_tys name with
        | Some t -> t
        | None ->
          (match st.md.md_special_ty name with
           | Some t -> t
           | None -> TScalar Int)))
  | Index (a, _) ->
    (match resolve st (sty st a) with
     | TPtr t | TArr (t, _) -> t
     | TVec (s, _) -> TScalar s
     | t -> t)
  | Unary (Deref, a) ->
    (match resolve st (sty st a) with
     | TPtr t | TArr (t, _) | TRef t -> t
     | t -> t)
  | Member (a, m) ->
    (match resolve st (sty st a) with
     | TVec (s, width) ->
       (match I.vec_indices width m with
        | Some [ _ ] -> TScalar s
        | Some idx -> TVec (s, List.length idx)
        | None -> TScalar s)
     | TNamed sn ->
       (match Layout.field_offset st.md.md_layout sn m with
        | Some (_, fty) -> fty
        | None -> TScalar Int)
     | t -> t)
  | Cast (t, _) | StaticCast (t, _) | ReinterpretCast (t, _) | VecLit (t, _) ->
    t
  | IntLit (_, s) | FloatLit (_, s) -> TScalar s
  | Binary (_, a, _) | Assign (_, a, _) | Cond (_, a, _) | Unary (_, a) ->
    sty st a
  | Call (n, _, _) ->
    (match Hashtbl.find_opt st.md.md_funcs n with
     | Some f -> f.fn_ret
     | None -> TScalar Int)
  | _ -> TScalar Int

let is_rval_member st = function
  | Ident n ->
    lookup st n = None
    && (not (Hashtbl.mem st.md.md_global_tys n))
    && st.md.md_special_ty n <> None
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Expressions                                                         *)
(* ------------------------------------------------------------------ *)

type llv = LReg of int * ty | LMem of Core.lv

let rec lower_expr st acc (e : expr) : Core.operand =
  match e with
  | IntLit (n, s) -> Core.Cst (I.tv (V.VInt n) (TScalar s))
  | FloatLit (f, s) -> Core.Cst (I.tv (V.VFloat f) (TScalar s))
  | StrLit s ->
    if not st.md.md_host then reject "string literal";
    letk st acc (Core.StrP s)
  | Ident name ->
    (match lookup st name with
     | Some (VReg (r, _)) -> letk st acc (Core.Mov (Core.Reg r))
     | Some (VRef (r, _)) -> letk st acc (Core.ReadLv (Core.LvDeref (Core.Reg r)))
     | Some (VMem v) -> letk st acc (Core.ReadLv (Core.LvVar v))
     | None ->
       if
         (not (Hashtbl.mem st.md.md_global_tys name))
         && st.md.md_special_ty name <> None
       then letk st acc (Core.Special name)
       else
         (* module global or launch-scoped binding: resolved through the
            runtime context, exactly like the interpreter *)
         letk st acc (Core.Free name))
  | Unary (Neg, a) ->
    let oa = lower_expr st acc a in
    letk st acc (Core.Un (Core.UNeg, oa))
  | Unary (Lnot, a) ->
    let oa = lower_expr st acc a in
    letk st acc (Core.Un (Core.ULnot, oa))
  | Unary (Bnot, a) ->
    let oa = lower_expr st acc a in
    letk st acc (Core.Un (Core.UBnot, oa))
  | Member (a, m)
    when is_rval_member st a
         || (match a with Call _ | VecLit _ | Binary _ -> true | _ -> false) ->
    (* rvalue component select; only lowered when the base is statically
       vector-typed (the interpreter's non-vector fallback re-reads
       the base as an lvalue, which the IR does not model) *)
    (match resolve st (sty st a) with
     | TVec (s, w) ->
       let oa = lower_expr st acc a in
       let pre =
         match I.vec_indices w m with Some [ i ] -> Some (s, w, i) | _ -> None
       in
       letk st acc (Core.Swz (oa, m, pre))
     | t -> reject "member .%s of non-vector %s" m (tyname t))
  | Unary (Deref, _) | Index (_, _) | Member (_, _) ->
    (match lower_lvalue st acc e with
     | LReg (r, _) -> letk st acc (Core.Mov (Core.Reg r))
     | LMem lv -> letk st acc (Core.ReadLv lv))
  | Unary (Addrof, a) ->
    (match lower_lvalue st acc a with
     | LReg _ -> reject "address of register variable"
     | LMem lv -> letk st acc (Core.AddrofLv lv))
  | Unary ((Preinc | Predec | Postinc | Postdec) as op, a) ->
    let bop = if op = Preinc || op = Postinc then Add else Sub in
    let pre = op = Preinc || op = Predec in
    (match lower_lvalue st acc a with
     | LReg (r, ty) ->
       let old = letk st acc (Core.Mov (Core.Reg r)) in
       let nv = letk st acc (Core.Bin (bop, old, Core.Cst one)) in
       (match nv with
        | Core.Reg nr -> emit st acc (Core.SetReg (r, ty, Core.Reg nr))
        | _ -> assert false);
       if pre then nv else old
     | LMem lv ->
       let old = letk st acc (Core.ReadLv lv) in
       let nv = letk st acc (Core.Bin (bop, old, Core.Cst one)) in
       emit st acc (Core.Store (lv, nv));
       if pre then nv else old)
  | Binary (Land, a, b) ->
    let oa = lower_expr st acc a in
    let m = fresh st in
    let ta = new_acc () and ea = new_acc () in
    let ob = lower_expr st ta b in
    let tb = letk st ta (Core.Un (Core.UBool, ob)) in
    emit st ta (Core.SetRaw (m, tb));
    emit st ea (Core.SetRaw (m, cst_int 0L));
    push acc (Core.If (st.site, oa, seal ta, seal ea));
    letk st acc (Core.Mov (Core.Reg m))
  | Binary (Lor, a, b) ->
    let oa = lower_expr st acc a in
    let m = fresh st in
    let ta = new_acc () and ea = new_acc () in
    emit st ta (Core.SetRaw (m, cst_int 1L));
    let ob = lower_expr st ea b in
    let tb = letk st ea (Core.Un (Core.UBool, ob)) in
    emit st ea (Core.SetRaw (m, tb));
    push acc (Core.If (st.site, oa, seal ta, seal ea));
    letk st acc (Core.Mov (Core.Reg m))
  | Binary (op, a, b) ->
    (* the interpreter computes [binop ctx op (eval a) (eval b)], whose
       arguments OCaml evaluates right-to-left: b's effects land first *)
    let ob = lower_expr st acc b in
    let oa = lower_expr st acc a in
    letk st acc (Core.Bin (op, oa, ob))
  | Assign (op, lhs, rhs) ->
    (match lower_lvalue st acc lhs with
     | LReg (r, ty) ->
       let orhs = lower_expr st acc rhs in
       let x =
         match op with
         | None -> orhs
         | Some op ->
           let old = letk st acc (Core.Mov (Core.Reg r)) in
           letk st acc (Core.Bin (op, old, orhs))
       in
       emit st acc (Core.SetReg (r, ty, x));
       x
     | LMem lv ->
       let orhs = lower_expr st acc rhs in
       let x =
         match op with
         | None -> orhs
         | Some op ->
           let old = letk st acc (Core.ReadLv lv) in
           letk st acc (Core.Bin (op, old, orhs))
       in
       emit st acc (Core.Store (lv, x));
       x)
  | Cond (c, a, b) ->
    let oc = lower_expr st acc c in
    let m = fresh st in
    let ta = new_acc () and ea = new_acc () in
    let oa = lower_expr st ta a in
    emit st ta (Core.SetRaw (m, oa));
    let ob = lower_expr st ea b in
    emit st ea (Core.SetRaw (m, ob));
    push acc (Core.If (st.site, oc, seal ta, seal ea));
    letk st acc (Core.Mov (Core.Reg m))
  | Call (name, tmpl, args) -> lower_call st acc name tmpl args
  | Cast (t, a) | StaticCast (t, a) | ReinterpretCast (t, a) ->
    let oa = lower_expr st acc a in
    letk st acc (Core.CastV (t, oa))
  | SizeofT t ->
    Core.Cst (I.tv (V.VInt (Int64.of_int (sizeof st t))) (TScalar SizeT))
  | SizeofE a ->
    let t = sty st a in
    Core.Cst (I.tv (V.VInt (Int64.of_int (sizeof st t))) (TScalar SizeT))
  | VecLit (t, args) ->
    (match resolve st t with
     | TVec _ ->
       let ops = List.map (lower_expr st acc) args in
       letk st acc (Core.Vecc (t, ops))
     | _ ->
       (match args with
        | a :: _ ->
          let oa = lower_expr st acc a in
          letk st acc (Core.CastV (t, oa))
        | [] -> reject "empty vector literal"))
  | Launch l ->
    if not st.md.md_host then reject "kernel launch";
    (* the interpreter's operand order: grid, block, shared bytes, args *)
    let grid = lower_expr st acc l.l_grid in
    let block = lower_expr st acc l.l_block in
    let shmem = Option.map (lower_expr st acc) l.l_shmem in
    let args = List.map (lower_expr st acc) l.l_args in
    letk st acc
      (Core.CallK
         (l.l_kernel, l.l_tmpl, shmem <> None,
          (grid :: block :: Option.to_list shmem) @ args))

and lower_lvalue st acc (e : expr) : llv =
  match e with
  | Ident name ->
    (match lookup st name with
     | Some (VReg (r, t)) -> LReg (r, t)
     | Some (VRef (r, _)) -> LMem (Core.LvDeref (Core.Reg r))
     | Some (VMem v) -> LMem (Core.LvVar v)
     | None -> LMem (Core.LvFree name))
  | Unary (Deref, p) ->
    let op = lower_expr st acc p in
    LMem (Core.LvDeref op)
  | Index (a, i) ->
    let fast =
      match a with
      | Ident n ->
        (match lookup st n with
         | Some v ->
           let t =
             match v with
             | VReg (_, t) | VRef (_, t) -> t
             | VMem m -> (List.nth st.mems (st.nmem - 1 - m)).Core.m_ty
           in
           (match resolve st t with
            | TPtr elt | TArr (elt, _) -> Some (elt, sizeof st elt)
            | _ -> None)
         | None -> None)
      | _ -> None
    in
    (match fast with
     | Some (elt, esz) ->
       let oa = lower_expr st acc a in
       let oi = lower_expr st acc i in
       LMem (Core.LvIdx (oa, oi, elt, esz))
     | None ->
       let oa = lower_expr st acc a in
       let oi = lower_expr st acc i in
       let base_lv =
         match resolve st (sty st a) with
         | TVec _ ->
           (match a with
            | Ident n ->
              (match lookup st n with
               | Some (VMem v) -> Some (Core.LvVar v)
               | Some (VRef (r, _)) -> Some (Core.LvDeref (Core.Reg r))
               | _ -> reject "vector index base")
            | _ -> reject "vector index base")
         | _ -> None
       in
       LMem (Core.LvIdxDyn (oa, oi, base_lv)))
  | Member (a, m) ->
    (match resolve st (sty st a) with
     | TVec (s, width) ->
       (match I.vec_indices width m with
        | Some idx ->
          (match lower_lvalue st acc a with
           | LReg _ -> reject "vector member of register variable"
           | LMem lv -> LMem (Core.LvSwz (lv, Array.of_list idx, s)))
        | None -> reject "bad vector component .%s" m)
     | t -> reject "member lvalue .%s of %s" m (tyname t))
  | Cast (_, inner) -> lower_lvalue st acc inner
  | e -> reject "not an lvalue: %s" (Minic.Pretty.expr_str Minic.Pretty.Cuda e)

and lower_call st acc name tmpl args : Core.operand =
  if tmpl <> [] then reject "template call";
  match Hashtbl.find_opt st.md.md_funcs name with
  | Some f0 ->
    if f0.fn_tmpl <> [] then reject "template function %s" name;
    (match Hashtbl.find_opt st.md.md_inline name with
     | Some body_expr
       when st.md.md_cfg.Pipeline.inline
            && st.inl_depth < 3
            && List.length args = List.length f0.fn_params ->
       lower_inline st acc f0 body_expr args
     | _ ->
       (* reference parameters receive the argument's address *)
       let ops =
         List.mapi
           (fun i a ->
              match List.nth_opt f0.fn_params i with
              | Some pa
                when (match unqual pa.pa_ty with
                      | TRef _ -> true
                      | _ -> false) ->
                lower_expr st acc (Unary (Addrof, a))
              | _ -> lower_expr st acc a)
           args
       in
       letk st acc (Core.CallU (name, ops)))
  | None ->
    let ops = List.map (lower_expr st acc) args in
    letk st acc (Core.CallE (name, ops))

and lower_inline st acc (f : func) body_expr args : Core.operand =
  st.inl_depth <- st.inl_depth + 1;
  Fun.protect ~finally:(fun () -> st.inl_depth <- st.inl_depth - 1)
  @@ fun () ->
  (* bind parameters as normalized registers, arguments left-to-right
     like the interpreter's argument list; the normalization is exactly
     the store+load roundtrip `Interp.call_function` performs per
     parameter, minus its private-memory traffic *)
  let binds =
    List.map2
      (fun (pa : param) a ->
         let o = lower_expr st acc a in
         let r = fresh st in
         emit st acc (Core.SetReg (r, pa.pa_ty, o));
         (pa.pa_name, VReg (r, pa.pa_ty)))
      f.fn_params args
  in
  let saved_scope = st.scope in
  st.scope <- [ binds ];
  let o =
    match lower_expr st acc body_expr with
    | o -> o
    | exception e ->
      st.scope <- saved_scope;
      raise e
  in
  st.scope <- saved_scope;
  (* C semantics: the returned value converts to the declared type *)
  letk st acc (Core.CastRet (unqual f.fn_ret, o))

(* ------------------------------------------------------------------ *)
(* Initialisers                                                        *)
(* ------------------------------------------------------------------ *)

let rec lower_init_parts st acc v (ty : ty) (off : int) (items : init list) =
  match resolve st ty with
  | TArr (elt, _) ->
    let esz = sizeof st elt in
    List.iteri
      (fun k item ->
         match item with
         | IExpr e ->
           let o = lower_expr st acc e in
           emit st acc (Core.StoreElt (v, off + (k * esz), elt, o))
         | IList sub -> lower_init_parts st acc v elt (off + (k * esz)) sub)
      items
  | TVec (s, n) ->
    let esz = scalar_size s in
    List.iteri
      (fun k item ->
         if k < n then
           match item with
           | IExpr e ->
             let o = lower_expr st acc e in
             emit st acc (Core.StoreElt (v, off + (k * esz), TScalar s, o))
           | IList _ -> reject "nested vector init")
      items
  | t -> reject "initializer list for %s" (tyname t)

(* ------------------------------------------------------------------ *)
(* Statements                                                          *)
(* ------------------------------------------------------------------ *)

let promotable st (d : decl) =
  (match resolve st d.d_ty with
   | TScalar s -> s <> Void
   | TPtr _ -> true
   | _ -> false)
  && type_space d.d_ty = AS_none
  && d.d_storage.s_space = AS_none
  && (not d.d_storage.s_static)
  && (not d.d_storage.s_extern)
  && (not (SS.mem d.d_name st.addr_taken))
  && (match d.d_init with Some (IExpr _) -> true | _ -> false)

let rec lower_stmt st acc (s : stmt) : unit =
  match s with
  | SDecl d ->
    if
      (d.d_storage.s_extern && d.d_storage.s_space = AS_local)
      || (d.d_storage.s_extern && type_space d.d_ty = AS_local)
    then begin
      let elt =
        match resolve st d.d_ty with TArr (t, _) | TPtr t -> t | t -> t
      in
      let aty = TArr (elt, None) in
      let v =
        new_mem st
          { Core.m_name = d.d_name; m_ty = aty; m_space = AS_local;
            m_size = 0; m_align = 1; m_shared = true }
      in
      bind st d.d_name (VMem v);
      emit st acc (Core.DeclMem v)
    end
    else if promotable st d then begin
      let r = fresh st in
      bind st d.d_name (VReg (r, d.d_ty));
      match d.d_init with
      | Some (IExpr e) ->
        let o = lower_expr st acc e in
        emit st acc (Core.SetReg (r, d.d_ty, o))
      | _ -> assert false
    end
    else begin
      let sp = type_space d.d_ty in
      let space = if sp <> AS_none then sp else d.d_storage.s_space in
      let v =
        new_mem st
          { Core.m_name = d.d_name; m_ty = d.d_ty; m_space = space;
            m_size = sizeof st d.d_ty;
            m_align = Layout.alignof st.md.md_layout d.d_ty;
            m_shared = false }
      in
      bind st d.d_name (VMem v);
      emit st acc (Core.DeclMem v);
      match d.d_init with
      | None -> ()
      | Some (IExpr e) ->
        let o = lower_expr st acc e in
        emit st acc (Core.Store (Core.LvVar v, o))
      | Some (IList items) ->
        emit st acc (Core.ZeroFill v);
        lower_init_parts st acc v d.d_ty 0 items
    end
  | SExpr (Call (n, [], args) as e) when Checks.is_barrier_name n ->
    let ops = List.map (lower_expr st acc) args in
    let removable = List.memq e st.removable in
    emit st acc (Core.Barrier (n, ops, removable))
  | SExpr e -> ignore (lower_expr st acc e)
  | SIf (c, a, b) ->
    let oc = lower_expr st acc c in
    let ta = new_acc () in
    lower_stmt st ta a;
    let ea = new_acc () in
    (match b with Some s -> lower_stmt st ea s | None -> ());
    push acc (Core.If (st.site, oc, seal ta, seal ea))
  | SWhile (c, body) ->
    let ca = new_acc () in
    let oc = lower_expr st ca c in
    let ba = new_acc () in
    lower_stmt st ba body;
    push acc
      (Core.Loop
         { Core.l_kind = `While; l_site = st.site; l_init = []; l_pre = [];
           l_cond = Some (seal ca, oc); l_body = seal ba; l_update = [] })
  | SDoWhile (body, c) ->
    let ba = new_acc () in
    lower_stmt st ba body;
    let ca = new_acc () in
    let oc = lower_expr st ca c in
    push acc
      (Core.Loop
         { Core.l_kind = `DoWhile; l_site = st.site; l_init = []; l_pre = [];
           l_cond = Some (seal ca, oc); l_body = seal ba; l_update = [] })
  | SFor (init, cond, update, body) ->
    push_scope st;
    let ia = new_acc () in
    (match init with Some s -> lower_stmt st ia s | None -> ());
    let lcond =
      match cond with
      | None -> None
      | Some c ->
        let ca = new_acc () in
        let oc = lower_expr st ca c in
        Some (seal ca, oc)
    in
    let ua = new_acc () in
    (match update with Some u -> ignore (lower_expr st ua u) | None -> ());
    let ba = new_acc () in
    lower_stmt st ba body;
    pop_scope st;
    push acc
      (Core.Loop
         { Core.l_kind = `For; l_site = st.site; l_init = seal ia; l_pre = [];
           l_cond = lcond; l_body = seal ba; l_update = seal ua })
  | SReturn None -> push acc (Core.Return None)
  | SReturn (Some e) ->
    let o = lower_expr st acc e in
    push acc (Core.Return (Some o))
  | SBreak -> push acc Core.Break
  | SContinue -> push acc Core.Continue
  | SBlock l ->
    push_scope st;
    List.iter (lower_stmt st acc) l;
    pop_scope st
  | SSite (id, s) ->
    st.sited <- true;
    let saved = st.site in
    st.site <- id;
    lower_stmt st acc s;
    st.site <- saved

(* ------------------------------------------------------------------ *)
(* Address-taken prescan                                               *)
(* ------------------------------------------------------------------ *)

let rec base_names acc = function
  | Ident n -> SS.add n acc
  | Index (a, _) | Member (a, _) | Cast (_, a) | StaticCast (_, a)
  | ReinterpretCast (_, a) ->
    base_names acc a
  | _ -> acc

let addr_taken_names (md : modl) (body : stmt list) : SS.t =
  let acc = ref SS.empty in
  let expr e =
    (match e with
     | Unary (Addrof, a) -> acc := base_names !acc a
     | Call (n, _, args) ->
       (* arguments bound to reference parameters are address-taken *)
       (match Hashtbl.find_opt md.md_funcs n with
        | Some f ->
          List.iteri
            (fun i a ->
               match List.nth_opt f.fn_params i with
               | Some pa
                 when (match unqual pa.pa_ty with
                       | TRef _ -> true
                       | _ -> false) ->
                 acc := base_names !acc a
               | _ -> ())
            args
        | None -> ())
     | _ -> ());
    e
  in
  List.iter (fun s -> ignore (map_stmt ~expr ~stmt:(fun s -> s) s)) body;
  !acc

(* ------------------------------------------------------------------ *)
(* Functions and modules                                               *)
(* ------------------------------------------------------------------ *)

let lower_fn (md : modl) (f : func) : Core.fn =
  let body =
    match f.fn_body with
    | Some b -> b
    | None -> reject "prototype %s" f.fn_name
  in
  if f.fn_tmpl <> [] then reject "template function";
  let addr_taken = addr_taken_names md body in
  let removable =
    removable_barriers ~entry_dirty:(f.fn_kind <> FK_kernel) md body
  in
  let st =
    { md; nregs = 0; mems = []; nmem = 0; scope = [ [] ]; site = -1;
      sited = false; addr_taken; removable; inl_depth = 0 }
  in
  (* Address-taken parameters are spilled to a private memory variable
     at entry (mirroring compile_param's alloc + store); the spills are
     emitted before the body so `&p` sees stable storage. *)
  let spills = ref [] in
  let params =
    List.map
      (fun (pa : param) ->
         let ty =
           if pa.pa_space = AS_none then pa.pa_ty
           else TQual (pa.pa_space, pa.pa_ty)
         in
         match resolve st pa.pa_ty with
         | TRef inner ->
           (* the caller passes the argument's address (`lower_call` /
              the interpreter both wrap the argument in Addrof) *)
           if pa.pa_space <> AS_none then
             reject "address-space parameter %s" pa.pa_name;
           let r = fresh st in
           bind st pa.pa_name (VRef (r, inner));
           { Core.p_reg = r; p_ty = TPtr inner }
         | _ ->
           (* Layout.resolve strips qualifiers, so check the address
              space separately: a __local-qualified parameter is
              group-shared memory and must not become a per-item
              register *)
           if type_space ty <> AS_none then
             reject "address-space parameter %s" pa.pa_name;
           (match resolve st ty with
            | TScalar s when s <> Void -> ()
            | TPtr _ -> ()
            | t -> reject "parameter of type %s" (tyname t));
           let r = fresh st in
           if SS.mem pa.pa_name addr_taken then begin
             let v =
               new_mem st
                 { Core.m_name = pa.pa_name; m_ty = ty; m_space = AS_none;
                   m_size = sizeof st ty;
                   m_align = Layout.alignof st.md.md_layout ty;
                   m_shared = false }
             in
             bind st pa.pa_name (VMem v);
             spills := (v, r) :: !spills
           end
           else bind st pa.pa_name (VReg (r, ty));
           { Core.p_reg = r; p_ty = ty })
      f.fn_params
  in
  let acc = new_acc () in
  List.iter
    (fun (v, r) ->
       emit st acc (Core.DeclMem v);
       emit st acc (Core.Store (Core.LvVar v, Core.Reg r)))
    (List.rev !spills);
  List.iter (lower_stmt st acc) body;
  { Core.f_name = f.fn_name;
    f_ret = unqual f.fn_ret;
    f_params = Array.of_list params;
    f_nregs = st.nregs;
    f_mem = Array.of_list (List.rev st.mems);
    f_body = seal acc;
    f_sited = st.sited }

let make ?(host = false) ?(special_ty = fun _ -> None) ~(cfg : Pipeline.config)
    (prog : program) : modl * (string * (Core.fn, string) result) list =
  let funcs = Hashtbl.create 31 in
  let gtys = Hashtbl.create 31 in
  List.iter
    (function
      | TFunc f -> Hashtbl.replace funcs f.fn_name f
      | TVar d -> Hashtbl.replace gtys d.d_name d.d_ty
      | _ -> ())
    prog;
  let md =
    { md_prog = prog;
      md_funcs = funcs;
      md_global_tys = gtys;
      md_special_ty = special_ty;
      md_layout = Layout.make_env prog;
      md_cfg = cfg;
      md_host = host;
      md_inline = Hashtbl.create 7;
      md_sync_pure = Hashtbl.create 7 }
  in
  Hashtbl.iter
    (fun n f ->
       match inlinable f with
       | Some e -> Hashtbl.replace md.md_inline n e
       | None -> ())
    funcs;
  let out =
    Hashtbl.fold
      (fun n f l ->
         let r =
           match lower_fn md f with
           | fn -> Ok fn
           | exception Reject msg -> Error msg
         in
         (n, r) :: l)
      funcs []
  in
  (md, out)
