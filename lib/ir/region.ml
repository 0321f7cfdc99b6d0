(* Region formation for the warp-lockstep engine.

   Two things live here, both pure functions of the IR:

   1. The *fast-shape classifier*: a static value class per register
      (always-int / always-float with a known declared type) and the
      predicate deciding which instructions the lockstep engine can
      execute on unboxed Bigarray lane files instead of the generic
      per-lane closures.  `Gpusim.Lockstep` re-exports these; they sit
      in `lib/ir` because they are facts about the IR (like
      `Uniform`), not about any particular executor.

   2. *Straight-line segmentation*: split a body into maximal runs of
      instructions an executor declares fusable.  A run executes as
      one region — a single per-warp loop nest with the divergence
      mask handled only at region boundaries — which is legal exactly
      because a run contains no control flow (`If`/`Loop`/`Return`/
      `Break`/`Continue` and barriers all end a run), so the active
      mask cannot change inside it, and instruction-major order within
      the run preserves every lane's program order. *)

open Minic.Ast
module I = Vm.Interp
module V = Vm.Value
module Layout = Vm.Layout

(* ------------------------------------------------------------------ *)
(* Value classes                                                       *)
(* ------------------------------------------------------------------ *)

(* Static class of a register's payload: CI t = always (VInt _, t)
   with t resolving to a non-float scalar or pointer; CF t = always
   (VFloat _, t) with t resolving to Float/Double.  The class carries
   the *declared* type because the scalar fast paths key on the exact
   tval type. *)
type vcls = CI of ty | CF of ty | CTop

let is_cmp = function Lt | Gt | Le | Ge | Eq | Ne -> true | _ -> false

let fast_op = function
  | Add | Sub | Mul | Lt | Gt | Le | Ge | Eq | Ne | Band | Bor | Bxor | Shl
  | Shr -> true
  | _ -> false

let cls_of_decl lt ty =
  match Layout.resolve lt ty with
  | TScalar ((Float | Double)) -> CF ty
  | TScalar s when s <> Void -> CI ty
  | TPtr _ -> CI ty
  | _ -> CTop

let cls_operand (cls : vcls array) = function
  | Core.Reg r -> cls.(r)
  | Core.Cst t ->
    (match t.I.v with
     | V.VInt _ -> CI t.I.ty
     | V.VFloat _ -> CF t.I.ty
     | _ -> CTop)

(* The three operand-class cases the scalar fast_binop specializes;
   float bitwise/shift shapes stay generic (I.binop decides). *)
type bincase = BII | BUU | BFF

let bin_case (cls : vcls array) op a b : (bincase * vcls) option =
  if not (fast_op op) then None
  else
    match cls_operand cls a, cls_operand cls b with
    | CI (TScalar Int), CI (TScalar Int) -> Some (BII, CI (TScalar Int))
    | CI (TScalar UInt), CI (TScalar UInt) ->
      Some (BUU, if is_cmp op then CI (TScalar Int) else CI (TScalar UInt))
    | CF (TScalar Float), CF (TScalar Float)
      when (match op with
            | Add | Sub | Mul | Lt | Gt | Le | Ge | Eq | Ne -> true
            | _ -> false) ->
      Some (BFF, if is_cmp op then CI (TScalar Int) else CF (TScalar Float))
    | _ -> None

let un_case lt (cls : vcls array) u a : vcls option =
  match u, cls_operand cls a with
  | Core.UNeg, CI t ->
    (match Layout.resolve lt t with
     | TScalar (Float | Double) -> None (* class invariant guard *)
     | _ -> Some (CI t))
  | Core.UNeg, CF t -> Some (CF t)
  | Core.ULnot, CI _ -> Some (CI (TScalar Int))
  | Core.UBnot, CI t -> Some (CI t)
  | Core.UBool, CI _ -> Some (CI (TScalar Int))
  | _ -> None

let idx_external = function
  | "get_global_id" | "get_local_id" | "get_group_id" -> true
  | _ -> false

let intish cls o = match cls_operand cls o with CI _ -> true | _ -> false
let floatish cls o = match cls_operand cls o with CF _ -> true | _ -> false

let scalar_elt lt ty =
  match Layout.resolve lt ty with
  | TScalar ((Float | Double) as s) -> Some (`F s)
  | TScalar s when s <> Void -> Some (`I s)
  | _ -> None

(* Result class of [cast_value t x] when the operand is statically
   classed, or [None] when the fast engines cannot model the cast.
   cast_value types its result at the *resolved* target type, so the
   class carries the resolution.  Pointer targets only accept int
   sources: float->ptr goes through a round-to-nearest [to_int] the
   fast paths deliberately do not reproduce. *)
let cast_class lt (cls : vcls array) t a : vcls option =
  let rt = Layout.resolve lt t in
  match rt, cls_operand cls a with
  | TScalar (Float | Double), (CI _ | CF _) -> Some (CF rt)
  | TScalar Void, _ -> None
  | TScalar _, (CI _ | CF _) -> Some (CI rt)
  | TPtr _, CI _ -> Some (CI rt)
  | _ -> None

(* CastRet is an identity when the operand's (class-carried) type
   already equals the target; otherwise it is exactly cast_value. *)
let cast_ret_class lt (cls : vcls array) t a : vcls option =
  match cls_operand cls a with
  | (CI tc | CF tc) as c when equal_ty tc t -> Some c
  | _ -> cast_class lt cls t a

(* Is this instruction one the fast emitters handle?  Classification,
   residency and emission all key on this one predicate. *)
let fast_shape lt (cls : vcls array) (k : Core.ikind) : bool =
  match k with
  | Core.Let (_, Core.Bin (op, a, b)) -> bin_case cls op a b <> None
  | Core.Let (_, Core.Un (u, a)) -> un_case lt cls u a <> None
  | Core.Let (_, Core.Mov o) ->
    (match cls_operand cls o with CI _ | CF _ -> true | CTop -> false)
  | Core.Let (_, Core.CastV (t, a)) -> cast_class lt cls t a <> None
  | Core.Let (_, Core.CastRet (t, a)) -> cast_ret_class lt cls t a <> None
  | Core.Let (_, Core.CallE (n, ops)) ->
    idx_external n
    && (match ops with [] -> true | o :: _ -> intish cls o)
  | Core.Let (_, Core.ReadLv (Core.LvIdx (a, i, elt, _))) ->
    scalar_elt lt elt <> None && intish cls a && intish cls i
  | Core.SetReg (_, ty, o) ->
    (match Layout.resolve lt ty with
     | TScalar (Float | Double) -> floatish cls o
     | TScalar s when s <> Void -> intish cls o
     | TPtr _ -> intish cls o
     | _ -> false)
  | Core.Store (Core.LvIdx (a, i, elt, _), o) ->
    intish cls a && intish cls i
    && (match scalar_elt lt elt with
        | Some (`F _) -> floatish cls o
        | Some (`I _) -> intish cls o
        | None -> false)
  | _ -> false

(* Result class of a Let, consistent with the emitters: fast shapes
   get their specialized class; a few generic shapes still produce
   statically-classed values (typed scalar loads, address-of).
   [fmem] is the function's frame-variable table. *)
let let_class lt (cls : vcls array) (fmem : Core.minfo array) (rhs : Core.rhs) :
  vcls =
  match rhs with
  | Core.Bin (op, a, b) ->
    (match bin_case cls op a b with Some (_, r) -> r | None -> CTop)
  | Core.Un (u, a) ->
    (match un_case lt cls u a with Some r -> r | None -> CTop)
  | Core.Mov o -> cls_operand cls o
  | Core.CastV (t, a) ->
    (match cast_class lt cls t a with Some r -> r | None -> CTop)
  | Core.CastRet (t, a) ->
    (match cast_ret_class lt cls t a with Some r -> r | None -> CTop)
  | Core.CallE (n, _) when idx_external n -> CI (TScalar Int)
  | Core.ReadLv (Core.LvIdx (_, _, elt, _)) ->
    (match scalar_elt lt elt with
     | Some (`F _) -> CF elt
     | Some (`I _) -> CI elt
     | None -> CTop)
  | Core.ReadLv (Core.LvVar v) ->
    let ty = fmem.(v).Core.m_ty in
    (match scalar_elt lt ty with
     | Some (`F _) -> CF ty
     | Some (`I _) -> CI ty
     | None -> CTop)
  | Core.AddrofLv (Core.LvVar v) -> CI (TPtr fmem.(v).Core.m_ty)
  | Core.AddrofLv (Core.LvIdx (_, _, elt, _)) -> CI (TPtr elt)
  | _ -> CTop

(* Every node of a body, in textual order (loop parts in execution
   order: init, preheader, condition, body, update). *)
let rec iter_instrs (f : Core.instr -> unit) (b : Core.body) =
  List.iter
    (function
      | Core.Ins i -> f i
      | Core.If (_, _, t, e) ->
        iter_instrs f t;
        iter_instrs f e
      | Core.Loop l ->
        iter_instrs f l.Core.l_init;
        iter_instrs f l.Core.l_pre;
        (match l.Core.l_cond with Some (cb, _) -> iter_instrs f cb | None -> ());
        iter_instrs f l.Core.l_body;
        iter_instrs f l.Core.l_update
      | Core.Return _ | Core.Break | Core.Continue -> ())
    b

(* The class of every register of [fn] (at least one slot).  Merge
   variables and parameters take their declared class, unless two
   writes declare different classes or a SetRaw writes them unnormalized;
   then one forward pass classes the single-assignment Lets (defs
   dominate uses, so textual order sees every operand first). *)
let classify lt (fn : Core.fn) : vcls array =
  let nregs = max fn.Core.f_nregs 1 in
  let declared : vcls option array = Array.make nregs None in
  let poison = Array.make nregs false in
  let note r c =
    match declared.(r) with
    | None -> declared.(r) <- Some c
    | Some c0 -> if c0 <> c then poison.(r) <- true
  in
  Array.iter
    (fun (p : Core.pbind) -> note p.Core.p_reg (cls_of_decl lt p.Core.p_ty))
    fn.Core.f_params;
  iter_instrs
    (fun i ->
       match i.Core.i_kind with
       | Core.SetReg (r, ty, _) -> note r (cls_of_decl lt ty)
       | Core.SetRaw (r, _) -> poison.(r) <- true
       | _ -> ())
    fn.Core.f_body;
  let cls =
    Array.init nregs (fun r ->
        match declared.(r) with
        | Some c when not poison.(r) -> c
        | _ -> CTop)
  in
  iter_instrs
    (fun i ->
       match i.Core.i_kind with
       | Core.Let (r, rhs) -> cls.(r) <- let_class lt cls fn.Core.f_mem rhs
       | _ -> ())
    fn.Core.f_body;
  cls

(* ------------------------------------------------------------------ *)
(* Per-instruction static hazard facts                                 *)
(* ------------------------------------------------------------------ *)

(* Uniform flag for whatever accesses an instruction performs: address
   provably identical across active lanes, and for stores the value
   too.  Anything not positively proven is false. *)
let ikind_uniform (u : Uniform.t) (k : Core.ikind) : bool =
  match k with
  | Core.Store (lv, o) -> Uniform.lv_addr u lv && Uniform.operand u o
  | Core.Let (_, Core.ReadLv lv) | Core.Do (Core.ReadLv lv) ->
    Uniform.lv_addr u lv
  | Core.StoreElt (v, _, _, o) -> u.Uniform.u_mem.(v) && Uniform.operand u o
  | Core.ZeroFill v -> u.Uniform.u_mem.(v)
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Straight-line segmentation                                          *)
(* ------------------------------------------------------------------ *)

(* A body split into maximal fusable runs.  [Straight] runs are
   non-empty; singletons fuse too, because even a one-instruction
   region replaces the per-lane reader/op/writer closure chain with a
   direct counted loop.  Every other node — control flow, barriers,
   instructions the executor rejects — passes through as [Other] in
   original order. *)
type seg = Straight of Core.instr list | Other of Core.node

let segment ~(fusable : Core.instr -> bool) (b : Core.body) : seg list =
  let flush run acc =
    match run with [] -> acc | is -> Straight (List.rev is) :: acc
  in
  let rec go run acc = function
    | [] -> List.rev (flush run acc)
    | Core.Ins i :: rest when fusable i -> go (i :: run) acc rest
    | n :: rest -> go [] (Other n :: flush run acc) rest
  in
  go [] [] b
