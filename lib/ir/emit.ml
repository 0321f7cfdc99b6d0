(* Closure emission from the optimized kernel IR.

   One OCaml closure per instruction, composed into per-body arrays,
   with a per-call wrapper that follows `Vm.Interp.call_function` (depth
   guard, argument conversion, a stack-arena mark/release when the body
   allocates there, return-type conversion).  Every
   runtime branch below evaluates as the interpreter does — same value
   normalization, same `on_access`/`on_op`/`on_branch` charges, same
   failure messages — except where the IR's documented promotion
   exception applies: values in virtual registers have no simulated
   memory traffic at all.  No observer is modelled: `Exec.setup` runs a
   launch that has one on the interpreter, and host code never has
   one.

   Functions the lowering rejected run on the interpreter: a `CallU`
   resolves its callee lazily at first call, to an IR wrapper when one
   exists and to `Vm.Interp.call_function` otherwise, so a kernel is
   IR-compiled even when a helper it calls is not.  A host compile's
   kernel calls and string literals go through `Vm.Interp.launch` and
   `Vm.Interp.string_ptr`, as the interpreter's do. *)

open Minic.Ast
module I = Vm.Interp
module V = Vm.Value
module Memory = Vm.Memory
module Layout = Vm.Layout

(* Per-invocation state: registers and memory-variable bindings are
   per-call (and thus per-work-item), like the interpreter's call
   scope.  A register lives either boxed in [regs], which holds only
   the boxed registers, numbered densely, or unboxed in one of the two
   banks (see "Register residency" below); each bank holds the
   function's vector slots (see "Short-vector slots"), then its banked
   registers, then the constants its typed closures read.  [ambient] is
   the attribution site current at function entry, the meaning of an
   instruction's -1 site tag. *)
type renv = {
  ctx : I.ctx;
  regs : I.tval array;
  ints : int array;
  flts : Float.Array.t;
  mem : I.binding array;
  ambient : int;
}

let dummy_binding = { I.b_space = AS_none; b_addr = 0; b_ty = TScalar Void }
let no_ints : int array = [||]
let no_flts = Float.Array.create 0

(* The arena a call without a stack frame names in place of one; never
   marked or released. *)
let no_frame = Memory.create ~initial:0 "no-frame"

(* Runtime lvalue. *)
type dlv =
  | DMem of addr_space * int * ty
  | DVec of addr_space * int * scalar * int array

(* Emitted lvalue: statically-typed memory producer, or generic. *)
type clv =
  | CMem of (renv -> addr_space * int) * ty
  | CDyn of (renv -> dlv)

(* ------------------------------------------------------------------ *)
(* Type-specialised loads and stores (Interp.load / Interp.store with
   the type dispatch done once, at emission)                           *)
(* ------------------------------------------------------------------ *)

let compiled_load lt ty : I.ctx -> addr_space -> int -> V.t =
  match Layout.resolve lt ty with
  | TScalar ((Float | Double) as s) ->
    let n = scalar_size s in
    fun ctx space addr ->
      ctx.I.on_access Memory.Load space addr n;
      V.VFloat (Memory.load_float (ctx.I.arena_of space) addr n)
  | TScalar s ->
    let n = Int.max 1 (scalar_size s) in
    fun ctx space addr ->
      ctx.I.on_access Memory.Load space addr n;
      V.VInt (V.wrap_int s (Memory.load_int (ctx.I.arena_of space) addr n))
  | TVec (s, n) ->
    let es = scalar_size s in
    let fl = is_float_scalar s in
    fun ctx space addr ->
      ctx.I.on_access Memory.Load space addr (es * n);
      let a = ctx.I.arena_of space in
      V.VVec
        (Array.init n (fun i ->
             if fl then V.VFloat (Memory.load_float a (addr + (i * es)) es)
             else V.VInt (V.wrap_int s (Memory.load_int a (addr + (i * es)) es))))
  | TPtr _ | TRef _ | TFun _ | TTexture _ | TImage _ | TSampler ->
    fun ctx space addr ->
      ctx.I.on_access Memory.Load space addr 8;
      V.VInt (Memory.load_int (ctx.I.arena_of space) addr 8)
  | TArr _ -> fun _ space addr -> V.VInt (V.make_ptr space addr)
  | TNamed name when Layout.is_struct lt (TNamed name) ->
    fun _ space addr -> V.VInt (V.make_ptr space addr)
  | TNamed _ ->
    fun ctx space addr ->
      ctx.I.on_access Memory.Load space addr 8;
      V.VInt (Memory.load_int (ctx.I.arena_of space) addr 8)
  | TQual _ | TConst _ -> assert false

let rec compiled_store lt ty : I.ctx -> addr_space -> int -> V.t -> unit =
  match Layout.resolve lt ty with
  | TScalar ((Float | Double) as s) ->
    let n = scalar_size s in
    fun ctx space addr v ->
      ctx.I.on_access Memory.Store space addr n;
      Memory.store_float (ctx.I.arena_of space) addr n
        (V.round_float s (V.to_float v))
  | TScalar s ->
    let n = Int.max 1 (scalar_size s) in
    fun ctx space addr v ->
      ctx.I.on_access Memory.Store space addr n;
      Memory.store_int (ctx.I.arena_of space) addr n (V.to_int v)
  | TVec (s, n) ->
    let es = scalar_size s in
    let fl = is_float_scalar s in
    fun ctx space addr v ->
      ctx.I.on_access Memory.Store space addr (es * n);
      let a = ctx.I.arena_of space in
      let comps = match v with V.VVec c -> c | v -> Array.make n v in
      for i = 0 to n - 1 do
        let c = if i < Array.length comps then comps.(i) else V.VInt 0L in
        if fl then
          Memory.store_float a (addr + (i * es)) es
            (V.round_float s (V.to_float c))
        else Memory.store_int a (addr + (i * es)) es (V.to_int c)
      done
  | TPtr _ | TRef _ | TFun _ | TTexture _ | TImage _ | TSampler ->
    fun ctx space addr v ->
      ctx.I.on_access Memory.Store space addr 8;
      Memory.store_int (ctx.I.arena_of space) addr 8 (V.to_int v)
  | TNamed name when Layout.is_struct lt (TNamed name) ->
    let size = Layout.sizeof lt (TNamed name) in
    fun ctx space addr v ->
      let src = V.to_int v in
      let src_space = V.ptr_space src in
      ctx.I.on_access Memory.Load src_space (V.ptr_offset src) size;
      ctx.I.on_access Memory.Store space addr size;
      Memory.blit
        ~src:(ctx.I.arena_of src_space)
        ~src_addr:(V.ptr_offset src)
        ~dst:(ctx.I.arena_of space) ~dst_addr:addr ~len:size
  | TNamed _ ->
    fun ctx space addr v ->
      ctx.I.on_access Memory.Store space addr 8;
      Memory.store_int (ctx.I.arena_of space) addr 8 (V.to_int v)
  | TArr (elt, _) -> compiled_store lt (TPtr elt)
  | TQual _ | TConst _ -> assert false

(* Generic load/store for dynamically shaped lvalues. *)

let load_dlv ctx = function
  | DMem (sp, addr, ty) -> I.tv (I.load ctx sp addr ty) ty
  | DVec (sp, addr, s, idx) ->
    let es = scalar_size s in
    if Array.length idx = 1 then
      I.tv (I.load ctx sp (addr + (idx.(0) * es)) (TScalar s)) (TScalar s)
    else
      let comps =
        Array.map (fun i -> I.load ctx sp (addr + (i * es)) (TScalar s)) idx
      in
      I.tv (V.VVec comps) (TVec (s, Array.length idx))

let store_dlv ctx lv (x : I.tval) =
  match lv with
  | DMem (sp, addr, ty) -> I.store ctx sp addr ty x.I.v
  | DVec (sp, addr, s, idx) ->
    let es = scalar_size s in
    let comps =
      match x.I.v with
      | V.VVec c -> c
      | v -> Array.make (Array.length idx) v
    in
    Array.iteri
      (fun k i ->
         if k >= Array.length comps then
           I.fail "vector component assignment: %d components for %d slots"
             (Array.length comps) (Array.length idx);
         I.store ctx sp (addr + (i * es)) (TScalar s) comps.(k))
      idx

let run_lv env = function
  | CMem (f, ty) ->
    let sp, addr = f env in
    DMem (sp, addr, ty)
  | CDyn f -> f env

(* Scalar fast paths for the hot binary operators; anything else goes
   through Interp.binop. *)
let fast_binop (op : binop) : (I.ctx -> I.tval -> I.tval -> I.tval) option =
  match op with
  | Add | Sub | Mul | Lt | Gt | Le | Ge | Eq | Ne | Band | Bor | Bxor | Shl
  | Shr ->
    let cmp =
      match op with Lt | Gt | Le | Ge | Eq | Ne -> true | _ -> false
    in
    Some
      (fun ctx (x : I.tval) (y : I.tval) ->
         match x.I.ty, y.I.ty, x.I.v, y.I.v with
         | TScalar Int, TScalar Int, V.VInt a, V.VInt b ->
           ctx.I.on_op I.Op_int;
           let r = I.int_binop op a b ~unsigned:false in
           I.tv (V.VInt (if cmp then r else V.wrap_int Int r)) (TScalar Int)
         | TScalar UInt, TScalar UInt, V.VInt a, V.VInt b ->
           ctx.I.on_op I.Op_int;
           let r = I.int_binop op a b ~unsigned:true in
           if cmp then I.tv (V.VInt r) (TScalar Int)
           else I.tv (V.VInt (V.wrap_int UInt r)) (TScalar UInt)
         | TScalar Float, TScalar Float, V.VFloat a, V.VFloat b ->
           ctx.I.on_op I.Op_float;
           (match I.float_binop op a b with
            | r when cmp -> I.tv r (TScalar Int)
            | V.VFloat f -> I.tv (V.VFloat (V.round_float Float f)) (TScalar Float)
            | r -> I.tv r (TScalar Float))
         | _ -> I.binop ctx op x y)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Register residency                                                  *)
(* ------------------------------------------------------------------ *)

(* A register is banked — held unboxed in the per-call [ints] or
   [flts] array instead of as a fresh [tval] per write — when
   (a) its class ([classify]) is a float, or an int scalar of at most
       32 bits, whose values fit a native int exactly;
   (b) every definition is a parameter binder or a native shape;
   (c) every use is a native shape or an If/loop condition.
   Pointers and 64-bit ints stay boxed: a pointer register can carry any
   int64 (a cast from a long), and a native int has 63 bits.

   A native shape is an [emit_shape] instruction whose int constants
   lie within +-2^61 and whose operands are not wild, or an instruction
   that touches a vector held in slots (see "Short-vector slots").  A
   wild register is the result of a non-native Mov, negation,
   complement or identity CastRet — the shapes that do not wrap, so
   they can carry an out-of-range constant onward.  Every other
   narrow-class value is wrapped to 32 bits or is a finite chain of
   negations away from such a value, so the native reads of the typed
   closures are exact.  One pass in textual order suffices, because
   definitions dominate uses. *)

let native_limit = Int64.shift_left 1L 61

let narrow_scalar s = s <> Void && (not (is_float_scalar s)) && scalar_size s <= 4

let narrow lt ty =
  match Layout.resolve lt ty with TScalar s -> narrow_scalar s | _ -> false

let bankable lt = function
  | Region.CF _ -> true
  | Region.CI t -> narrow lt t
  | Region.CTop -> false

let cst_ok = function
  | Core.Cst { I.v = V.VInt n; _ } ->
    Int64.compare n native_limit < 0
    && Int64.compare n (Int64.neg native_limit) > 0
  | Core.Cst _ | Core.Reg _ -> true

let unwrapped = function
  | Core.Mov _ | Core.Un ((Core.UNeg | Core.UBnot), _) | Core.CastRet _ -> true
  | _ -> false

(* Binary shapes, classed like Interp.binop on the operands' *resolved*
   scalars: float or double arithmetic (Div included) and compares,
   where either operand may be an int, and int/uint arithmetic over any
   narrow int operands.  A superset of [Region.bin_case], which keys on
   the literal types the lockstep engine models. *)
type bshape = BInt of bool (* unsigned *) | BFlt of scalar (* Float, Double *)

let operand_scalar lt cls o =
  match Region.cls_operand cls o with
  | Region.CI t ->
    (match Layout.resolve lt t with
     | TScalar s when s <> Void && not (is_float_scalar s) -> Some s
     | _ -> None)
  | Region.CF t ->
    (match Layout.resolve lt t with
     | TScalar ((Float | Double) as s) -> Some s
     | _ -> None)
  | Region.CTop -> None

let bin_shape lt cls (op : binop) a b : (bshape * Region.vcls) option =
  match operand_scalar lt cls a, operand_scalar lt cls b with
  | Some sa, Some sb ->
    let sc = I.promote sa sb in
    let cmp = Region.is_cmp op in
    if is_float_scalar sc then
      match op with
      | Add | Sub | Mul | Div | Lt | Gt | Le | Ge | Eq | Ne ->
        Some (BFlt sc, if cmp then Region.CI (TScalar Int) else Region.CF (TScalar sc))
      | _ -> None
    else if (sc = Int || sc = UInt) && narrow_scalar sa && narrow_scalar sb
            && Region.fast_op op
    then Some (BInt (sc = UInt), Region.CI (TScalar (if cmp then Int else sc)))
    else None
  | _ -> None

(* Emit's instruction shapes with a typed closure: the fast shapes, with
   binary operators classed by [bin_shape], and the index components
   [classify] classes (no other Swz has a class). *)
let emit_shape lt cls (k : Core.ikind) =
  match k with
  | Core.Let (_, Core.Bin (op, a, b)) -> bin_shape lt cls op a b <> None
  | Core.Let (r, Core.Swz (Core.Reg _, _, Some _)) -> cls.(r) <> Region.CTop
  | _ -> Region.fast_shape lt cls k

(* Register classes: [Region.classify], with four more Let shapes
   classed — the [bin_shape] results; a single component loaded from a
   vector variable, which Interp.load types at its element scalar; an
   index component, one component of a special typed uint3 ([uint3 n]:
   threadIdx, blockIdx, blockDim, gridDim), which the launcher binds to
   a vector of unsigned ints; and a cast to a pointer, which
   Interp.cast_value makes a VInt at the resolved target whatever its
   operand. *)
let classify lt ~uint3 (fn : Core.fn) : Region.vcls array =
  let cls = Region.classify lt fn in
  let special = Array.make (Array.length cls) false in
  Region.iter_instrs
    (fun i ->
       match i.Core.i_kind with
       | Core.Let (r, rhs) ->
         cls.(r) <-
           (match rhs with
            | Core.Bin (op, a, b) ->
              (match bin_shape lt cls op a b with Some (_, c) -> c | None -> Region.CTop)
            | Core.ReadLv (Core.LvSwz (Core.LvVar _, [| _ |], s)) when s <> Void ->
              if is_float_scalar s then Region.CF (TScalar s) else Region.CI (TScalar s)
            | Core.Special n ->
              special.(r) <- uint3 n;
              Region.CTop
            | Core.Swz (Core.Reg v, _, Some (UInt, 3, _)) when special.(v) ->
              Region.CI (TScalar UInt)
            | Core.CastV (t, _) ->
              (match Layout.resolve lt t with
               | TPtr _ as rt -> Region.CI rt
               | _ -> Region.let_class lt cls fn.Core.f_mem rhs)
            | _ -> Region.let_class lt cls fn.Core.f_mem rhs)
       | _ -> ())
    fn.Core.f_body;
  cls

(* ------------------------------------------------------------------ *)
(* Short-vector slots                                                  *)
(* ------------------------------------------------------------------ *)

(* A vector local lives in consecutive bank slots (the float bank for
   float and double components, the int bank for narrow ints) instead
   of private memory when
   (a) it is a private, non-shared variable of such a vector type;
   (b) every use is a whole-vector load or store, or a single-component
       load or store of the variable itself ([local_access]): it is
       never address-taken, indexed (v[i]), swizzled to several
       components or brace-initialized;
   (c) it is never read before it is written: along every path from its
       declaration, each component a load reads has been stored.  A
       store inside one arm of an If, or inside a loop, does not count
       after it.
   A vector register lives in slots when its definition is a vector
   LvIdx load or a load of a slotted local, and every use stores it
   whole, by a vector LvIdx store or to a slotted local of its type.

   Each access still makes the interpreter's one on_access call with
   its kind, space, address and size ([private_accesses] feeds
   Timing.issue_cost), and the DeclMem still allocates, so later private
   addresses do not move.  Slot values are normalized to the element
   type, as a load from memory would return them. *)

let slot_scalar s = is_float_scalar s || narrow_scalar s

let vec_of lt ty =
  match Layout.resolve lt ty with
  | TVec (s, n) when slot_scalar s && n > 0 -> Some (s, n)
  | _ -> None

(* The access an instruction makes to a vector variable as a whole (-1)
   or to one component: variable, store?, component. *)
let local_access (k : Core.ikind) =
  match k with
  | Core.Let (_, Core.ReadLv (Core.LvVar v)) -> Some (v, false, -1)
  | Core.Let (_, Core.ReadLv (Core.LvSwz (Core.LvVar v, [| c |], _))) -> Some (v, false, c)
  | Core.Store (Core.LvVar v, _) -> Some (v, true, -1)
  | Core.Store (Core.LvSwz (Core.LvVar v, [| c |], _), _) -> Some (v, true, c)
  | _ -> None

let rec lv_vars acc = function
  | Core.LvVar v -> v :: acc
  | Core.LvIdxDyn (_, _, Some l) | Core.LvSwz (l, _, _) -> lv_vars acc l
  | Core.LvFree _ | Core.LvIdx _ | Core.LvDeref _ | Core.LvIdxDyn (_, _, None) -> acc

(* Every memory variable an instruction names. *)
let ikind_vars = function
  | Core.Let (_, (Core.ReadLv l | Core.AddrofLv l))
  | Core.Do (Core.ReadLv l | Core.AddrofLv l)
  | Core.Store (l, _) -> lv_vars [] l
  | Core.ZeroFill v | Core.StoreElt (v, _, _, _) -> [ v ]
  | _ -> []

let slotted_locals lt (fn : Core.fn) : (scalar * int) option array =
  let vty =
    Array.map
      (fun (m : Core.minfo) ->
         if m.Core.m_shared
         || not (m.Core.m_space = AS_none || m.Core.m_space = AS_private)
         then None
         else vec_of lt m.Core.m_ty)
      fn.Core.f_mem
  in
  let ok = Array.map Option.is_some vty in
  let full v = match vty.(v) with Some (_, n) -> (1 lsl n) - 1 | None -> 0 in
  (* rule (b) *)
  let elt_ok s = function
    | Core.Let (_, Core.ReadLv (Core.LvSwz (_, _, s')))
    | Core.Store (Core.LvSwz (_, _, s'), _) -> s' = s
    | _ -> true
  in
  Region.iter_instrs
    (fun i ->
       let k = i.Core.i_kind in
       match local_access k with
       | Some (v, _, c) ->
         (match vty.(v) with
          | Some (s, n) when c < n && elt_ok s k -> ()
          | _ -> ok.(v) <- false)
       | None -> List.iter (fun v -> ok.(v) <- false) (ikind_vars k))
    fn.Core.f_body;
  (* rule (c): components surely written, per variable *)
  let rec walk st b = List.iter (node st) b
  and node st = function
    | Core.Ins i ->
      (match i.Core.i_kind with
       | Core.DeclMem v -> st.(v) <- 0
       | k ->
         (match local_access k with
          | Some (v, store, c) ->
            let bits = if c < 0 then full v else 1 lsl c in
            if store then st.(v) <- st.(v) lor bits
            else if st.(v) land bits <> bits then ok.(v) <- false
          | None -> ()))
    | Core.If (_, _, t, e) ->
      let st' = Array.copy st in
      walk st t;
      walk st' e;
      Array.iteri (fun v m -> st.(v) <- m land st'.(v)) st
    | Core.Loop l ->
      (* the condition, body and update each start from the state on
         entry: a continue reaches the update mid-body *)
      walk st l.Core.l_init;
      walk st l.Core.l_pre;
      (match l.Core.l_cond with Some (cb, _) -> walk (Array.copy st) cb | None -> ());
      walk (Array.copy st) l.Core.l_body;
      walk (Array.copy st) l.Core.l_update
    | Core.Return _ | Core.Break | Core.Continue -> ()
  in
  walk (Array.make (Array.length vty) 0) fn.Core.f_body;
  Array.mapi (fun v t -> if ok.(v) then t else None) vty

(* A vector LvIdx access whose address operands the typed closures read
   exactly. *)
let idx_ok cls a i =
  Region.intish cls a && Region.intish cls i && cst_ok a && cst_ok i

(* The vector register an instruction defines or stores whole, with
   its type, when the shape allows slots. *)
let vreg_def lt cls vmem (k : Core.ikind) =
  match k with
  | Core.Let (r, Core.ReadLv (Core.LvIdx (a, i, elt, _))) when idx_ok cls a i ->
    Option.map (fun t -> (r, t)) (vec_of lt elt)
  | Core.Let (r, Core.ReadLv (Core.LvVar v)) -> Option.map (fun t -> (r, t)) vmem.(v)
  | _ -> None

let vreg_use lt cls vmem (k : Core.ikind) =
  match k with
  | Core.Store (Core.LvIdx (a, i, elt, _), Core.Reg r) when idx_ok cls a i ->
    Option.map (fun t -> (r, t)) (vec_of lt elt)
  | Core.Store (Core.LvVar v, Core.Reg r) -> Option.map (fun t -> (r, t)) vmem.(v)
  | _ -> None

let slotted_regs lt (fn : Core.fn) cls vmem : (scalar * int) option array =
  let n = Array.length cls in
  let vty = Array.make n None and bad = Array.make n false in
  let uses = Array.make n 0 and stores = Array.make n 0 in
  Array.iter (fun (p : Core.pbind) -> bad.(p.Core.p_reg) <- true) fn.Core.f_params;
  Core.body_defs ~lets:(fun _ -> ()) ~sets:(fun r -> bad.(r) <- true) fn.Core.f_body;
  Core.body_uses (fun r -> uses.(r) <- uses.(r) + 1) fn.Core.f_body;
  Region.iter_instrs
    (fun i ->
       let k = i.Core.i_kind in
       (match vreg_def lt cls vmem k with Some (r, t) -> vty.(r) <- Some t | None -> ());
       match vreg_use lt cls vmem k with
       | Some (r, t) ->
         if vty.(r) = Some t then stores.(r) <- stores.(r) + 1 else bad.(r) <- true
       | None -> ())
    fn.Core.f_body;
  Array.mapi
    (fun r t -> if bad.(r) || uses.(r) <> stores.(r) then None else t)
    vty

(* Does the instruction touch a vector held in slots, given the first
   slot of each vector local and register (-1: none)?  Residency and
   emission both ask this one question of the one plan. *)
let vec_touch vmem vreg (k : Core.ikind) =
  (match local_access k with Some (v, _, _) -> vmem.(v) >= 0 | None -> false)
  ||
  match k with
  | Core.Let (r, Core.ReadLv (Core.LvIdx _)) | Core.Store (Core.LvIdx _, Core.Reg r) ->
    vreg.(r) >= 0
  | _ -> false

(* ------------------------------------------------------------------ *)
(* The bank plan                                                       *)
(* ------------------------------------------------------------------ *)

type census = {
  c_ints : int;     (* int-banked scalar registers *)
  c_flts : int;     (* float-banked scalar registers *)
  c_boxed : int;    (* registers holding a tval *)
  c_vregs : int;    (* vector registers held in slots *)
  c_vlocals : int;  (* vector locals held in slots *)
}

type residency = {
  r_cls : Region.vcls array;
  r_wild : bool array;
  r_slot : int array;  (* bank index (int or float bank by class), -1 boxed *)
  r_vreg : int array;  (* first slot of a vector register, -1 none *)
  r_vmem : int array;  (* first slot of a vector local, -1 in memory *)
  r_box : int array;   (* index in the frame's [regs], -1 banked or slotted *)
  r_ints : int;        (* int bank slots, before the constants *)
  r_flts : int;
  r_boxes : int;       (* [regs] entries *)
  r_census : census;
}

let native_shape lt cls wild k =
  emit_shape lt cls k
  && List.for_all
       (fun o ->
          cst_ok o && match o with Core.Reg r -> not wild.(r) | Core.Cst _ -> true)
       (Core.ikind_operands k)

let residency lt ~uint3 (fn : Core.fn) : residency =
  let cls = classify lt ~uint3 fn in
  let vmem = slotted_locals lt fn in
  let vreg = slotted_regs lt fn cls vmem in
  (* vector slots open each bank; the scalar registers follow *)
  let ni = ref 0 and nf = ref 0 in
  let place = function
    | None -> -1
    | Some (s, w) ->
      let c = if is_float_scalar s then nf else ni in
      let k = !c in
      c := k + w;
      k
  in
  let r_vreg = Array.map place vreg in
  let r_vmem = Array.map place vmem in
  let n = Array.length cls in
  let wild = Array.make n false in
  let boxed = Array.init n (fun r -> not (bankable lt cls.(r))) in
  let live = Array.make n false in
  Array.iter (fun (p : Core.pbind) -> live.(p.Core.p_reg) <- true) fn.Core.f_params;
  let seen = function Core.Reg r -> live.(r) <- true | Core.Cst _ -> () in
  let mark = function Core.Reg r -> boxed.(r) <- true | Core.Cst _ -> () in
  let rec walk b = List.iter node b
  and node = function
    | Core.Ins i ->
      let k = i.Core.i_kind in
      List.iter seen (Core.ikind_operands k);
      (match k with
       | Core.Let (r, _) | Core.SetReg (r, _, _) | Core.SetRaw (r, _) -> live.(r) <- true
       | _ -> ());
      if not (vec_touch r_vmem r_vreg k || native_shape lt cls wild k) then begin
        List.iter mark (Core.ikind_operands k);
        match k with
        | Core.Let (r, rhs) ->
          boxed.(r) <- true;
          if unwrapped rhs then wild.(r) <- true
        | Core.SetReg (r, _, _) | Core.SetRaw (r, _) -> boxed.(r) <- true
        | _ -> ()
      end
    | Core.If (_, c, t, e) ->
      seen c;
      walk t;
      walk e
    | Core.Loop l ->
      walk l.Core.l_init;
      walk l.Core.l_pre;
      (match l.Core.l_cond with
       | Some (cb, c) ->
         walk cb;
         seen c
       | None -> ());
      walk l.Core.l_body;
      walk l.Core.l_update
    | Core.Return (Some o) ->
      seen o;
      mark o
    | Core.Return None | Core.Break | Core.Continue -> ()
  in
  walk fn.Core.f_body;
  let slot = Array.make n (-1) in
  let vi = !ni and vf = !nf in
  for r = 0 to n - 1 do
    if r_vreg.(r) < 0 && not boxed.(r) then
      match cls.(r) with
      | Region.CI _ ->
        slot.(r) <- !ni;
        incr ni
      | Region.CF _ ->
        slot.(r) <- !nf;
        incr nf
      | Region.CTop -> ()
  done;
  (* the rest are boxed, numbered densely: a frame holds only them *)
  let nb = ref 0 in
  let box =
    Array.init n (fun r ->
        if slot.(r) >= 0 || r_vreg.(r) >= 0 then -1
        else begin
          incr nb;
          !nb - 1
        end)
  in
  let count a = Array.fold_left (fun acc k -> if k >= 0 then acc + 1 else acc) 0 a in
  let nlive = Array.fold_left (fun a l -> if l then a + 1 else a) 0 live in
  let si = !ni - vi and sf = !nf - vf and vregs = count r_vreg in
  { r_cls = cls; r_wild = wild; r_slot = slot; r_vreg; r_vmem; r_box = box;
    r_ints = !ni; r_flts = !nf; r_boxes = !nb;
    r_census =
      { c_ints = si; c_flts = sf; c_boxed = nlive - si - sf - vregs;
        c_vregs = vregs; c_vlocals = count r_vmem } }

(* ------------------------------------------------------------------ *)
(* Module state                                                        *)
(* ------------------------------------------------------------------ *)

(* A function's wrapper.  [convert i v] is argument [i] converted to
   parameter [i]'s type, as a call binds it ([v] itself past the last
   parameter, or when the callee runs on the interpreter, which converts
   as it binds); [run] makes the call on converted arguments.  A call
   site converts each argument it passes; a kernel launch converts its
   arguments once, for every work-item. *)
type wrapper = {
  convert : int -> I.tval -> I.tval;
  run : I.ctx -> I.tval array -> I.tval;
}

type t = {
  e_layout : Layout.env;
  e_host : bool;                                        (* a host compile *)
  e_uint3 : string -> bool;                             (* specials typed uint3 *)
  e_funcs : (string, func) Hashtbl.t;                   (* AST functions *)
  e_ir : (string, (Core.fn, string) result) Hashtbl.t;  (* optimized IR *)
  e_stats : (string, Passes.stats) Hashtbl.t;
  e_wrappers : (string, wrapper) Hashtbl.t;
  e_sited : bool;  (* Minic.Site.present, as Gpusim.Exec attributes on *)
}

(* Residency census of a function: the banked, boxed and slotted
   registers among those it defines or reads, and its slotted vector
   locals (oclcu translate --ir-dump). *)
let census (est : t) (fn : Core.fn) : census =
  (residency est.e_layout ~uint3:est.e_uint3 fn).r_census

(* Wrapper building mutates [e_wrappers]; one process-wide lock
   serialises it, and a domain-local flag lets a resolution nested on
   the same domain through instead of deadlocking. *)
let emit_lock = Mutex.create ()
let emit_lock_held = Domain.DLS.new_key (fun () -> false)

let with_emit_lock f =
  if Domain.DLS.get emit_lock_held then f ()
  else begin
    Mutex.lock emit_lock;
    Domain.DLS.set emit_lock_held true;
    Fun.protect
      ~finally:(fun () ->
          Domain.DLS.set emit_lock_held false;
          Mutex.unlock emit_lock)
      f
  end

(* Per-function build state.  [bank] is None for the closures the
   lockstep engine borrows: there every register stays boxed. *)
type bst = {
  est : t;
  fmem : Core.minfo array;
  sited : bool;
  bank : bank option;
}

(* Bank layout under construction: the residency, then one slot per
   distinct constant a typed closure reads, appended after the vector
   slots and banked registers. *)
and bank = {
  k_res : residency;
  k_ints : (int, int) Hashtbl.t;
  k_flts : (int64, int) Hashtbl.t;
  mutable k_ni : int;
  mutable k_nf : int;
}

let boxed_bst est (fn : Core.fn) =
  { est; fmem = fn.Core.f_mem; sited = fn.Core.f_sited; bank = None }

(* A vector held in slots has no tval and no memory contents: reaching
   it on a generic path would read an empty register or stale memory,
   which the one plan residency and emission share rules out. *)
let on_generic_path what = invalid_arg ("Emit: slotted vector " ^ what ^ " on a generic path")

let slot_of (bst : bst) r =
  match bst.bank with
  | Some k ->
    if k.k_res.r_vreg.(r) >= 0 then on_generic_path "register";
    k.k_res.r_slot.(r)
  | None -> -1

(* A boxed register's index in [regs]: its residency number, or itself
   in the all-boxed frames the lockstep engine builds. *)
let box_of (bst : bst) r =
  match bst.bank with Some k -> k.k_res.r_box.(r) | None -> r

(* Generic reader: banked registers are boxed on the way out (rule (c)
   keeps that off the hot path). *)
let rd (bst : bst) (o : Core.operand) : renv -> I.tval =
  match o with
  | Core.Reg r ->
    let k = slot_of bst r in
    if k < 0 then
      let b = box_of bst r in
      fun env -> env.regs.(b)
    else (
      match (Option.get bst.bank).k_res.r_cls.(r) with
      | Region.CI ty -> fun env -> I.tv (V.VInt (Int64.of_int env.ints.(k))) ty
      | Region.CF ty -> fun env -> I.tv (V.VFloat (Float.Array.get env.flts k)) ty
      | Region.CTop -> assert false)
  | Core.Cst t -> fun _ -> t

(* Generic writer: the class invariant makes unboxing lossless. *)
let wr (bst : bst) r : renv -> I.tval -> unit =
  let k = slot_of bst r in
  if k < 0 then
    let b = box_of bst r in
    fun env v -> env.regs.(b) <- v
  else
    match (Option.get bst.bank).k_res.r_cls.(r) with
    | Region.CI _ ->
      fun env v ->
        env.ints.(k) <-
          (match v.I.v with V.VInt n -> Int64.to_int n | x -> Int64.to_int (V.to_int x))
    | Region.CF _ ->
      fun env v ->
        Float.Array.set env.flts k
          (match v.I.v with V.VFloat f -> f | x -> V.to_float x)
    | Region.CTop -> assert false

(* ------------------------------------------------------------------ *)
(* Typed closures over the banks                                       *)
(* ------------------------------------------------------------------ *)

(* Operand descriptors: a bank index (>= 0), or a boxed register as
   -1 - its [regs] index.  A boxed operand of a known class is read
   straight out of its tval, so reads never allocate; only a boxed
   destination does. *)
let ddesc (k : bank) r =
  if k.k_res.r_vreg.(r) >= 0 then on_generic_path "register";
  let s = k.k_res.r_slot.(r) in
  if s >= 0 then s else -1 - k.k_res.r_box.(r)

let idesc (k : bank) = function
  | Core.Reg r -> ddesc k r
  | Core.Cst { I.v = V.VInt n; _ } ->
    let n = Int64.to_int n in
    (match Hashtbl.find_opt k.k_ints n with
     | Some s -> s
     | None ->
       let s = k.k_ni in
       k.k_ni <- s + 1;
       Hashtbl.replace k.k_ints n s;
       s)
  | Core.Cst _ -> invalid_arg "Emit.idesc"

let fdesc (k : bank) = function
  | Core.Reg r -> ddesc k r
  | Core.Cst { I.v = V.VFloat f; _ } ->
    let bits = Int64.bits_of_float f in
    (match Hashtbl.find_opt k.k_flts bits with
     | Some s -> s
     | None ->
       let s = k.k_nf in
       k.k_nf <- s + 1;
       Hashtbl.replace k.k_flts bits s;
       s)
  | Core.Cst _ -> invalid_arg "Emit.fdesc"

(* Native read: exact for narrow classes, the low 63 bits of a boxed
   64-bit value (only consumers that wrap to 32 bits use it there). *)
let[@inline] geti env d =
  if d >= 0 then Array.unsafe_get env.ints d
  else
    match (Array.unsafe_get env.regs (-1 - d)).I.v with
    | V.VInt n -> Int64.to_int n
    | v -> Int64.to_int (V.to_int v)

(* Exact read, for zero tests, int->float and address arithmetic. *)
let[@inline] geti64 env d =
  if d >= 0 then Int64.of_int (Array.unsafe_get env.ints d)
  else
    match (Array.unsafe_get env.regs (-1 - d)).I.v with
    | V.VInt n -> n
    | v -> V.to_int v

let[@inline] getf env d =
  if d >= 0 then Float.Array.unsafe_get env.flts d
  else
    match (Array.unsafe_get env.regs (-1 - d)).I.v with
    | V.VFloat f -> f
    | v -> V.to_float v

let[@inline] seti env d ty x =
  if d >= 0 then Array.unsafe_set env.ints d x
  else Array.unsafe_set env.regs (-1 - d) (I.tv (V.VInt (Int64.of_int x)) ty)

let[@inline] setf env d ty x =
  if d >= 0 then Float.Array.unsafe_set env.flts d x
  else Array.unsafe_set env.regs (-1 - d) (I.tv (V.VFloat x) ty)

(* V.wrap_int on a native int, for a narrow scalar (Core.wrap_params) *)
let wrap_params = Core.wrap_params

let[@inline] wrap sh mask x = ((x lsl sh) asr sh) land mask

(* Interp.unop's wrap: an int or unsigned int result wraps to 32 bits,
   a narrower one (promoted to int) does not. *)
let wrap32_params lt t =
  match Layout.resolve lt t with
  | TScalar ((Int | UInt) as s) -> wrap_params s
  | _ -> (0, -1)

let[@inline] round32 f = Int32.float_of_bits (Int32.bits_of_float f)
let[@inline] round single f = if single then round32 f else f

(* A uint register's >> by [k] (0..63), wrapped to 32 bits: bits
   k..k+31 of Int64.shift_right_logical on [x]'s sign-extended int64,
   which shifts zeros in above bit 63. *)
let[@inline] lsr64_u32 x k =
  (if k <= 32 then x asr k
   else (x asr (if k > 62 then 62 else k)) land ((1 lsl (64 - k)) - 1))
  land 0xFFFF_FFFF

(* V.ptr_space / V.ptr_offset without boxing the address; a bad tag
   defers to V.ptr_space for its exact exception. *)
let offset_mask = Int64.sub (Int64.shift_left 1L V.space_shift) 1L

let[@inline] space_of addr =
  match Int64.to_int (Int64.shift_right_logical addr V.space_shift) with
  | 1 -> AS_none
  | 2 -> AS_global
  | 3 -> AS_constant
  | 4 -> AS_local
  | 5 -> AS_private
  | _ -> V.ptr_space addr

let[@inline] offset_of addr = Int64.to_int (Int64.logand addr offset_mask)

(* Memory.check *)
let[@inline] check (a : Memory.arena) addr n =
  if addr < 0 || addr + n > a.Memory.brk then
    raise (Memory.Fault (a.Memory.name, addr))

(* The LvIdx address, as the generic lvalue computes it. *)
let[@inline] idx_addr env da di esz =
  let base = geti64 env da in
  if Int64.equal base 0L then I.fail "null pointer indexed";
  Int64.add base (Int64.mul (geti64 env di) (Int64.of_int esz))

(* unsigned order = signed order with the sign bit flipped *)
let[@inline] flip env d = geti env d lxor min_int

let int_op (env : renv) = env.ctx.I.on_op I.Op_int
let float_op (env : renv) = env.ctx.I.on_op I.Op_float

(* V.to_float of a classed operand. *)
let freader (k : bank) o : renv -> float =
  match Region.cls_operand k.k_res.r_cls o with
  | Region.CF _ -> let x = fdesc k o in fun env -> getf env x
  | _ -> let x = idesc k o in fun env -> Int64.to_float (geti64 env x)

let typed_bin lt (k : bank) r op a b : (renv -> unit) option =
  match bin_shape lt k.k_res.r_cls op a b with
  | None -> None
  | Some (c, rc) ->
    let ty = match rc with Region.CI t | Region.CF t -> t | Region.CTop -> assert false in
    let d = ddesc k r in
    (match c with
     | BFlt sc ->
       (* Interp.binop: the charge of the promoted type, fp32 rounding
          for float results *)
       let cc =
         match op with Div -> I.Op_special | _ -> if sc = Double then I.Op_double else I.Op_float
       in
       let single = sc = Float in
       let ch (env : renv) = env.ctx.I.on_op cc in
       let both_f =
         match Region.cls_operand k.k_res.r_cls a, Region.cls_operand k.k_res.r_cls b with
         | Region.CF _, Region.CF _ -> true
         | _ -> false
       in
       if both_f then
         let x = fdesc k a and y = fdesc k b in
         match op with
         | Add -> Some (fun env -> ch env; setf env d ty (round single (getf env x +. getf env y)))
         | Sub -> Some (fun env -> ch env; setf env d ty (round single (getf env x -. getf env y)))
         | Mul -> Some (fun env -> ch env; setf env d ty (round single (getf env x *. getf env y)))
         | Div -> Some (fun env -> ch env; setf env d ty (round single (getf env x /. getf env y)))
         | Lt -> Some (fun env -> ch env; seti env d ty (if getf env x < getf env y then 1 else 0))
         | Gt -> Some (fun env -> ch env; seti env d ty (if getf env x > getf env y then 1 else 0))
         | Le -> Some (fun env -> ch env; seti env d ty (if getf env x <= getf env y then 1 else 0))
         | Ge -> Some (fun env -> ch env; seti env d ty (if getf env x >= getf env y then 1 else 0))
         | Eq -> Some (fun env -> ch env; seti env d ty (if getf env x = getf env y then 1 else 0))
         | Ne -> Some (fun env -> ch env; seti env d ty (if getf env x <> getf env y then 1 else 0))
         | _ -> None
       else
         (* an int operand converts like V.to_float *)
         let x = freader k a and y = freader k b in
         (match op with
          | Add -> Some (fun env -> ch env; setf env d ty (round single (x env +. y env)))
          | Sub -> Some (fun env -> ch env; setf env d ty (round single (x env -. y env)))
          | Mul -> Some (fun env -> ch env; setf env d ty (round single (x env *. y env)))
          | Div -> Some (fun env -> ch env; setf env d ty (round single (x env /. y env)))
          | Lt -> Some (fun env -> ch env; seti env d ty (if x env < y env then 1 else 0))
          | Gt -> Some (fun env -> ch env; seti env d ty (if x env > y env then 1 else 0))
          | Le -> Some (fun env -> ch env; seti env d ty (if x env <= y env then 1 else 0))
          | Ge -> Some (fun env -> ch env; seti env d ty (if x env >= y env then 1 else 0))
          | Eq -> Some (fun env -> ch env; seti env d ty (if x env = y env then 1 else 0))
          | Ne -> Some (fun env -> ch env; seti env d ty (if x env <> y env then 1 else 0))
          | _ -> None)
     | BInt u ->
       let x = idesc k a and y = idesc k b in
       let sh, mask = wrap_params (if u then UInt else Int) in
       (match op with
        | Add -> Some (fun env -> int_op env; seti env d ty (wrap sh mask (geti env x + geti env y)))
        | Sub -> Some (fun env -> int_op env; seti env d ty (wrap sh mask (geti env x - geti env y)))
        | Mul -> Some (fun env -> int_op env; seti env d ty (wrap sh mask (geti env x * geti env y)))
        | Band -> Some (fun env -> int_op env; seti env d ty (wrap sh mask (geti env x land geti env y)))
        | Bor -> Some (fun env -> int_op env; seti env d ty (wrap sh mask (geti env x lor geti env y)))
        | Bxor -> Some (fun env -> int_op env; seti env d ty (wrap sh mask (geti env x lxor geti env y)))
        | Shl ->
          (* counts of 32 and up leave no low word *)
          Some
            (fun env ->
               int_op env;
               let n = geti env y land 63 in
               seti env d ty (if n >= 32 then 0 else wrap sh mask (geti env x lsl n)))
        | Shr when u ->
          Some (fun env -> int_op env; seti env d ty (lsr64_u32 (geti env x) (geti env y land 63)))
        | Shr ->
          Some
            (fun env ->
               int_op env;
               let n = geti env y land 63 in
               seti env d ty (wrap sh mask (geti env x asr (if n > 62 then 62 else n))))
        | Eq -> Some (fun env -> int_op env; seti env d ty (if geti env x = geti env y then 1 else 0))
        | Ne -> Some (fun env -> int_op env; seti env d ty (if geti env x <> geti env y then 1 else 0))
        | (Lt | Gt | Le | Ge) when u ->
          Some
            (match op with
             | Lt -> fun env -> int_op env; seti env d ty (if flip env x < flip env y then 1 else 0)
             | Gt -> fun env -> int_op env; seti env d ty (if flip env x > flip env y then 1 else 0)
             | Le -> fun env -> int_op env; seti env d ty (if flip env x <= flip env y then 1 else 0)
             | _ -> fun env -> int_op env; seti env d ty (if flip env x >= flip env y then 1 else 0))
        | Lt -> Some (fun env -> int_op env; seti env d ty (if geti env x < geti env y then 1 else 0))
        | Gt -> Some (fun env -> int_op env; seti env d ty (if geti env x > geti env y then 1 else 0))
        | Le -> Some (fun env -> int_op env; seti env d ty (if geti env x <= geti env y then 1 else 0))
        | Ge -> Some (fun env -> int_op env; seti env d ty (if geti env x >= geti env y then 1 else 0))
        | _ -> None))

(* Copy of a narrow or float operand (Mov, identity CastRet); a boxed
   operand into a boxed destination stays the generic, sharing copy. *)
let typed_copy (k : bank) r a : (renv -> unit) option =
  let banked = function Core.Reg r -> k.k_res.r_slot.(r) >= 0 | Core.Cst _ -> false in
  if k.k_res.r_slot.(r) < 0 && not (banked a) then None
  else
    let d = ddesc k r in
    match Region.cls_operand k.k_res.r_cls a with
    | Region.CF ty -> let x = fdesc k a in Some (fun env -> setf env d ty (getf env x))
    | Region.CI ty ->
      let x = idesc k a in
      Some (fun env -> seti env d ty (geti env x))
    | Region.CTop -> None

(* cast_value to a float or narrow int scalar; wider targets stay generic. *)
let typed_cast lt (k : bank) r t a : (renv -> unit) option =
  let rt = Layout.resolve lt t in
  let d = ddesc k r in
  match rt, Region.cls_operand k.k_res.r_cls a with
  | TScalar ((Float | Double) as s), Region.CI _ ->
    let x = idesc k a and single = s = Float in
    Some (fun env -> setf env d rt (round single (Int64.to_float (geti64 env x))))
  | TScalar ((Float | Double) as s), Region.CF _ ->
    let x = fdesc k a and single = s = Float in
    Some (fun env -> setf env d rt (round single (getf env x)))
  | TScalar s, Region.CI _ when narrow_scalar s ->
    let x = idesc k a and sh, mask = wrap_params s in
    Some (fun env -> seti env d rt (wrap sh mask (geti env x)))
  | TScalar s, Region.CF _ when narrow_scalar s ->
    (* C truncation; NaN and infinities convert like Int64.of_float *)
    let x = fdesc k a and sh, mask = wrap_params s in
    Some
      (fun env ->
         seti env d rt
           (wrap sh mask (Int64.to_int (Int64.of_float (Float.trunc (getf env x))))))
  | _ -> None

let typed_un lt (k : bank) r u a : (renv -> unit) option =
  match Region.un_case lt k.k_res.r_cls u a, Region.cls_operand k.k_res.r_cls a with
  | None, _ -> None
  | Some rc, ca ->
    let ty = match rc with Region.CI t | Region.CF t -> t | Region.CTop -> assert false in
    let d = ddesc k r in
    (match u, ca with
     | Core.UNeg, Region.CF _ ->
       let x = fdesc k a in
       Some (fun env -> float_op env; setf env d ty (-.getf env x))
     | Core.UNeg, Region.CI t when narrow lt t ->
       let x = idesc k a and sh, mask = wrap32_params lt t in
       Some (fun env -> int_op env; seti env d ty (wrap sh mask (-geti env x)))
     | Core.UBnot, Region.CI t when narrow lt t ->
       let x = idesc k a and sh, mask = wrap32_params lt t in
       Some (fun env -> int_op env; seti env d ty (wrap sh mask (lnot (geti env x))))
     | Core.ULnot, Region.CI _ ->
       let x = idesc k a in
       Some
         (fun env -> int_op env; seti env d ty (if Int64.equal (geti64 env x) 0L then 1 else 0))
     | Core.UBool, Region.CI _ ->
       let x = idesc k a in
       Some (fun env -> seti env d ty (if Int64.equal (geti64 env x) 0L then 0 else 1))
     | _ -> None)

(* ------------------------------------------------------------------ *)
(* Vector slots                                                        *)
(* ------------------------------------------------------------------ *)

(* One closure per instruction that touches a slotted vector (see
   "Short-vector slots"), with the on_access call, the conversions and
   the failure order of the generic load or store it replaces.  Memory
   stores and out-of-bounds faults go component by component, like
   Interp.store_raw, so a fault leaves the same partial buffer. *)
let vec_ikind (bst : bst) (k : bank) (ik : Core.ikind) : renv -> unit =
  let lt = bst.est.e_layout and res = k.k_res in
  let local v =
    match vec_of lt bst.fmem.(v).Core.m_ty with
    | Some (s, n) -> (res.r_vmem.(v), s, n)
    | None -> invalid_arg "Emit.vec_ikind"
  in
  let access kind (env : renv) v off n =
    let b = Array.unsafe_get env.mem v in
    env.ctx.I.on_access kind b.I.b_space (b.I.b_addr + off) n
  in
  let blit fl src dst n (env : renv) =
    if fl then Float.Array.blit env.flts src env.flts dst n
    else Array.blit env.ints src env.ints dst n
  in
  match ik with
  | Core.Let (r, Core.ReadLv (Core.LvVar v)) ->
    let kv, s, n = local v in
    let fl = is_float_scalar s and sz = scalar_size s * n in
    let kr = res.r_vreg.(r) in
    if kr >= 0 then fun env -> access Memory.Load env v 0 sz; blit fl kv kr n env
    else
      (* a boxed vector: Interp.load's components, at the declared type *)
      let ty = bst.fmem.(v).Core.m_ty and b = box_of bst r in
      fun env ->
        access Memory.Load env v 0 sz;
        env.regs.(b) <-
          I.tv
            (V.VVec
               (Array.init n (fun c ->
                    if fl then V.VFloat (Float.Array.get env.flts (kv + c))
                    else V.VInt (Int64.of_int env.ints.(kv + c)))))
            ty
  | Core.Let (r, Core.ReadLv (Core.LvSwz (Core.LvVar v, [| c |], _))) ->
    let kv, s, _ = local v in
    let es = scalar_size s and j = kv + c and ty = TScalar s and d = ddesc k r in
    if is_float_scalar s then
      fun env -> access Memory.Load env v (c * es) es; setf env d ty (Float.Array.unsafe_get env.flts j)
    else fun env -> access Memory.Load env v (c * es) es; seti env d ty (Array.unsafe_get env.ints j)
  | Core.Store (Core.LvVar v, o) ->
    let kv, s, n = local v in
    let fl = is_float_scalar s and sz = scalar_size s * n in
    (match o with
     | Core.Reg r when res.r_vreg.(r) >= 0 ->
       let kr = res.r_vreg.(r) in
       fun env -> access Memory.Store env v 0 sz; blit fl kr kv n env
     | _ ->
       (* Interp.store_raw: a scalar splats, missing components are 0 *)
       let co = rd bst o in
       fun env ->
         let x = (co env).I.v in
         access Memory.Store env v 0 sz;
         let comps = match x with V.VVec cs -> cs | x -> Array.make n x in
         for c = 0 to n - 1 do
           let e = if c < Array.length comps then comps.(c) else V.VInt 0L in
           if fl then Float.Array.set env.flts (kv + c) (V.round_float s (V.to_float e))
           else env.ints.(kv + c) <- Int64.to_int (V.wrap_int s (V.to_int e))
         done)
  | Core.Store (Core.LvSwz (Core.LvVar v, [| c |], _), o) ->
    let kv, s, _ = local v in
    let es = scalar_size s and j = kv + c in
    let fl = is_float_scalar s and single = s = Float in
    (match o, Region.cls_operand res.r_cls o with
     | Core.Reg _, Region.CF _ when fl ->
       let x = fdesc k o in
       fun env ->
         access Memory.Store env v (c * es) es;
         Float.Array.unsafe_set env.flts j (round single (getf env x))
     | Core.Reg _, Region.CI _ when fl ->
       let x = idesc k o in
       fun env ->
         access Memory.Store env v (c * es) es;
         Float.Array.unsafe_set env.flts j (round single (Int64.to_float (geti64 env x)))
     | Core.Reg _, Region.CI _ ->
       let x = idesc k o and sh, mask = wrap_params s in
       fun env ->
         access Memory.Store env v (c * es) es;
         Array.unsafe_set env.ints j (wrap sh mask (geti env x))
     | _ ->
       (* Interp.store_lvalue on a one-component lvalue *)
       let co = rd bst o in
       fun env ->
         let e =
           match (co env).I.v with
           | V.VVec cs when Array.length cs = 0 ->
             I.fail "vector component assignment: %d components for %d slots" 0 1
           | V.VVec cs -> cs.(0)
           | e -> e
         in
         access Memory.Store env v (c * es) es;
         if fl then Float.Array.set env.flts j (V.round_float s (V.to_float e))
         else env.ints.(j) <- Int64.to_int (V.wrap_int s (V.to_int e)))
  | Core.Let (r, Core.ReadLv (Core.LvIdx (a, i, elt, esz))) ->
    let s, n = Option.get (vec_of lt elt) in
    let xa = idesc k a and xi = idesc k i and kr = res.r_vreg.(r) in
    let es = scalar_size s in
    let sh, mask = if is_float_scalar s then (0, 0) else wrap_params s in
    let fl = is_float_scalar s in
    fun env ->
      let addr = idx_addr env xa xi esz in
      let sp = space_of addr and off = offset_of addr in
      let ctx = env.ctx in
      ctx.I.on_access Memory.Load sp off (es * n);
      let ar = ctx.I.arena_of sp in
      for c = 0 to n - 1 do
        let o = off + (c * es) in
        check ar o es;
        let data = ar.Memory.data in
        if fl then
          Float.Array.unsafe_set env.flts (kr + c)
            (if es = 4 then Int32.float_of_bits (Bytes.get_int32_le data o)
             else Int64.float_of_bits (Bytes.get_int64_le data o))
        else
          Array.unsafe_set env.ints (kr + c)
            (wrap sh mask
               (if es = 4 then Int32.to_int (Bytes.get_int32_le data o)
                else if es = 2 then Bytes.get_uint16_le data o
                else Char.code (Bytes.get data o)))
      done
  | Core.Store (Core.LvIdx (a, i, elt, esz), Core.Reg r) ->
    let s, n = Option.get (vec_of lt elt) in
    let xa = idesc k a and xi = idesc k i and kr = res.r_vreg.(r) in
    let es = scalar_size s and fl = is_float_scalar s in
    fun env ->
      let addr = idx_addr env xa xi esz in
      let sp = space_of addr and off = offset_of addr in
      let ctx = env.ctx in
      ctx.I.on_access Memory.Store sp off (es * n);
      let ar = ctx.I.arena_of sp in
      for c = 0 to n - 1 do
        let o = off + (c * es) in
        check ar o es;
        let data = ar.Memory.data in
        if fl then begin
          let f = Float.Array.unsafe_get env.flts (kr + c) in
          if es = 4 then Bytes.set_int32_le data o (Int32.bits_of_float f)
          else Bytes.set_int64_le data o (Int64.bits_of_float f)
        end
        else begin
          let x = Array.unsafe_get env.ints (kr + c) in
          if es = 4 then Bytes.set_int32_le data o (Int32.of_int x)
          else if es = 2 then Bytes.set_uint16_le data o (x land 0xFFFF)
          else Bytes.set data o (Char.unsafe_chr (x land 0xFF))
        end
      done
  | _ -> invalid_arg "Emit.vec_ikind"

(* ------------------------------------------------------------------ *)
(* Lvalues                                                             *)
(* ------------------------------------------------------------------ *)

let rec emit_lv (bst : bst) (lv : Core.lv) : clv =
  match lv with
  | Core.LvVar v ->
    (match bst.bank with
     | Some k when k.k_res.r_vmem.(v) >= 0 -> on_generic_path "local"
     | _ -> ());
    let ty = bst.fmem.(v).Core.m_ty in
    CMem
      ( (fun env ->
           let b = env.mem.(v) in
           (b.I.b_space, b.I.b_addr)),
        ty )
  | Core.LvFree name ->
    CDyn
      (fun env ->
         match I.lookup env.ctx name with
         | Some b -> DMem (b.I.b_space, b.I.b_addr, b.I.b_ty)
         | None -> I.fail "unbound variable %s (as lvalue)" name)
  | Core.LvIdx (a, i, elt, esz) ->
    let ca = rd bst a and ci = rd bst i in
    CMem
      ( (fun env ->
           let base = V.to_int (ca env).I.v in
           if V.is_null base then I.fail "null pointer indexed";
           let addr =
             Int64.add base (Int64.mul (V.to_int (ci env).I.v) (Int64.of_int esz))
           in
           (V.ptr_space addr, V.ptr_offset addr)),
        elt )
  | Core.LvDeref p ->
    let cp = rd bst p in
    CDyn
      (fun env ->
         let pv = cp env in
         let ptr = V.to_int pv.I.v in
         if V.is_null ptr then I.fail "null pointer dereference";
         let pointee =
           match Layout.resolve env.ctx.I.layout pv.I.ty with
           | TPtr t | TArr (t, _) | TRef t -> t
           | _ -> TScalar Int
         in
         DMem (V.ptr_space ptr, V.ptr_offset ptr, pointee))
  | Core.LvIdxDyn (a, i, blv) ->
    let ca = rd bst a and ci = rd bst i in
    let cbl = Option.map (emit_lv bst) blv in
    CDyn
      (fun env ->
         let av = ca env in
         let iv = ci env in
         match Layout.resolve env.ctx.I.layout av.I.ty with
         | TPtr elt | TArr (elt, _) ->
           let esz = Layout.sizeof env.ctx.I.layout elt in
           let base = V.to_int av.I.v in
           if V.is_null base then I.fail "null pointer indexed";
           let addr =
             Int64.add base (Int64.mul (V.to_int iv.I.v) (Int64.of_int esz))
           in
           DMem (V.ptr_space addr, V.ptr_offset addr, elt)
         | TVec (s, _) when cbl <> None ->
           (match run_lv env (Option.get cbl) with
            | DMem (sp, addr, _) ->
              DVec (sp, addr, s, [| Int64.to_int (V.to_int iv.I.v) |])
            | DVec _ -> I.fail "nested vector index")
         | t -> I.fail "cannot index type %s" (show_ty t))
  | Core.LvSwz (l, idx, s) ->
    let cl = emit_lv bst l in
    CDyn
      (fun env ->
         match run_lv env cl with
         | DMem (sp, addr, _) -> DVec (sp, addr, s, idx)
         | DVec (sp, addr, s', outer) ->
           let n = Array.length outer in
           DVec
             ( sp, addr, s',
               Array.map
                 (fun i ->
                    if i >= 0 && i < n then outer.(i)
                    else I.fail "vector component index %d out of range" i)
                 idx ))

(* ------------------------------------------------------------------ *)
(* Rhs                                                                 *)
(* ------------------------------------------------------------------ *)

(* Does a call of [fn] need a frame in the stack arena?  Only when
   something in its own body allocates there: a DeclMem in the stack
   space, or the interpreter's dim3 constructor, which builds its struct
   in the caller's frame.  Callees mark their own frames, so a device
   function without either never touches the arena, and an item's
   private arena is not created for it.  A host compile keeps every
   frame: host externals build temporaries on the host stack, which is
   the host arena and always exists. *)
let needs_frame (est : t) (fn : Core.fn) =
  est.e_host
  ||
  let found = ref false in
  Region.iter_instrs
    (fun i ->
       match i.Core.i_kind with
       | Core.DeclMem v ->
         let m = fn.Core.f_mem.(v) in
         if (not m.Core.m_shared)
         && (m.Core.m_space = AS_none || m.Core.m_space = AS_private)
         then found := true
       | Core.Let (_, Core.CallE ("dim3", _)) | Core.Do (Core.CallE ("dim3", _)) ->
         found := true
       | _ -> ())
    fn.Core.f_body;
  !found

(* Lazily resolved callee wrapper: IR when available, the interpreter
   otherwise; prototypes fail at call time like the interpreter. *)
let rec resolve_wrapper (est : t) (name : string) : wrapper =
  with_emit_lock (fun () ->
      match Hashtbl.find_opt est.e_wrappers name with
      | Some w -> w
      | None ->
        let interpreted run = { convert = (fun _ v -> v); run } in
        let w =
          match Hashtbl.find_opt est.e_ir name with
          | Some (Ok fn) -> prepare_fn est fn
          | _ ->
            (match Hashtbl.find_opt est.e_funcs name with
             | Some ({ fn_body = Some _; _ } as f) ->
               interpreted (fun ctx args -> I.call_function ctx f (Array.to_list args))
             | Some { fn_body = None; _ } ->
               interpreted (fun _ _ -> I.fail "calling prototype %s" name)
             | None -> interpreted (fun _ _ -> I.fail "unknown function %s" name))
        in
        Hashtbl.replace est.e_wrappers name w;
        w)

and emit_rhs (bst : bst) (rhs : Core.rhs) : renv -> I.tval =
  let lt = bst.est.e_layout in
  match rhs with
  | Core.Free name ->
    fun env ->
      let ctx = env.ctx in
      (match I.lookup ctx name with
       | Some b -> I.tv (I.load ctx b.I.b_space b.I.b_addr b.I.b_ty) b.I.b_ty
       | None ->
         (match ctx.I.special_ident name with
          | Some t -> t
          | None -> I.fail "unbound identifier %s" name))
  | Core.Bin (op, a, b) ->
    let ca = rd bst a and cb = rd bst b in
    (match fast_binop op with
     | Some f -> fun env -> f env.ctx (ca env) (cb env)
     | None -> fun env -> I.binop env.ctx op (ca env) (cb env))
  | Core.Un (u, a) ->
    let ca = rd bst a in
    (match u with
     | Core.UNeg -> fun env -> I.unop env.ctx Neg (ca env)
     | Core.ULnot ->
       fun env ->
         let x = ca env in
         env.ctx.I.on_op I.Op_int;
         I.tv (V.of_bool (not (V.to_bool x.I.v))) (TScalar Int)
     | Core.UBnot -> fun env -> I.unop env.ctx Bnot (ca env)
     | Core.UBool ->
       fun env ->
         let x = ca env in
         I.tv (V.of_bool (V.to_bool x.I.v)) (TScalar Int))
  | Core.CastV (t, a) ->
    let ca = rd bst a in
    fun env -> I.cast_value env.ctx t (ca env)
  | Core.CastRet (t, a) ->
    let ca = rd bst a in
    fun env ->
      let x = ca env in
      if equal_ty x.I.ty t then x else I.cast_value env.ctx t x
  | Core.Mov a -> rd bst a
  | Core.ReadLv lv ->
    (match emit_lv bst lv with
     | CMem (f, ty) ->
       let cl = compiled_load lt ty in
       fun env ->
         let sp, addr = f env in
         I.tv (cl env.ctx sp addr) ty
     | CDyn f -> fun env -> load_dlv env.ctx (f env))
  | Core.AddrofLv lv ->
    (match emit_lv bst lv with
     | CMem (f, ty) ->
       fun env ->
         let sp, addr = f env in
         I.tv (V.VInt (V.make_ptr sp addr)) (TPtr ty)
     | CDyn f ->
       fun env ->
         (match f env with
          | DMem (sp, addr, ty) -> I.tv (V.VInt (V.make_ptr sp addr)) (TPtr ty)
          | DVec (sp, addr, s, idx) when Array.length idx > 0 ->
            I.tv
              (V.VInt (V.make_ptr sp (addr + (idx.(0) * scalar_size s))))
              (TPtr (TScalar s))
          | DVec _ -> I.fail "empty vector lvalue"))
  | Core.Swz (a, m, pre) ->
    let ca = rd bst a in
    let slow env (x : I.tval) =
      match Layout.resolve env.ctx.I.layout x.I.ty with
      | TVec (s, width) ->
        (match I.vec_indices width m with
         | Some [ i ] ->
           (match x.I.v with
            | V.VVec c -> I.tv c.(i) (TScalar s)
            | v -> I.tv v (TScalar s))
         | Some idx ->
           (match x.I.v with
            | V.VVec c ->
              I.tv
                (V.VVec (Array.of_list (List.map (fun i -> c.(i)) idx)))
                (TVec (s, List.length idx))
            | v -> I.tv v (TVec (s, List.length idx)))
         | None -> I.fail "bad component .%s" m)
      | t -> I.fail "cannot access member .%s of %s" m (show_ty t)
    in
    (match pre with
     | Some (_, w, i) ->
       fun env ->
         let x = ca env in
         (match x.I.ty with
          | TVec (s, w') when w' = w ->
            (match x.I.v with
             | V.VVec c -> I.tv c.(i) (TScalar s)
             | v -> I.tv v (TScalar s))
          | _ -> slow env x)
     | None -> fun env -> slow env (ca env))
  | Core.Vecc (t, ops) ->
    let cargs = List.map (rd bst) ops in
    (match Layout.resolve lt t with
     | TVec (s, n) ->
       fun env ->
         let comps =
           List.concat_map
             (fun f ->
                match (f env).I.v with
                | V.VVec c -> Array.to_list c
                | v -> [ v ])
             cargs
         in
         let comps =
           if List.length comps = 1 then List.init n (fun _ -> List.hd comps)
           else comps
         in
         if List.length comps < n then I.fail "vector literal too short";
         let conv c =
           if is_float_scalar s then V.VFloat (V.round_float s (V.to_float c))
           else V.VInt (V.wrap_int s (V.to_int c))
         in
         I.tv
           (V.VVec
              (Array.of_list
                 (List.filteri (fun i _ -> i < n) comps |> List.map conv)))
           (TVec (s, n))
     | _ ->
       (match cargs with
        | ca :: _ -> fun env -> I.cast_value env.ctx t (ca env)
        | [] -> fun _ -> I.fail "empty vector literal"))
  | Core.Special name ->
    fun env ->
      (match env.ctx.I.special_ident name with
       | Some t -> t
       | None -> I.fail "unbound identifier %s" name)
  | Core.CallE (name, ops) ->
    (* the callee resolves once per launch context, through its memo *)
    let id = I.intern_external name in
    (match List.map (rd bst) ops with
     | [] ->
       fun env -> (I.resolve_external env.ctx id name) env.ctx []
     | [ ca ] ->
       fun env ->
         let a = ca env in
         (I.resolve_external env.ctx id name) env.ctx [ a ]
     | cargs ->
       fun env ->
         let argv = List.map (fun f -> f env) cargs in
         (I.resolve_external env.ctx id name) env.ctx argv)
  | Core.CallU (name, ops) ->
    let cargs = Array.of_list (List.map (rd bst) ops) in
    let est = bst.est in
    let cached = ref None in
    fun env ->
      let w =
        match !cached with
        | Some w -> w
        | None ->
          let w = resolve_wrapper est name in
          cached := Some w;
          w
      in
      let n = Array.length cargs in
      let argv = Array.make n I.tunit in
      for i = 0 to n - 1 do
        argv.(i) <- w.convert i (cargs.(i) env)
      done;
      w.run env.ctx argv
  | Core.CallK (kernel, tmpl, has_shmem, ops) ->
    (match List.map (rd bst) ops with
     | cgrid :: cblock :: rest ->
       let cshmem, cargs =
         match has_shmem, rest with
         | true, c :: cargs -> (Some c, cargs)
         | _ -> (None, rest)
       in
       fun env ->
         I.launch env.ctx
           { I.lc_kernel = kernel; lc_tmpl = tmpl; lc_grid = cgrid env;
             lc_block = cblock env; lc_shmem = Option.map (fun c -> c env) cshmem;
             lc_args = List.map (fun c -> c env) cargs }
     | _ -> invalid_arg "Emit: kernel call without grid and block")
  | Core.StrP str ->
    fun env -> I.tv (V.VInt (I.string_ptr env.ctx str)) (TPtr (TScalar Char))

(* ------------------------------------------------------------------ *)
(* Instructions                                                        *)
(* ------------------------------------------------------------------ *)

and emit_ikind (bst : bst) (k : Core.ikind) : renv -> unit =
  match bst.bank with
  | Some bk when vec_touch bk.k_res.r_vmem bk.k_res.r_vreg k -> vec_ikind bst bk k
  | Some bk when native_shape bst.est.e_layout bk.k_res.r_cls bk.k_res.r_wild k ->
    (match typed_ikind bst bk k with Some f -> f | None -> generic_ikind bst k)
  | _ -> generic_ikind bst k

(* One closure per native shape, reading and writing the banks
   directly, with the generic path's charges, wraps, fp32 rounding and
   failure messages in the same order.  None leaves the shape to the
   generic closure (64-bit and pointer results, CallE, sharing copies). *)
and typed_ikind (bst : bst) (bk : bank) (k : Core.ikind) : (renv -> unit) option =
  let lt = bst.est.e_layout in
  match k with
  | Core.Let (r, Core.Bin (op, a, b)) -> typed_bin lt bk r op a b
  | Core.Let (r, Core.Un (u, a)) -> typed_un lt bk r u a
  | Core.Let (r, Core.Mov a) when bankable lt bk.k_res.r_cls.(r) -> typed_copy bk r a
  | Core.Let (r, Core.CastV (t, a)) -> typed_cast lt bk r t a
  | Core.Let (r, Core.Swz (Core.Reg v, _, Some (_, _, c))) ->
    (* an index component: the generic Swz's component, charge-free *)
    let b = box_of bst v and d = ddesc bk r and ty = TScalar UInt in
    let slow = generic_ikind bst k in
    Some
      (fun env ->
         match (Array.unsafe_get env.regs b).I.v with
         | V.VVec a when Array.length a = 3 ->
           (match Array.unsafe_get a c with
            | V.VInt n -> seti env d ty (Int64.to_int n)
            | _ -> slow env)
         | _ -> slow env)
  | Core.Let (r, Core.CastRet (t, a)) ->
    (match Region.cls_operand bk.k_res.r_cls a with
     | (Region.CI tc | Region.CF tc) when equal_ty tc t ->
       if bankable lt bk.k_res.r_cls.(r) then typed_copy bk r a else None
     | _ -> typed_cast lt bk r t a)
  | Core.Let (r, Core.ReadLv (Core.LvIdx (a, i, elt, esz))) ->
    let xa = idesc bk a and xi = idesc bk i and d = ddesc bk r in
    (match Layout.resolve lt elt with
     | TScalar ((Float | Double) as s) ->
       let n = scalar_size s in
       Some
         (fun env ->
            let addr = idx_addr env xa xi esz in
            let sp = space_of addr and off = offset_of addr in
            let ctx = env.ctx in
            ctx.I.on_access Memory.Load sp off n;
            let ar = ctx.I.arena_of sp in
            check ar off n;
            setf env d elt
              (if n = 4 then Int32.float_of_bits (Bytes.get_int32_le ar.Memory.data off)
               else Int64.float_of_bits (Bytes.get_int64_le ar.Memory.data off)))
     | TScalar s when narrow_scalar s ->
       let n = scalar_size s and sh, mask = wrap_params s in
       Some
         (fun env ->
            let addr = idx_addr env xa xi esz in
            let sp = space_of addr and off = offset_of addr in
            let ctx = env.ctx in
            ctx.I.on_access Memory.Load sp off n;
            let ar = ctx.I.arena_of sp in
            check ar off n;
            let data = ar.Memory.data in
            let v =
              if n = 4 then Int32.to_int (Bytes.get_int32_le data off)
              else if n = 2 then Bytes.get_uint16_le data off
              else Char.code (Bytes.get data off)
            in
            seti env d elt (wrap sh mask v))
     | TScalar _ ->
       (* 64-bit element: never banked, loaded exactly *)
       let b = box_of bst r in
       Some
         (fun env ->
            let addr = idx_addr env xa xi esz in
            let sp = space_of addr and off = offset_of addr in
            let ctx = env.ctx in
            ctx.I.on_access Memory.Load sp off 8;
            let ar = ctx.I.arena_of sp in
            check ar off 8;
            env.regs.(b) <- I.tv (V.VInt (Bytes.get_int64_le ar.Memory.data off)) elt)
     | _ -> None)
  | Core.SetReg (r, ty, o) ->
    let d = ddesc bk r in
    (match Layout.resolve lt ty with
     | TScalar ((Float | Double) as s) ->
       let x = fdesc bk o and single = s = Float in
       Some (fun env -> setf env d ty (round single (getf env x)))
     | TScalar s when narrow_scalar s ->
       let x = idesc bk o and sh, mask = wrap_params s in
       Some (fun env -> seti env d ty (wrap sh mask (geti env x)))
     | _ -> None)
  | Core.Store (Core.LvIdx (a, i, elt, esz), o) ->
    let xa = idesc bk a and xi = idesc bk i in
    (match Layout.resolve lt elt with
     | TScalar ((Float | Double) as s) ->
       let n = scalar_size s and x = fdesc bk o and single = s = Float in
       Some
         (fun env ->
            let addr = idx_addr env xa xi esz in
            let sp = space_of addr and off = offset_of addr in
            let ctx = env.ctx in
            ctx.I.on_access Memory.Store sp off n;
            let ar = ctx.I.arena_of sp in
            check ar off n;
            let f = round single (getf env x) in
            if n = 4 then Bytes.set_int32_le ar.Memory.data off (Int32.bits_of_float f)
            else Bytes.set_int64_le ar.Memory.data off (Int64.bits_of_float f))
     | TScalar s ->
       let n = Int.max 1 (scalar_size s) and x = idesc bk o in
       Some
         (fun env ->
            let addr = idx_addr env xa xi esz in
            let sp = space_of addr and off = offset_of addr in
            let ctx = env.ctx in
            ctx.I.on_access Memory.Store sp off n;
            let ar = ctx.I.arena_of sp in
            check ar off n;
            let data = ar.Memory.data in
            if n = 8 then Bytes.set_int64_le data off (geti64 env x)
            else if n = 4 then Bytes.set_int32_le data off (Int32.of_int (geti env x))
            else if n = 2 then Bytes.set_uint16_le data off (geti env x land 0xFFFF)
            else Bytes.set data off (Char.unsafe_chr (geti env x land 0xFF)))
     | _ -> None)
  | _ -> None

and generic_ikind (bst : bst) (k : Core.ikind) : renv -> unit =
  let lt = bst.est.e_layout in
  match k with
  | Core.Let (r, rhs) ->
    let f = emit_rhs bst rhs in
    if slot_of bst r < 0 then
      let b = box_of bst r in
      fun env -> env.regs.(b) <- f env
    else
      let w = wr bst r in
      fun env -> w env (f env)
  | Core.SetReg (r, ty, o) ->
    let co = rd bst o in
    let norm = Core.normalizer lt ty in
    if slot_of bst r < 0 then
      let b = box_of bst r in
      fun env -> env.regs.(b) <- norm (co env)
    else
      let w = wr bst r in
      fun env -> w env (norm (co env))
  | Core.SetRaw (r, o) ->
    (* never banked: a raw write does not normalize *)
    let co = rd bst o and b = box_of bst r in
    fun env -> env.regs.(b) <- co env
  | Core.Store (lv, o) ->
    let co = rd bst o in
    (match emit_lv bst lv with
     | CMem (f, ty) ->
       let cs = compiled_store lt ty in
       fun env ->
         let sp, addr = f env in
         cs env.ctx sp addr (co env).I.v
     | CDyn f -> fun env -> store_dlv env.ctx (f env) (co env))
  | Core.Do rhs ->
    let f = emit_rhs bst rhs in
    fun env -> ignore (f env)
  | Core.Barrier (name, ops, _removable) ->
    (* a surviving barrier is a plain external call; the barrier effect
       comes from the launcher's registered external *)
    let f = emit_rhs bst (Core.CallE (name, ops)) in
    fun env -> ignore (f env)
  | Core.DeclMem v ->
    let m = bst.fmem.(v) in
    if m.Core.m_shared then
      fun env ->
        (match I.lookup env.ctx "$dynshared" with
         | Some b ->
           env.mem.(v) <-
             { I.b_space = b.I.b_space; b_addr = b.I.b_addr; b_ty = m.Core.m_ty }
         | None -> I.fail "extern __shared__ outside a kernel launch")
    else begin
      let fixed = if m.Core.m_space <> AS_none then Some m.Core.m_space else None in
      let size = m.Core.m_size and align = m.Core.m_align in
      let name = m.Core.m_name and ty = m.Core.m_ty in
      fun env ->
        let ctx = env.ctx in
        let space =
          match fixed with Some s -> s | None -> ctx.I.stack_space
        in
        let addr =
          match space, ctx.I.group_locals with
          | AS_local, Some tbl ->
            (match Hashtbl.find_opt tbl name with
             | Some addr -> addr
             | None ->
               let addr = Memory.alloc (ctx.I.arena_of AS_local) ~align size in
               Hashtbl.replace tbl name addr;
               addr)
          | _ -> Memory.alloc (ctx.I.arena_of space) ~align size
        in
        env.mem.(v) <- { I.b_space = space; b_addr = addr; b_ty = ty }
    end
  | Core.ZeroFill v ->
    let zeros = Bytes.make bst.fmem.(v).Core.m_size '\000' in
    fun env ->
      let b = env.mem.(v) in
      Memory.store_bytes (env.ctx.I.arena_of b.I.b_space) b.I.b_addr zeros
  | Core.StoreElt (v, off, ty, o) ->
    let co = rd bst o in
    let cs = compiled_store lt ty in
    fun env ->
      let b = env.mem.(v) in
      cs env.ctx b.I.b_space (b.I.b_addr + off) (co env).I.v
  | Core.Elim n ->
    fun env -> env.ctx.I.on_elim n

(* ------------------------------------------------------------------ *)
(* Control flow                                                        *)
(* ------------------------------------------------------------------ *)

(* Attribution sites are set statically: a closure is inserted whenever
   the build-time tracked site differs from the instruction's tag, so
   straight-line runs inside one source site pay nothing.  Functions
   without any site tag skip the machinery entirely — their charges all
   land on the caller's current site, exactly like the closure
   backend's un-instrumented statements. *)
and set_site_closure (s : int) : renv -> unit =
  if s < 0 then fun env -> env.ctx.I.cur_site := env.ambient
  else fun env -> env.ctx.I.cur_site := s

and emit_body (bst : bst) (tracked : int option) (b : Core.body) : renv -> unit =
  let rec build tracked acc = function
    | [] -> acc
    | Core.Ins { Core.i_kind = Core.Elim _; _ } :: rest when not bst.est.e_sited ->
      (* it would call [on_elim], which no launch of it installs *)
      build tracked acc rest
    | Core.Ins i :: rest ->
      let acc, tracked =
        if bst.sited && tracked <> Some i.Core.i_site then
          (set_site_closure i.Core.i_site :: acc, Some i.Core.i_site)
        else (acc, tracked)
      in
      build tracked (emit_ikind bst i.Core.i_kind :: acc) rest
    | Core.If (site, c, t, e) :: rest ->
      let acc =
        if bst.sited && tracked <> Some site then set_site_closure site :: acc
        else acc
      in
      let cc = cond_reader bst c in
      let ct = emit_body bst (Some site) t in
      let ce = emit_body bst (Some site) e in
      let f env =
        env.ctx.I.on_op I.Op_branch;
        let b = cc env in
        env.ctx.I.on_branch b;
        if b then ct env else ce env
      in
      build None (f :: acc) rest
    | Core.Loop l :: rest -> build None (emit_loop bst l :: acc) rest
    | Core.Return o :: rest ->
      let f =
        match o with
        | None -> fun _ -> raise (I.Return_exc I.tunit)
        | Some o ->
          let co = rd bst o in
          fun env -> raise (I.Return_exc (co env))
      in
      build tracked (f :: acc) rest
    | Core.Break :: rest ->
      build tracked ((fun _ -> raise I.Break_exc) :: acc) rest
    | Core.Continue :: rest ->
      build tracked ((fun _ -> raise I.Continue_exc) :: acc) rest
  in
  match Array.of_list (List.rev (build tracked [] b)) with
  | [||] -> fun _ -> ()
  | [| f |] -> f
  | cls ->
    fun env ->
      for k = 0 to Array.length cls - 1 do
        (Array.unsafe_get cls k) env
      done

(* Branch condition, V.to_bool: a banked float truncates like to_int. *)
and cond_reader (bst : bst) (o : Core.operand) : renv -> bool =
  match bst.bank, o with
  | Some bk, Core.Reg r when bk.k_res.r_slot.(r) >= 0 ->
    let k = bk.k_res.r_slot.(r) in
    (match bk.k_res.r_cls.(r) with
     | Region.CF _ ->
       fun env -> not (Int64.equal (Int64.of_float (Float.Array.unsafe_get env.flts k)) 0L)
     | _ -> fun env -> Array.unsafe_get env.ints k <> 0)
  | _ ->
    let c = rd bst o in
    fun env -> V.to_bool (c env).I.v

and emit_loop (bst : bst) (l : Core.loop) : renv -> unit =
  let init = emit_body bst None l.Core.l_init in
  let pre = emit_body bst None l.Core.l_pre in
  let cond =
    Option.map
      (fun (cb, co) -> (emit_body bst None cb, cond_reader bst co))
      l.Core.l_cond
  in
  let body = emit_body bst None l.Core.l_body in
  let update = emit_body bst None l.Core.l_update in
  let set_site =
    if bst.sited then set_site_closure l.Core.l_site else fun _ -> ()
  in
  match l.Core.l_kind with
  | `While | `For ->
    fun env ->
      init env;
      pre env;
      (try
         while
           set_site env;
           env.ctx.I.on_op I.Op_branch;
           match cond with
           | None -> true
           | Some (cb, co) ->
             cb env;
             let b = co env in
             env.ctx.I.on_branch b;
             b
         do
           (try body env with I.Continue_exc -> ());
           update env
         done
       with I.Break_exc -> ())
  | `DoWhile ->
    fun env ->
      init env;
      pre env;
      (try
         let continue_ = ref true in
         while !continue_ do
           (try body env with I.Continue_exc -> ());
           set_site env;
           env.ctx.I.on_op I.Op_branch;
           (match cond with
            | None -> continue_ := false
            | Some (cb, co) ->
              cb env;
              let b = co env in
              env.ctx.I.on_branch b;
              continue_ := b)
         done
       with I.Break_exc -> ())

(* ------------------------------------------------------------------ *)
(* Function wrappers (Interp.call_function, with parameter binding
   resolved at emission)                                               *)
(* ------------------------------------------------------------------ *)

and prepare_fn (est : t) (fn : Core.fn) : wrapper =
  let res = residency est.e_layout ~uint3:est.e_uint3 fn in
  let bk =
    { k_res = res; k_ints = Hashtbl.create 8; k_flts = Hashtbl.create 8;
      k_ni = res.r_ints; k_nf = res.r_flts }
  in
  let bst =
    { est; fmem = fn.Core.f_mem; sited = fn.Core.f_sited; bank = Some bk }
  in
  let fname = fn.Core.f_name in
  let norms =
    Array.map (fun (p : Core.pbind) -> Core.normalizer est.e_layout p.Core.p_ty)
      fn.Core.f_params
  in
  let binders =
    Array.mapi
      (fun i (p : Core.pbind) ->
         let w = wr bst p.Core.p_reg in
         fun env (args : I.tval array) ->
           if i < Array.length args then w env args.(i)
           else I.fail "missing argument %d in call to %s" (i + 1) fname)
      fn.Core.f_params
  in
  let body = emit_body bst (Some (-1)) fn.Core.f_body in
  (* bank templates: zeroed vector slots and registers, then the
     constants *)
  let ints = Array.make bk.k_ni 0 in
  Hashtbl.iter (fun n k -> ints.(k) <- n) bk.k_ints;
  let flts = Float.Array.make bk.k_nf 0. in
  Hashtbl.iter (fun b k -> Float.Array.set flts k (Int64.float_of_bits b)) bk.k_flts;
  let nboxes = res.r_boxes in
  let nmem = Array.length fn.Core.f_mem in
  let sited = fn.Core.f_sited in
  let ret = fn.Core.f_ret in
  let frame = needs_frame est fn in
  let run ctx args =
    ctx.I.call_depth <- ctx.I.call_depth + 1;
    if ctx.I.call_depth > 512 then begin
      ctx.I.call_depth <- ctx.I.call_depth - 1;
      I.fail "call depth exceeded in %s" fname
    end;
    let arena = if frame then ctx.I.arena_of ctx.I.stack_space else no_frame in
    let m = Memory.mark arena in
    let ambient = !(ctx.I.cur_site) in
    let env =
      { ctx;
        regs = (if nboxes = 0 then [||] else Array.make nboxes I.tunit);
        ints = (if Array.length ints = 0 then no_ints else Array.copy ints);
        flts = (if Float.Array.length flts = 0 then no_flts else Float.Array.copy flts);
        mem = (if nmem = 0 then [||] else Array.make nmem dummy_binding);
        ambient }
    in
    let leave () =
      if frame then Memory.release arena m;
      ctx.I.call_depth <- ctx.I.call_depth - 1;
      if sited then ctx.I.cur_site := ambient
    in
    match
      Array.iter (fun b -> b env args) binders;
      body env
    with
    | () ->
      leave ();
      I.tunit
    | exception I.Return_exc v ->
      leave ();
      if equal_ty v.I.ty ret then v else I.cast_value ctx ret v
    | exception e ->
      leave ();
      raise e
  in
  let nparams = Array.length norms in
  { convert = (fun i v -> if i < nparams then norms.(i) v else v); run }

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)
(* ------------------------------------------------------------------ *)

let make ?(host = false) ?(special_ty = fun _ -> None) ~(cfg : Pipeline.config)
    (prog : program) : t =
  let _md, lowered = Lower.make ~host ~special_ty ~cfg prog in
  let funcs = Hashtbl.create 31 in
  List.iter
    (function TFunc f -> Hashtbl.replace funcs f.fn_name f | _ -> ())
    prog;
  let fold_arena = Memory.create ~initial:64 "ir.fold" in
  let fold_ctx = I.make ~prog ~arena_of:(fun _ -> fold_arena) () in
  let e_ir = Hashtbl.create 31 in
  let e_stats = Hashtbl.create 31 in
  List.iter
    (fun (n, r) ->
       let r =
         match r with
         | Ok fn ->
           let fn, stats = Passes.run ~fold_ctx ~cfg fn in
           Hashtbl.replace e_stats n stats;
           (* safety net: a pass bug demotes the function to the
              interpreter instead of executing broken code *)
           (match Verify.check fn with
            | [] -> Ok fn
            | e :: _ -> Error (Printf.sprintf "verifier: %s" e))
         | Error _ as e -> e
       in
       Hashtbl.replace e_ir n r)
    lowered;
  { e_layout = Layout.make_env prog;
    e_host = host;
    e_uint3 =
      (fun n ->
         match special_ty n with
         | Some t -> equal_ty t (TVec (UInt, 3))
         | None -> false);
    e_funcs = funcs;
    e_ir;
    e_stats;
    e_wrappers = Hashtbl.create 15;
    e_sited = Minic.Site.present prog }

(* IR-compiled entry for [name], or None when lowering rejected it (the
   caller runs it on the interpreter). *)
let prepare (est : t) (name : string) : wrapper option =
  match Hashtbl.find_opt est.e_ir name with
  | Some (Ok _) -> Some (resolve_wrapper est name)
  | _ -> None

(* The externals a call of [name] can reach through IR code, or None
   when it may suspend at a barrier: it reaches a Barrier, an
   external named like one, or a function the scan cannot see into (one
   the lowering rejected, a prototype, an unknown name), which keeps
   the caller's fibre. *)
let reached_externals (est : t) (name : string) : string list option =
  let seen = Hashtbl.create 8 and ext = Hashtbl.create 8 in
  let exception Opaque in
  let rec fn name =
    if not (Hashtbl.mem seen name) then begin
      Hashtbl.replace seen name ();
      match Hashtbl.find_opt est.e_ir name with
      | Some (Ok f) ->
        Region.iter_instrs
          (fun i ->
             match i.Core.i_kind with
             | Core.Barrier _ -> raise Opaque
             | Core.Let (_, rhs) | Core.Do rhs -> call rhs
             | _ -> ())
          f.Core.f_body
      | _ -> raise Opaque
    end
  and call = function
    | Core.CallE (n, _) ->
      if Xlat_analysis.Checks.is_barrier_name n then raise Opaque;
      Hashtbl.replace ext n ()
    | Core.CallU (n, _) -> fn n
    | Core.CallK _ -> raise Opaque
    | _ -> ()
  in
  match fn name with
  | () -> Some (Hashtbl.fold (fun n () acc -> n :: acc) ext [])
  | exception Opaque -> None

let ir (est : t) name : (Core.fn, string) result option = Hashtbl.find_opt est.e_ir name
let stats (est : t) name : Passes.stats option = Hashtbl.find_opt est.e_stats name

let function_names (est : t) : string list =
  Hashtbl.fold (fun n _ acc -> n :: acc) est.e_ir [] |> List.sort compare
