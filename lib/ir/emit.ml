(* Closure emission from the optimized kernel IR.

   The output format is the same as `Vm.Compile`'s: one OCaml closure
   per instruction, composed into per-body arrays, with a per-call
   wrapper that mirrors `call_cfunc` (depth guard, stack-arena
   mark/release, observer enter/leave, return-type conversion).  Every
   runtime branch below replicates the corresponding `Vm.Compile`
   branch — same value normalization, same `on_access`/`on_op` charges,
   same failure messages — except where the IR's documented promotion
   exception applies: values in virtual registers have no simulated
   memory traffic at all.

   Functions the lowering rejected stay on the closure backend: a
   `CallU` resolves its callee lazily at first call, to an IR wrapper
   when one exists and to `Vm.Compile.prepare` otherwise, so a kernel
   is IR-compiled even when a helper it calls is not. *)

open Minic.Ast
module I = Vm.Interp
module V = Vm.Value
module Memory = Vm.Memory
module Layout = Vm.Layout

(* Per-invocation state: registers and memory-variable bindings are
   per-call (and thus per-work-item), like the closure backend's frame
   slots.  A register lives either boxed in [regs] or unboxed in one of
   the two banks (see "Register residency" below); each bank holds the
   function's banked registers followed by the constants its typed
   closures read.  [ambient] is the attribution site current at
   function entry, the meaning of an instruction's -1 site tag. *)
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

(* Runtime lvalue (mirror Vm.Compile's clv). *)
type dlv =
  | DMem of addr_space * int * ty
  | DVec of addr_space * int * scalar * int array

(* Emitted lvalue: statically-typed memory producer, or generic. *)
type clv =
  | CMem of (renv -> addr_space * int) * ty
  | CDyn of (renv -> dlv)

(* ------------------------------------------------------------------ *)
(* Type-specialised loads and stores (verbatim mirrors of
   Vm.Compile.compiled_load / compiled_store, which mirror Interp)      *)
(* ------------------------------------------------------------------ *)

let compiled_load lt ty : I.ctx -> addr_space -> int -> V.t =
  match Layout.resolve lt ty with
  | TScalar ((Float | Double) as s) ->
    let n = scalar_size s in
    fun ctx space addr ->
      ctx.I.on_access Memory.Load space addr n;
      V.VFloat (Memory.load_float (ctx.I.arena_of space) addr n)
  | TScalar s ->
    let n = max 1 (scalar_size s) in
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

let rec compiled_store_raw lt ty : I.ctx -> addr_space -> int -> V.t -> unit =
  match Layout.resolve lt ty with
  | TScalar ((Float | Double) as s) ->
    let n = scalar_size s in
    fun ctx space addr v ->
      ctx.I.on_access Memory.Store space addr n;
      Memory.store_float (ctx.I.arena_of space) addr n
        (V.round_float s (V.to_float v))
  | TScalar s ->
    let n = max 1 (scalar_size s) in
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
  | TArr (elt, _) -> compiled_store_raw lt (TPtr elt)
  | TQual _ | TConst _ -> assert false

let compiled_store lt ty : I.ctx -> addr_space -> int -> V.t -> unit =
  let raw = compiled_store_raw lt ty in
  fun ctx space addr v ->
    match ctx.I.observer with
    | None -> raw ctx space addr v
    | Some o ->
      o.I.obs_store ctx space addr ty v;
      if o.I.obs_perform space then raw ctx space addr v

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

(* Scalar fast paths for the hot binary operators (mirror
   Vm.Compile.fast_binop). *)
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

(* Register-write normalization: exactly the store+load roundtrip the
   closure backend performs through a variable of the declared type,
   minus the memory traffic.  Promoted variables are scalars or
   pointers only (see Lower.promotable). *)
let normalizer lt (ty : ty) : I.tval -> I.tval =
  match Layout.resolve lt ty with
  | TScalar ((Float | Double) as s) ->
    fun x -> I.tv (V.VFloat (V.round_float s (V.to_float x.I.v))) ty
  | TScalar s when s <> Void ->
    fun x -> I.tv (V.VInt (V.wrap_int s (V.to_int x.I.v))) ty
  | TPtr _ ->
    fun x -> I.tv (V.VInt (V.to_int x.I.v)) ty
  | _ -> fun x -> I.tv x.I.v ty

(* ------------------------------------------------------------------ *)
(* Register residency                                                  *)
(* ------------------------------------------------------------------ *)

(* A register is banked — held unboxed in the per-call [ints] or
   [flts] array instead of as a fresh [tval] per write — when
   (a) its class ([Region.classify]) is a float, or an int scalar of at
       most 32 bits, whose values fit a native int exactly;
   (b) every definition is a parameter binder or a native shape;
   (c) every use is a native shape or an If/loop condition.
   Pointers and 64-bit ints stay boxed: a pointer register can carry any
   int64 (a cast from a long), and a native int has 63 bits.

   A native shape is a [Region.fast_shape] instruction whose int
   constants lie within +-2^61 and whose operands are not wild.  A wild
   register is the result of a non-native Mov, negation, complement or
   identity CastRet — the shapes that do not wrap, so they can carry an
   out-of-range constant onward.  Every other narrow-class value is
   wrapped to 32 bits or is a finite chain of negations away from such a
   value, so the native reads of the typed closures are exact.  One pass
   in textual order suffices, because definitions dominate uses. *)

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

type residency = {
  r_cls : Region.vcls array;
  r_wild : bool array;
  r_slot : int array;  (* bank index (int or float bank by class), -1 boxed *)
  r_ints : int;
  r_flts : int;
  r_live : int;        (* registers the function defines or reads *)
}

let native_shape lt cls wild (k : Core.ikind) =
  Region.fast_shape lt cls k
  && List.for_all
       (fun o ->
          cst_ok o && match o with Core.Reg r -> not wild.(r) | Core.Cst _ -> true)
       (Core.ikind_operands k)

let residency lt (fn : Core.fn) : residency =
  let cls = Region.classify lt fn in
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
      if not (native_shape lt cls wild k) then begin
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
  let ni = ref 0 and nf = ref 0 in
  for r = 0 to n - 1 do
    if not boxed.(r) then
      match cls.(r) with
      | Region.CI _ ->
        slot.(r) <- !ni;
        incr ni
      | Region.CF _ ->
        slot.(r) <- !nf;
        incr nf
      | Region.CTop -> ()
  done;
  { r_cls = cls; r_wild = wild; r_slot = slot; r_ints = !ni; r_flts = !nf;
    r_live = Array.fold_left (fun a l -> if l then a + 1 else a) 0 live }

(* Residency census of a function: int-banked, float-banked and boxed
   registers among those it defines or reads (oclcu translate
   --ir-dump). *)
let census lt (fn : Core.fn) : int * int * int =
  let r = residency lt fn in
  (r.r_ints, r.r_flts, r.r_live - r.r_ints - r.r_flts)

(* ------------------------------------------------------------------ *)
(* Module state                                                        *)
(* ------------------------------------------------------------------ *)

type t = {
  e_layout : Layout.env;
  e_cp : Vm.Compile.program;                            (* fallback backend *)
  e_funcs : (string, func) Hashtbl.t;                   (* AST functions *)
  e_ir : (string, (Core.fn, string) result) Hashtbl.t;  (* optimized IR *)
  e_stats : (string, Passes.stats) Hashtbl.t;
  e_wrappers : (string, I.ctx -> I.tval array -> I.tval) Hashtbl.t;
}

(* Wrapper building mutates [e_wrappers] (and forces Vm.Compile lazies
   for fallback callees); one process-wide lock serialises it, with a
   domain-local re-entrancy flag like Vm.Compile's. *)
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
   distinct constant a typed closure reads, appended after the banked
   registers. *)
and bank = {
  k_res : residency;
  k_ints : (int, int) Hashtbl.t;
  k_flts : (int64, int) Hashtbl.t;
  mutable k_ni : int;
  mutable k_nf : int;
}

let boxed_bst est (fn : Core.fn) =
  { est; fmem = fn.Core.f_mem; sited = fn.Core.f_sited; bank = None }

let slot_of (bst : bst) r =
  match bst.bank with Some k -> k.k_res.r_slot.(r) | None -> -1

(* Generic reader: banked registers are boxed on the way out (rule (c)
   keeps that off the hot path). *)
let rd (bst : bst) (o : Core.operand) : renv -> I.tval =
  match o with
  | Core.Reg r ->
    let k = slot_of bst r in
    if k < 0 then fun env -> env.regs.(r)
    else (
      match (Option.get bst.bank).k_res.r_cls.(r) with
      | Region.CI ty -> fun env -> I.tv (V.VInt (Int64.of_int env.ints.(k))) ty
      | Region.CF ty -> fun env -> I.tv (V.VFloat (Float.Array.get env.flts k)) ty
      | Region.CTop -> assert false)
  | Core.Cst t -> fun _ -> t

(* Generic writer: the class invariant makes unboxing lossless. *)
let wr (bst : bst) r : renv -> I.tval -> unit =
  let k = slot_of bst r in
  if k < 0 then fun env v -> env.regs.(r) <- v
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

(* Operand descriptors: a bank index (>= 0), or a boxed register r as
   -1 - r.  A boxed operand of a known class is read straight out of its
   tval, so reads never allocate; only a boxed destination does. *)
let ddesc (k : bank) r = let s = k.k_res.r_slot.(r) in if s >= 0 then s else -1 - r

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

(* V.wrap_int on a native int, for a narrow scalar: shift the value's
   bits to the top and back (sign extension), then mask (unsigned). *)
let wrap_params s =
  let bits = 8 * scalar_size s in
  if is_unsigned s then (0, (1 lsl bits) - 1) else (63 - bits, -1)

let[@inline] wrap sh mask x = ((x lsl sh) asr sh) land mask
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

let typed_bin (k : bank) r op a b : (renv -> unit) option =
  match Region.bin_case k.k_res.r_cls op a b with
  | None -> None
  | Some (c, rc) ->
    let ty = match rc with Region.CI t | Region.CF t -> t | Region.CTop -> assert false in
    let d = ddesc k r in
    (match c with
     | Region.BFF ->
       let x = fdesc k a and y = fdesc k b in
       (match op with
        | Add ->
          Some (fun env -> float_op env; setf env d ty (round32 (getf env x +. getf env y)))
        | Sub ->
          Some (fun env -> float_op env; setf env d ty (round32 (getf env x -. getf env y)))
        | Mul ->
          Some (fun env -> float_op env; setf env d ty (round32 (getf env x *. getf env y)))
        | Lt ->
          Some (fun env -> float_op env; seti env d ty (if getf env x < getf env y then 1 else 0))
        | Gt ->
          Some (fun env -> float_op env; seti env d ty (if getf env x > getf env y then 1 else 0))
        | Le ->
          Some (fun env -> float_op env; seti env d ty (if getf env x <= getf env y then 1 else 0))
        | Ge ->
          Some (fun env -> float_op env; seti env d ty (if getf env x >= getf env y then 1 else 0))
        | Eq ->
          Some (fun env -> float_op env; seti env d ty (if getf env x = getf env y then 1 else 0))
        | Ne ->
          Some (fun env -> float_op env; seti env d ty (if getf env x <> getf env y then 1 else 0))
        | _ -> None)
     | Region.BII | Region.BUU ->
       let x = idesc k a and y = idesc k b in
       let u = c = Region.BUU in
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
       let x = idesc k a in
       Some (fun env -> int_op env; seti env d ty (-geti env x))
     | Core.UBnot, Region.CI t when narrow lt t ->
       let x = idesc k a in
       Some (fun env -> int_op env; seti env d ty (lnot (geti env x)))
     | Core.ULnot, Region.CI _ ->
       let x = idesc k a in
       Some
         (fun env -> int_op env; seti env d ty (if Int64.equal (geti64 env x) 0L then 1 else 0))
     | Core.UBool, Region.CI _ ->
       let x = idesc k a in
       Some (fun env -> seti env d ty (if Int64.equal (geti64 env x) 0L then 0 else 1))
     | _ -> None)

(* ------------------------------------------------------------------ *)
(* Lvalues                                                             *)
(* ------------------------------------------------------------------ *)

let rec emit_lv (bst : bst) (lv : Core.lv) : clv =
  match lv with
  | Core.LvVar v ->
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

(* Lazily resolved callee wrapper: IR when available, closure backend
   otherwise; prototypes fail at call time like the interpreter. *)
let rec resolve_wrapper (est : t) (name : string) : I.ctx -> I.tval array -> I.tval =
  with_emit_lock (fun () ->
      match Hashtbl.find_opt est.e_wrappers name with
      | Some w -> w
      | None ->
        let w =
          match Hashtbl.find_opt est.e_ir name with
          | Some (Ok fn) -> prepare_fn est fn
          | _ ->
            (match Hashtbl.find_opt est.e_funcs name with
             | Some ({ fn_body = Some _; _ } as f) -> Vm.Compile.prepare est.e_cp f
             | Some { fn_body = None; _ } ->
               fun _ _ -> I.fail "calling prototype %s" name
             | None -> fun _ _ -> I.fail "unknown function %s" name)
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
     | Core.UNeg ->
       fun env ->
         let x = ca env in
         env.ctx.I.on_op
           (if I.is_float_ty env.ctx x.I.ty then I.Op_float else I.Op_int);
         (match x.I.v with
          | V.VFloat f -> I.tv (V.VFloat (-.f)) x.I.ty
          | V.VInt n -> I.tv (V.VInt (Int64.neg n)) x.I.ty
          | V.VVec c ->
            I.tv
              (V.VVec
                 (Array.map
                    (function
                      | V.VFloat f -> V.VFloat (-.f)
                      | V.VInt n -> V.VInt (Int64.neg n)
                      | v -> v)
                    c))
              x.I.ty
          | V.VUnit -> I.fail "negating unit")
     | Core.ULnot ->
       fun env ->
         let x = ca env in
         env.ctx.I.on_op I.Op_int;
         I.tv (V.of_bool (not (V.to_bool x.I.v))) (TScalar Int)
     | Core.UBnot ->
       fun env ->
         let x = ca env in
         env.ctx.I.on_op I.Op_int;
         I.tv (V.VInt (Int64.lognot (V.to_int x.I.v))) x.I.ty
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
    let cargs = List.map (rd bst) ops in
    fun env ->
      let ctx = env.ctx in
      let argv = List.map (fun f -> f env) cargs in
      (match Hashtbl.find_opt ctx.I.externals name with
       | Some ext -> ext ctx argv
       | None ->
         (match I.default_builtin ctx name argv with
          | Some r -> r
          | None ->
            if name = "dim3" then begin
              let addr =
                Memory.alloc (ctx.I.arena_of ctx.I.stack_space) ~align:4 12
              in
              let a = ctx.I.arena_of ctx.I.stack_space in
              let get i =
                match List.nth_opt argv i with
                | Some a -> V.to_int a.I.v
                | None -> 1L
              in
              Memory.store_int a addr 4 (get 0);
              Memory.store_int a (addr + 4) 4 (get 1);
              Memory.store_int a (addr + 8) 4 (get 2);
              I.tv (V.VInt (V.make_ptr ctx.I.stack_space addr)) (TNamed "dim3")
            end
            else I.fail "unknown function %s" name))
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
        argv.(i) <- cargs.(i) env
      done;
      w env.ctx argv

(* ------------------------------------------------------------------ *)
(* Instructions                                                        *)
(* ------------------------------------------------------------------ *)

and emit_ikind (bst : bst) (k : Core.ikind) : renv -> unit =
  match bst.bank with
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
  | Core.Let (r, Core.Bin (op, a, b)) -> typed_bin bk r op a b
  | Core.Let (r, Core.Un (u, a)) -> typed_un lt bk r u a
  | Core.Let (r, Core.Mov a) when bankable lt bk.k_res.r_cls.(r) -> typed_copy bk r a
  | Core.Let (r, Core.CastV (t, a)) -> typed_cast lt bk r t a
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
       Some
         (fun env ->
            let addr = idx_addr env xa xi esz in
            let sp = space_of addr and off = offset_of addr in
            let ctx = env.ctx in
            ctx.I.on_access Memory.Load sp off 8;
            let ar = ctx.I.arena_of sp in
            check ar off 8;
            env.regs.(r) <- I.tv (V.VInt (Bytes.get_int64_le ar.Memory.data off)) elt)
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
    (* an observer (never installed on this engine) gets the generic store *)
    let cs = compiled_store lt elt and co = rd bst o in
    (match Layout.resolve lt elt with
     | TScalar ((Float | Double) as s) ->
       let n = scalar_size s and x = fdesc bk o and single = s = Float in
       Some
         (fun env ->
            let addr = idx_addr env xa xi esz in
            let sp = space_of addr and off = offset_of addr in
            let ctx = env.ctx in
            match ctx.I.observer with
            | Some _ -> cs ctx sp off (co env).I.v
            | None ->
              ctx.I.on_access Memory.Store sp off n;
              let ar = ctx.I.arena_of sp in
              check ar off n;
              let f = round single (getf env x) in
              if n = 4 then Bytes.set_int32_le ar.Memory.data off (Int32.bits_of_float f)
              else Bytes.set_int64_le ar.Memory.data off (Int64.bits_of_float f))
     | TScalar s ->
       let n = max 1 (scalar_size s) and x = idesc bk o in
       Some
         (fun env ->
            let addr = idx_addr env xa xi esz in
            let sp = space_of addr and off = offset_of addr in
            let ctx = env.ctx in
            match ctx.I.observer with
            | Some _ -> cs ctx sp off (co env).I.v
            | None ->
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
    if slot_of bst r < 0 then fun env -> env.regs.(r) <- f env
    else
      let w = wr bst r in
      fun env -> w env (f env)
  | Core.SetReg (r, ty, o) ->
    let co = rd bst o in
    let norm = normalizer lt ty in
    if slot_of bst r < 0 then fun env -> env.regs.(r) <- norm (co env)
    else
      let w = wr bst r in
      fun env -> w env (norm (co env))
  | Core.SetRaw (r, o) ->
    let co = rd bst o in
    fun env -> env.regs.(r) <- co env
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
        if I.obs_branch env.ctx (cc env) then ct env else ce env
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
             I.obs_branch env.ctx (co env)
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
              continue_ := I.obs_branch env.ctx (co env))
         done
       with I.Break_exc -> ())

(* ------------------------------------------------------------------ *)
(* Function wrappers (mirror Vm.Compile.call_cfunc + compile_param)    *)
(* ------------------------------------------------------------------ *)

and prepare_fn (est : t) (fn : Core.fn) : I.ctx -> I.tval array -> I.tval =
  let res = residency est.e_layout fn in
  let bk =
    { k_res = res; k_ints = Hashtbl.create 8; k_flts = Hashtbl.create 8;
      k_ni = res.r_ints; k_nf = res.r_flts }
  in
  let bst =
    { est; fmem = fn.Core.f_mem; sited = fn.Core.f_sited; bank = Some bk }
  in
  let fname = fn.Core.f_name in
  let binders =
    Array.mapi
      (fun i (p : Core.pbind) ->
         let norm = normalizer est.e_layout p.Core.p_ty in
         let w = wr bst p.Core.p_reg in
         fun env (args : I.tval array) ->
           let arg =
             if i < Array.length args then args.(i)
             else I.fail "missing argument %d in call to %s" (i + 1) fname
           in
           w env (norm arg))
      fn.Core.f_params
  in
  let body = emit_body bst (Some (-1)) fn.Core.f_body in
  (* bank templates: zeroed registers, then the constants *)
  let ints = Array.make bk.k_ni 0 in
  Hashtbl.iter (fun n k -> ints.(k) <- n) bk.k_ints;
  let flts = Float.Array.make bk.k_nf 0. in
  Hashtbl.iter (fun b k -> Float.Array.set flts k (Int64.float_of_bits b)) bk.k_flts;
  let nregs = fn.Core.f_nregs in
  let nmem = Array.length fn.Core.f_mem in
  let sited = fn.Core.f_sited in
  let ret = fn.Core.f_ret in
  fun ctx args ->
    ctx.I.call_depth <- ctx.I.call_depth + 1;
    if ctx.I.call_depth > 512 then begin
      ctx.I.call_depth <- ctx.I.call_depth - 1;
      I.fail "call depth exceeded in %s" fname
    end;
    let arena = ctx.I.arena_of ctx.I.stack_space in
    let m = Memory.mark arena in
    (match ctx.I.observer with Some o -> o.I.obs_enter fname | None -> ());
    let obs_leave () =
      match ctx.I.observer with Some o -> o.I.obs_leave fname | None -> ()
    in
    let ambient = !(ctx.I.cur_site) in
    let env =
      { ctx;
        regs = Array.make nregs I.tunit;
        ints = (if Array.length ints = 0 then no_ints else Array.copy ints);
        flts = (if Float.Array.length flts = 0 then no_flts else Float.Array.copy flts);
        mem = (if nmem = 0 then [||] else Array.make nmem dummy_binding);
        ambient }
    in
    let restore () = if sited then ctx.I.cur_site := ambient in
    match
      Array.iter (fun b -> b env args) binders;
      body env
    with
    | () ->
      Memory.release arena m;
      ctx.I.call_depth <- ctx.I.call_depth - 1;
      restore ();
      obs_leave ();
      I.tunit
    | exception I.Return_exc v ->
      Memory.release arena m;
      ctx.I.call_depth <- ctx.I.call_depth - 1;
      restore ();
      obs_leave ();
      if equal_ty v.I.ty ret then v else I.cast_value ctx ret v
    | exception e ->
      Memory.release arena m;
      ctx.I.call_depth <- ctx.I.call_depth - 1;
      restore ();
      obs_leave ();
      raise e

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)
(* ------------------------------------------------------------------ *)

let make ?special_ty ~(cfg : Pipeline.config) (prog : program) : t =
  let cp = Vm.Compile.make ?special_ty prog in
  let _md, lowered = Lower.make ?special_ty ~cfg prog in
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
           (* safety net: a pass bug demotes the function to the closure
              backend instead of executing broken code *)
           (match Verify.check fn with
            | [] -> Ok fn
            | e :: _ -> Error (Printf.sprintf "verifier: %s" e))
         | Error _ as e -> e
       in
       Hashtbl.replace e_ir n r)
    lowered;
  { e_layout = Layout.make_env prog;
    e_cp = cp;
    e_funcs = funcs;
    e_ir;
    e_stats;
    e_wrappers = Hashtbl.create 15 }

(* IR-compiled entry for [name], or None when lowering rejected it (the
   caller falls back to its own Vm.Compile path). *)
let prepare (est : t) (name : string) : (I.ctx -> I.tval array -> I.tval) option =
  match Hashtbl.find_opt est.e_ir name with
  | Some (Ok _) -> Some (resolve_wrapper est name)
  | _ -> None

let fallback (est : t) : Vm.Compile.program = est.e_cp
let ir (est : t) name : (Core.fn, string) result option = Hashtbl.find_opt est.e_ir name
let stats (est : t) name : Passes.stats option = Hashtbl.find_opt est.e_stats name

let function_names (est : t) : string list =
  Hashtbl.fold (fun n _ acc -> n :: acc) est.e_ir [] |> List.sort compare
