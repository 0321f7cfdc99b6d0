(* Tree-walking interpreter for Mini-C.

   The same engine executes device kernels (each work-item is one
   interpreter run; barriers are OCaml effects handled by the scheduler in
   Gpusim) and host programs (original or translated CUDA host code, whose
   cuda*/cl* calls are bound to simulated runtime APIs through the
   external-function table).

   All variables live in memory arenas, so address-of, pointer
   round-trips through [void*], and struct copies behave like C. *)

open Minic.Ast

exception Error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Error s)) fmt

(* Barrier effect performed by kernel code; the GPU scheduler handles it. *)
type barrier_scope = Barrier_local | Barrier_global

type _ Effect.t += Barrier : barrier_scope -> unit Effect.t

(* Operation classes for the timing model. *)
type op_class =
  | Op_int
  | Op_float
  | Op_double
  | Op_special      (* div, sqrt, transcendental *)
  | Op_branch

type tval = { v : Value.t; ty : ty }

let tv v ty = { v; ty }
let tint n = { v = VInt (Int64.of_int n); ty = TScalar Int }
let tunit = { v = VUnit; ty = TScalar Void }

type binding = { b_space : addr_space; b_addr : int; b_ty : ty }

type ctx = {
  funcs : (string, func) Hashtbl.t;
  layout : Layout.env;
  globals : (string, binding) Hashtbl.t;
  mutable scopes : (string, binding) Hashtbl.t list;
  arena_of : addr_space -> Memory.arena;
  externals : (string, ctx -> tval list -> tval) Hashtbl.t;
  special_ident : string -> tval option;
  on_access : Memory.access_kind -> addr_space -> int -> int -> unit;
  on_op : op_class -> unit;
  (* attribution hooks: [cur_site] names the source site (SSite id) the
     item is currently executing — shared with the launcher so its
     access/op hooks can charge events per site; [on_branch] fires with
     every branch decision (same choke point as the observer's
     obs_branch), feeding warp-divergence detection *)
  cur_site : int ref;
  on_branch : bool -> unit;
  stack_space : addr_space;    (* AS_none for host code, AS_private in kernels *)
  group_locals : (string, int) Hashtbl.t option;
      (* per-work-group table making __local declarations idempotent *)
  strings : (string, int) Hashtbl.t;
  mutable call_depth : int;
  (* invoked when host code executes a CUDA <<<...>>> kernel call, with
     its operands already evaluated (see [launch_call]); the native CUDA
     runtime installs this, the translated host never needs it because
     the translator removed all launches *)
  mutable launch_handler : (ctx -> launch_call -> tval) option;
  (* attribution hook for the IR middle-end: fires with the number of
     statically-counted operations a pass eliminated at this point, so
     per-site reports can show `ops + ops_eliminated = unoptimized ops`
     exactly; a no-op outside attribution mode *)
  on_elim : int -> unit;
  (* layered-observation hooks; absent in normal execution *)
  observer : observer option;
  (* resolved external callees by interned name id ([intern_external]);
     a copy [{ ctx with ... }] shares it, so per-item copies of a launch
     context resolve each name once between them *)
  ext_memo : ext_memo;
}

(* Observation hooks for the translation validator's layered runs.  When
   installed, every branch decision, typed store and user-function call
   boundary is reported, and [obs_perform] can veto the memory write of a
   store: evaluation proceeds unchanged, but effects in address spaces
   above the validator's active semantic layer never land.  [obs_store]
   fires before the write, with the unwrapped value. *)
and observer = {
  obs_branch : bool -> unit;
  obs_store : ctx -> addr_space -> int -> ty -> Value.t -> unit;
  obs_perform : addr_space -> bool;
  obs_enter : string -> unit;   (* entering a defined function, by name *)
  obs_leave : string -> unit;
}

and ext_memo = { mutable resolved : (ctx -> tval list -> tval) array }

(* A <<<...>>> kernel call with its operands evaluated.  Both host
   engines evaluate them in one order: grid, block, shared bytes (when
   given), then the kernel arguments left to right; the stream operand
   is never evaluated. *)
and launch_call = {
  lc_kernel : string;
  lc_tmpl : ty list;           (* template arguments on the kernel *)
  lc_grid : tval;
  lc_block : tval;
  lc_shmem : tval option;
  lc_args : tval list;
}

exception Return_exc of tval
exception Break_exc
exception Continue_exc

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)
(* ------------------------------------------------------------------ *)

let no_access _ _ _ _ = ()
let no_op _ = ()
let no_special _ = None
let no_branch _ = ()
let no_elim _ = ()

let make ~prog ~arena_of ?(externals = []) ?(special_ident = no_special)
    ?(on_access = no_access) ?(on_op = no_op)
    ?(cur_site = ref 0) ?(on_branch = no_branch)
    ?(stack_space = AS_none) ?group_locals ?globals ?(on_elim = no_elim)
    ?observer () =
  let funcs = Hashtbl.create 31 in
  List.iter
    (function
      | TFunc f -> Hashtbl.replace funcs f.fn_name f
      | _ -> ())
    prog;
  let ext = Hashtbl.create 31 in
  List.iter (fun (n, f) -> Hashtbl.replace ext n f) externals;
  { funcs;
    layout = Layout.make_env prog;
    globals = (match globals with Some g -> g | None -> Hashtbl.create 31);
    scopes = [];
    arena_of;
    externals = ext;
    special_ident;
    on_access;
    on_op;
    cur_site;
    on_branch;
    stack_space;
    group_locals;
    strings = Hashtbl.create 7;
    call_depth = 0;
    launch_handler = None;
    on_elim;
    observer;
    ext_memo = { resolved = [||] } }

(* ------------------------------------------------------------------ *)
(* Typed loads and stores                                              *)
(* ------------------------------------------------------------------ *)

let load ctx space addr ty : Value.t =
  let a = ctx.arena_of space in
  match Layout.resolve ctx.layout ty with
  | TScalar (Float | Double as s) ->
    let n = scalar_size s in
    ctx.on_access Load space addr n;
    VFloat (Memory.load_float a addr n)
  | TScalar s ->
    let n = max 1 (scalar_size s) in
    ctx.on_access Load space addr n;
    VInt (Value.wrap_int s (Memory.load_int a addr n))
  | TVec (s, n) ->
    let es = scalar_size s in
    ctx.on_access Load space addr (es * n);
    VVec
      (Array.init n (fun i ->
           if is_float_scalar s then
             Value.VFloat (Memory.load_float a (addr + (i * es)) es)
           else Value.VInt (Value.wrap_int s (Memory.load_int a (addr + (i * es)) es))))
  | TPtr _ | TRef _ | TFun _ | TTexture _ | TImage _ | TSampler ->
    ctx.on_access Load space addr 8;
    VInt (Memory.load_int a addr 8)
  | TArr _ ->
    (* arrays decay: their "value" is their address *)
    VInt (Value.make_ptr space addr)
  | TNamed name when Layout.is_struct ctx.layout (TNamed name) ->
    (* struct rvalues are represented by their address *)
    VInt (Value.make_ptr space addr)
  | TNamed _ ->
    ctx.on_access Load space addr 8;
    VInt (Memory.load_int a addr 8)
  | TQual _ | TConst _ -> assert false

let rec store_raw ctx space addr ty (v : Value.t) =
  let a = ctx.arena_of space in
  match Layout.resolve ctx.layout ty with
  | TScalar (Float | Double as s) ->
    let n = scalar_size s in
    ctx.on_access Store space addr n;
    Memory.store_float a addr n (Value.round_float s (Value.to_float v))
  | TScalar s ->
    let n = max 1 (scalar_size s) in
    ctx.on_access Store space addr n;
    Memory.store_int a addr n (Value.to_int v)
  | TVec (s, n) ->
    let es = scalar_size s in
    ctx.on_access Store space addr (es * n);
    let comps =
      match v with
      | VVec c -> c
      | v -> Array.make n v     (* scalar splat *)
    in
    for i = 0 to n - 1 do
      let c = if i < Array.length comps then comps.(i) else Value.VInt 0L in
      if is_float_scalar s then
        Memory.store_float a (addr + (i * es)) es
          (Value.round_float s (Value.to_float c))
      else Memory.store_int a (addr + (i * es)) es (Value.to_int c)
    done
  | TPtr _ | TRef _ | TFun _ | TTexture _ | TImage _ | TSampler ->
    ctx.on_access Store space addr 8;
    Memory.store_int a addr 8 (Value.to_int v)
  | TNamed name when Layout.is_struct ctx.layout (TNamed name) ->
    (* struct assignment: v is the source address *)
    let size = Layout.sizeof ctx.layout (TNamed name) in
    let src = Value.to_int v in
    let src_space = Value.ptr_space src in
    ctx.on_access Load src_space (Value.ptr_offset src) size;
    ctx.on_access Store space addr size;
    Memory.blit
      ~src:(ctx.arena_of src_space)
      ~src_addr:(Value.ptr_offset src)
      ~dst:a ~dst_addr:addr ~len:size
  | TNamed _ ->
    ctx.on_access Store space addr 8;
    Memory.store_int a addr 8 (Value.to_int v)
  | TArr (elt, _) ->
    (* array initialisation from a same-layout array address *)
    store_raw ctx space addr (TPtr elt) v
  | TQual _ | TConst _ -> assert false

let store ctx space addr ty (v : Value.t) =
  match ctx.observer with
  | None -> store_raw ctx space addr ty v
  | Some o ->
    o.obs_store ctx space addr ty v;
    if o.obs_perform space then store_raw ctx space addr ty v

(* Report a branch decision to the attribution hook and the observer,
   if any, and return it.  Both backends route every branch decision
   (if/while/do-while/for conditions, &&, ||, ?:) through here. *)
let obs_branch ctx b =
  ctx.on_branch b;
  (match ctx.observer with Some o -> o.obs_branch b | None -> ());
  b

(* ------------------------------------------------------------------ *)
(* Scopes and variable allocation                                      *)
(* ------------------------------------------------------------------ *)

let push_scope ctx = ctx.scopes <- Hashtbl.create 8 :: ctx.scopes
let pop_scope ctx =
  match ctx.scopes with
  | _ :: rest -> ctx.scopes <- rest
  | [] -> fail "scope underflow"

let bind ctx name b =
  match ctx.scopes with
  | s :: _ -> Hashtbl.replace s name b
  | [] -> Hashtbl.replace ctx.globals name b

let lookup ctx name =
  let rec go = function
    | [] -> Hashtbl.find_opt ctx.globals name
    | s :: rest ->
      (match Hashtbl.find_opt s name with
       | Some b -> Some b
       | None -> go rest)
  in
  go ctx.scopes

(* Allocate a variable.  __local declarations inside kernels are
   per-work-group: the first work-item allocates, the rest reuse. *)
let alloc_var ctx name ty storage =
  let space =
    let sp = type_space ty in
    if sp <> AS_none then sp
    else if storage.s_space <> AS_none then storage.s_space
    else ctx.stack_space
  in
  let size = Layout.sizeof ctx.layout ty in
  let align = Layout.alignof ctx.layout ty in
  let addr =
    match space, ctx.group_locals with
    | AS_local, Some tbl ->
      (match Hashtbl.find_opt tbl name with
       | Some addr -> addr
       | None ->
         let addr = Memory.alloc (ctx.arena_of AS_local) ~align size in
         Hashtbl.replace tbl name addr;
         addr)
    | _ -> Memory.alloc (ctx.arena_of space) ~align size
  in
  let b = { b_space = space; b_addr = addr; b_ty = ty } in
  bind ctx name b;
  b

(* A string literal's address: allocated on first use per context, as
   heap storage, so the frame that first evaluated it does not free it. *)
let string_ptr ctx s =
  match Hashtbl.find_opt ctx.strings s with
  | Some addr -> Value.make_ptr AS_none addr
  | None ->
    let a = ctx.arena_of AS_none in
    let addr = Memory.alloc_heap a ~align:1 (String.length s + 1) in
    Memory.store_bytes a addr (Bytes.of_string (s ^ "\000"));
    Hashtbl.replace ctx.strings s addr;
    Value.make_ptr AS_none addr

let read_string ctx v =
  let space = Value.ptr_space (Value.to_int v) in
  let addr = Value.ptr_offset (Value.to_int v) in
  let a = ctx.arena_of space in
  let buf = Buffer.create 16 in
  let rec go i =
    let c = Int64.to_int (Memory.load_int a (addr + i) 1) in
    if c <> 0 then begin
      Buffer.add_char buf (Char.chr c);
      go (i + 1)
    end
  in
  go 0;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Vector components                                                   *)
(* ------------------------------------------------------------------ *)

let comp_of_char width c =
  match c with
  | 'x' -> Some 0
  | 'y' -> Some 1
  | 'z' when width >= 3 -> Some 2
  | 'w' when width >= 4 -> Some 3
  | _ -> None

(* Decode an OpenCL/CUDA vector component selector into index list. *)
let vec_indices width m =
  let n = String.length m in
  if n = 0 then None
  else if m = "lo" then Some (List.init (width / 2) (fun i -> i))
  else if m = "hi" then Some (List.init (width / 2) (fun i -> (width / 2) + i))
  else if m = "even" then Some (List.init (width / 2) (fun i -> 2 * i))
  else if m = "odd" then Some (List.init (width / 2) (fun i -> (2 * i) + 1))
  else if m.[0] = 's' || m.[0] = 'S' then begin
    (* sN selectors, hex digits *)
    let digits = String.sub m 1 (n - 1) in
    if digits = "" then None
    else begin
      let idx = ref [] in
      let ok = ref true in
      String.iter
        (fun c ->
           let d =
             match c with
             | '0' .. '9' -> Char.code c - Char.code '0'
             | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
             | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
             | _ -> -1
           in
           if d < 0 || d >= width then ok := false else idx := d :: !idx)
        digits;
      if !ok then Some (List.rev !idx) else None
    end
  end
  else begin
    (* xyzw swizzles of any length *)
    let idx = ref [] in
    let ok = ref true in
    String.iter
      (fun c ->
         match comp_of_char width c with
         | Some i -> idx := i :: !idx
         | None -> ok := false)
      m;
    if !ok then Some (List.rev !idx) else None
  end

(* ------------------------------------------------------------------ *)
(* Arithmetic                                                          *)
(* ------------------------------------------------------------------ *)

let is_float_ty ctx ty =
  match Layout.resolve ctx.layout ty with
  | TScalar s | TVec (s, _) -> is_float_scalar s
  | _ -> false

let scalar_of ctx ty =
  match Layout.resolve ctx.layout ty with
  | TScalar s -> s
  | TVec (s, _) -> s
  | TPtr _ | TArr _ | TRef _ -> SizeT
  | _ -> Int

let rank = function
  | Double -> 10
  | Float -> 9
  | ULongLong | ULong | SizeT -> 8
  | LongLong | Long -> 7
  | UInt -> 6
  | Int -> 5
  | _ -> 4

let promote a b = if rank a >= rank b then a else b

let int_binop op (a : int64) (b : int64) ~unsigned =
  match op with
  | Add -> Int64.add a b
  | Sub -> Int64.sub a b
  | Mul -> Int64.mul a b
  | Div ->
    if b = 0L then fail "integer division by zero"
    else if unsigned then Int64.unsigned_div a b
    else Int64.div a b
  | Mod ->
    if b = 0L then fail "integer modulo by zero"
    else if unsigned then Int64.unsigned_rem a b
    else Int64.rem a b
  | Shl -> Int64.shift_left a (Int64.to_int b land 63)
  | Shr ->
    if unsigned then Int64.shift_right_logical a (Int64.to_int b land 63)
    else Int64.shift_right a (Int64.to_int b land 63)
  | Band -> Int64.logand a b
  | Bxor -> Int64.logxor a b
  | Bor -> Int64.logor a b
  | Lt -> if (if unsigned then Int64.unsigned_compare a b else compare a b) < 0 then 1L else 0L
  | Gt -> if (if unsigned then Int64.unsigned_compare a b else compare a b) > 0 then 1L else 0L
  | Le -> if (if unsigned then Int64.unsigned_compare a b else compare a b) <= 0 then 1L else 0L
  | Ge -> if (if unsigned then Int64.unsigned_compare a b else compare a b) >= 0 then 1L else 0L
  | Eq -> if a = b then 1L else 0L
  | Ne -> if a <> b then 1L else 0L
  | Land -> if a <> 0L && b <> 0L then 1L else 0L
  | Lor -> if a <> 0L || b <> 0L then 1L else 0L

let float_binop op (a : float) (b : float) =
  match op with
  | Add -> Value.VFloat (a +. b)
  | Sub -> Value.VFloat (a -. b)
  | Mul -> Value.VFloat (a *. b)
  | Div -> Value.VFloat (a /. b)
  | Mod -> Value.VFloat (Float.rem a b)
  | Lt -> Value.of_bool (a < b)
  | Gt -> Value.of_bool (a > b)
  | Le -> Value.of_bool (a <= b)
  | Ge -> Value.of_bool (a >= b)
  | Eq -> Value.of_bool (a = b)
  | Ne -> Value.of_bool (a <> b)
  | Land -> Value.of_bool (a <> 0. && b <> 0.)
  | Lor -> Value.of_bool (a <> 0. || b <> 0.)
  | Shl | Shr | Band | Bxor | Bor -> fail "bitwise operator on float"

let op_cost_class sc op =
  match op with
  | Div | Mod -> Op_special
  | _ -> if sc = Double then Op_double else if sc = Float then Op_float else Op_int

(* Apply a binary operator to typed values, with pointer arithmetic. *)
let rec binop ctx op (a : tval) (b : tval) : tval =
  let elem_size t = Layout.sizeof ctx.layout t in
  let ra = Layout.resolve ctx.layout a.ty in
  let rb = Layout.resolve ctx.layout b.ty in
  match ra, rb, op with
  | (TPtr e | TArr (e, _)), _, (Add | Sub) when not (is_pointer rb) ->
    ctx.on_op Op_int;
    let off = Int64.mul (Value.to_int b.v) (Int64.of_int (elem_size e)) in
    let base = Value.to_int a.v in
    tv (VInt (if op = Add then Int64.add base off else Int64.sub base off)) ra
  | _, (TPtr e | TArr (e, _)), Add when not (is_pointer ra) ->
    ctx.on_op Op_int;
    let off = Int64.mul (Value.to_int a.v) (Int64.of_int (elem_size e)) in
    tv (VInt (Int64.add (Value.to_int b.v) off)) rb
  | (TPtr e | TArr (e, _)), (TPtr _ | TArr _), Sub ->
    ctx.on_op Op_int;
    let d = Int64.sub (Value.to_int a.v) (Value.to_int b.v) in
    tv (VInt (Int64.div d (Int64.of_int (max 1 (elem_size e))))) (TScalar Long)
  | TVec (s, n), _, _ | _, TVec (s, n), _ ->
    (* componentwise, broadcasting scalars *)
    let comp v i =
      match v with
      | Value.VVec c -> c.(i)
      | v -> v
    in
    let out =
      Array.init n (fun i ->
          let x = tv (comp a.v i) (TScalar s) in
          let y = tv (comp b.v i) (TScalar s) in
          (binop ctx op x y).v)
    in
    let result_ty =
      match op with
      | Lt | Gt | Le | Ge | Eq | Ne | Land | Lor ->
        TVec ((if scalar_size s = 8 then Long else Int), n)
      | _ -> TVec (s, n)
    in
    tv (VVec out) result_ty
  | _ ->
    let sa = scalar_of ctx a.ty and sb = scalar_of ctx b.ty in
    let sc = promote sa sb in
    ctx.on_op (op_cost_class sc op);
    if is_float_scalar sc then begin
      let r = float_binop op (Value.to_float a.v) (Value.to_float b.v) in
      match op with
      | Lt | Gt | Le | Ge | Eq | Ne | Land | Lor -> tv r (TScalar Int)
      | _ ->
        let r = match r with Value.VFloat f -> Value.VFloat (Value.round_float sc f) | r -> r in
        tv r (TScalar sc)
    end
    else begin
      let r =
        int_binop op (Value.to_int a.v) (Value.to_int b.v)
          ~unsigned:(is_unsigned sc)
      in
      match op with
      | Lt | Gt | Le | Ge | Eq | Ne | Land | Lor -> tv (VInt r) (TScalar Int)
      | _ -> tv (VInt (Value.wrap_int sc r)) (TScalar sc)
    end

(* An int or unsigned int result of a unary operator wraps to 32 bits,
   as in C; a narrower operand is promoted to int by C, whose result
   needs no wrap. *)
let wrap_unary ctx ty n =
  match Layout.resolve ctx.layout ty with
  | TScalar ((Int | UInt) as s) -> Value.wrap_int s n
  | _ -> n

(* Negation and bitwise complement, charged like binop; a vector
   negates componentwise. *)
let unop ctx op (x : tval) : tval =
  match op with
  | Neg ->
    ctx.on_op (if is_float_ty ctx x.ty then Op_float else Op_int);
    (match x.v with
     | VFloat f -> tv (VFloat (-.f)) x.ty
     | VInt n -> tv (VInt (wrap_unary ctx x.ty (Int64.neg n))) x.ty
     | VVec c ->
       tv
         (VVec
            (Array.map
               (function
                 | Value.VFloat f -> Value.VFloat (-.f)
                 | Value.VInt n -> Value.VInt (Int64.neg n)
                 | v -> v)
               c))
         x.ty
     | VUnit -> fail "negating unit")
  | Bnot ->
    ctx.on_op Op_int;
    tv (VInt (wrap_unary ctx x.ty (Int64.lognot (Value.to_int x.v)))) x.ty
  | Lnot | Deref | Addrof | Preinc | Predec | Postinc | Postdec ->
    invalid_arg "Interp.unop"

(* A vector component converted to its element type: rounded to a
   float type's precision, or wrapped to an integer type's width. *)
let convert_elt s c =
  if is_float_scalar s then Value.VFloat (Value.round_float s (Value.to_float c))
  else Value.VInt (Value.wrap_int s (Value.to_int c))

let cast_value ctx ty (x : tval) : tval =
  let rt = Layout.resolve ctx.layout ty in
  match rt with
  | TScalar (Float | Double as s) ->
    tv (VFloat (Value.round_float s (Value.to_float x.v))) rt
  | TScalar Void -> tunit
  | TScalar s ->
    let n =
      match x.v with
      | VFloat f ->
        (* C float->int conversion truncates toward zero *)
        Int64.of_float (Float.of_int (int_of_float f) |> fun _ -> Float.trunc f)
      | v -> Value.to_int v
    in
    tv (VInt (Value.wrap_int s n)) rt
  | TVec (s, n) ->
    let comps =
      match x.v with
      | VVec c -> Array.init n (fun i -> if i < Array.length c then c.(i) else Value.VInt 0L)
      | v -> Array.make n v
    in
    tv (VVec (Array.map (convert_elt s) comps)) rt
  | TPtr _ | TRef _ | TFun _ | TNamed _ | TTexture _ | TImage _ | TSampler ->
    tv (VInt (Value.to_int x.v)) rt
  | TArr _ -> tv x.v rt
  | TQual _ | TConst _ -> assert false

(* ------------------------------------------------------------------ *)
(* Default math / vector built-ins common to both dialects             *)
(* ------------------------------------------------------------------ *)

let float1 f ctx args =
  match args with
  | [ a ] -> ctx.on_op Op_special; tv (Value.VFloat (f (Value.to_float a.v))) (TScalar Float)
  | _ -> fail "arity"

let float2 f ctx args =
  match args with
  | [ a; b ] ->
    ctx.on_op Op_special;
    tv (Value.VFloat (f (Value.to_float a.v) (Value.to_float b.v))) (TScalar Float)
  | _ -> fail "arity"

(* The default built-in named [name], if any: the callee an external
   call reaches when the context's table does not bind the name. *)
let default_builtin name : (ctx -> tval list -> tval) option =
  let f1 f = Some (float1 f) in
  let f2 f = Some (float2 f) in
  match name with
  | "sqrt" | "sqrtf" | "native_sqrt" -> f1 Float.sqrt
  | "rsqrt" | "rsqrtf" | "native_rsqrt" -> f1 (fun x -> 1.0 /. Float.sqrt x)
  | "exp" | "expf" | "native_exp" -> f1 Float.exp
  | "exp2" | "exp2f" -> f1 (fun x -> Float.pow 2.0 x)
  | "log" | "logf" | "native_log" -> f1 Float.log
  | "log2" | "log2f" -> f1 (fun x -> Float.log x /. Float.log 2.0)
  | "log10" | "log10f" -> f1 Float.log10
  | "sin" | "sinf" | "native_sin" -> f1 Float.sin
  | "cos" | "cosf" | "native_cos" -> f1 Float.cos
  | "tan" | "tanf" -> f1 Float.tan
  | "atan" | "atanf" -> f1 Float.atan
  | "fabs" | "fabsf" -> f1 Float.abs
  | "floor" | "floorf" -> f1 Float.floor
  | "ceil" | "ceilf" -> f1 Float.ceil
  | "pow" | "powf" | "native_powr" -> f2 Float.pow
  | "fmax" | "fmaxf" -> f2 Float.max
  | "fmin" | "fminf" -> f2 Float.min
  | "atan2" | "atan2f" -> f2 Float.atan2
  | "fmod" | "fmodf" -> f2 Float.rem
  | "hypot" | "hypotf" -> f2 Float.hypot
  | "mad" | "fma" | "fmaf" ->
    Some
      (fun ctx args ->
         match args with
         | [ a; b; c ] ->
           ctx.on_op Op_float;
           tv
             (Value.VFloat
                (Float.fma (Value.to_float a.v) (Value.to_float b.v)
                   (Value.to_float c.v)))
             (TScalar Float)
         | _ -> fail "arity")
  | "min" ->
    Some
      (fun ctx args ->
         match args with
         | [ a; b ] ->
           ctx.on_op Op_int;
           if Value.to_bool (binop ctx Lt a b).v then a else b
         | _ -> fail "arity")
  | "max" ->
    Some
      (fun ctx args ->
         match args with
         | [ a; b ] ->
           ctx.on_op Op_int;
           if Value.to_bool (binop ctx Gt a b).v then a else b
         | _ -> fail "arity")
  | "abs" ->
    Some
      (fun ctx args ->
         match args with
         | [ a ] -> ctx.on_op Op_int; tv (VInt (Int64.abs (Value.to_int a.v))) a.ty
         | _ -> fail "arity")
  | "clamp" ->
    Some
      (fun ctx args ->
         match args with
         | [ x; lo; hi ] ->
           ctx.on_op Op_int;
           let a = binop ctx Lt x lo in
           let b = binop ctx Gt x hi in
           if Value.to_bool a.v then lo else if Value.to_bool b.v then hi else x
         | _ -> fail "arity")
  | _ ->
    (* make_float4(...) and friends *)
    if String.length name > 5 && String.sub name 0 5 = "make_" then begin
      let tyname = String.sub name 5 (String.length name - 5) in
      match Minic.Parser.vector_of_name tyname with
      | Some (s, n) ->
        Some
          (fun _ args ->
             let comps = Array.make n (convert_elt s (Value.VInt 0L)) in
             List.iteri
               (fun i a -> if i < n then comps.(i) <- convert_elt s a.v)
               args;
             tv (VVec comps) (TVec (s, n)))
      | None -> None
    end
    else None

(* dim3 constructor: build a temporary struct; missing components
   default to 1, per the dim3 constructor *)
let dim3 ctx argv =
  let a = ctx.arena_of ctx.stack_space in
  let addr = Memory.alloc a ~align:4 12 in
  let get i =
    match List.nth_opt argv i with
    | Some a -> Value.to_int a.v
    | None -> 1L
  in
  Memory.store_int a addr 4 (get 0);
  Memory.store_int a (addr + 4) 4 (get 1);
  Memory.store_int a (addr + 8) 4 (get 2);
  tv (VInt (Value.make_ptr ctx.stack_space addr)) (TNamed "dim3")

(* The callee of an external call to [name] under [ctx]: the context's
   table, else a default built-in, else the dim3 constructor.  An
   unknown name fails when called, after its arguments are evaluated. *)
let external_fn ctx name : ctx -> tval list -> tval =
  match Hashtbl.find_opt ctx.externals name with
  | Some f -> f
  | None ->
    (match default_builtin name with
     | Some f -> f
     | None ->
       if name = "dim3" then dim3 else fun _ _ -> fail "unknown function %s" name)

(* Call sites that run many times intern their callee's name once, and
   look it up through the context's memo by id: the table a context is
   made with is never written afterwards, so the first resolution holds
   for the context's lifetime. *)
let ext_ids : (string, int) Hashtbl.t = Hashtbl.create 64
let ext_lock = Mutex.create ()

let intern_external name =
  Mutex.protect ext_lock (fun () ->
      match Hashtbl.find_opt ext_ids name with
      | Some id -> id
      | None ->
        let id = Hashtbl.length ext_ids in
        Hashtbl.replace ext_ids name id;
        id)

let unresolved : ctx -> tval list -> tval = fun _ _ -> fail "unresolved external"

let resolve_external ctx id name =
  let m = ctx.ext_memo in
  let r = m.resolved in
  if id < Array.length r && Array.unsafe_get r id != unresolved then
    Array.unsafe_get r id
  else begin
    let f = external_fn ctx name in
    let r =
      if id < Array.length r then r
      else begin
        let g = Array.make (max (id + 1) (2 * Array.length r)) unresolved in
        Array.blit r 0 g 0 (Array.length r);
        m.resolved <- g;
        g
      end
    in
    r.(id) <- f;
    f
  end

(* Hand an evaluated kernel call to the context's launch handler. *)
let launch ctx (call : launch_call) : tval =
  match ctx.launch_handler with
  | Some h -> h ctx call
  | None -> fail "kernel launch %s without a CUDA runtime" call.lc_kernel

(* ------------------------------------------------------------------ *)
(* Expression evaluation                                               *)
(* ------------------------------------------------------------------ *)

type lvalue =
  | LMem of addr_space * int * ty
  | LVec of addr_space * int * scalar * int list   (* vector components *)

let rec eval_lvalue ctx (e : expr) : lvalue =
  match e with
  | Ident name ->
    (match lookup ctx name with
     | Some b -> LMem (b.b_space, b.b_addr, b.b_ty)
     | None -> fail "unbound variable %s (as lvalue)" name)
  | Unary (Deref, p) ->
    let pv = eval ctx p in
    let ptr = Value.to_int pv.v in
    if Value.is_null ptr then fail "null pointer dereference";
    let pointee =
      match Layout.resolve ctx.layout pv.ty with
      | TPtr t | TArr (t, _) | TRef t -> t
      | _ -> TScalar Int
    in
    LMem (Value.ptr_space ptr, Value.ptr_offset ptr, pointee)
  | Index (a, i) ->
    let av = eval ctx a in
    let iv = eval ctx i in
    (match Layout.resolve ctx.layout av.ty with
     | TPtr elt | TArr (elt, _) ->
       let esz = Layout.sizeof ctx.layout elt in
       let base = Value.to_int av.v in
       if Value.is_null base then fail "null pointer indexed";
       let addr =
         Int64.add base (Int64.mul (Value.to_int iv.v) (Int64.of_int esz))
       in
       LMem (Value.ptr_space addr, Value.ptr_offset addr, elt)
     | TVec (s, _) ->
       (* indexing a vector lvalue component, e.g. v[i] in CUDA-style code *)
       (match eval_lvalue ctx a with
        | LMem (sp, addr, _) ->
          LVec (sp, addr, s, [ Int64.to_int (Value.to_int iv.v) ])
        | LVec _ -> fail "nested vector index")
     | t -> fail "cannot index type %s" (show_ty t))
  | Member (a, m) ->
    let aty = static_type ctx a in
    (match Layout.resolve ctx.layout aty with
     | TVec (s, width) ->
       (match vec_indices width m with
        | Some idx ->
          (match eval_lvalue ctx a with
           | LMem (sp, addr, _) -> LVec (sp, addr, s, idx)
           | LVec (sp, addr, s', outer) ->
             (* e.g. v.lo.x *)
             let outer = Array.of_list outer in
             let idx =
               List.map
                 (fun i ->
                    if i >= 0 && i < Array.length outer then outer.(i)
                    else fail "vector component index %d out of range" i)
                 idx
             in
             LVec (sp, addr, s', idx))
        | None -> fail "bad vector component .%s" m)
     | TNamed sn ->
       (match Layout.field_offset ctx.layout sn m with
        | Some (off, fty) ->
          let base = eval ctx a in   (* struct rvalue = its address *)
          let ptr = Value.to_int base.v in
          LMem (Value.ptr_space ptr, Value.ptr_offset ptr + off, fty)
        | None -> fail "no field %s in struct %s" m sn)
     | t -> fail "cannot access member .%s of %s" m (show_ty t))
  | Cast (_, inner) -> eval_lvalue ctx inner
  | e -> fail "not an lvalue: %s" (Minic.Pretty.expr_str Minic.Pretty.Cuda e)

(* Cheap static type of an expression, enough to drive member/index
   resolution; falls back to evaluating when needed. *)
and static_type ctx (e : expr) : ty =
  match e with
  | Ident name ->
    (match lookup ctx name with
     | Some b -> b.b_ty
     | None ->
       (match ctx.special_ident name with
        | Some t -> t.ty
        | None -> TScalar Int))
  | Index (a, _) ->
    (match Layout.resolve ctx.layout (static_type ctx a) with
     | TPtr t | TArr (t, _) -> t
     | TVec (s, _) -> TScalar s
     | t -> t)
  | Unary (Deref, a) ->
    (match Layout.resolve ctx.layout (static_type ctx a) with
     | TPtr t | TArr (t, _) | TRef t -> t
     | t -> t)
  | Member (a, m) ->
    (match Layout.resolve ctx.layout (static_type ctx a) with
     | TVec (s, width) ->
       (match vec_indices width m with
        | Some [ _ ] -> TScalar s
        | Some idx -> TVec (s, List.length idx)
        | None -> TScalar s)
     | TNamed sn ->
       (match Layout.field_offset ctx.layout sn m with
        | Some (_, fty) -> fty
        | None -> TScalar Int)
     | t -> t)
  | Cast (t, _) | StaticCast (t, _) | ReinterpretCast (t, _) | VecLit (t, _) -> t
  | IntLit (_, s) | FloatLit (_, s) -> TScalar s
  | Binary (_, a, _) -> static_type ctx a
  | Assign (_, a, _) -> static_type ctx a
  | Cond (_, a, _) -> static_type ctx a
  | Unary (_, a) -> static_type ctx a
  | Call (n, _, _) ->
    (match Hashtbl.find_opt ctx.funcs n with
     | Some f -> f.fn_ret
     | None -> TScalar Int)
  | _ -> TScalar Int

and load_lvalue ctx = function
  | LMem (sp, addr, ty) -> tv (load ctx sp addr ty) ty
  | LVec (sp, addr, s, idx) ->
    let es = scalar_size s in
    let comps =
      List.map
        (fun i ->
           let v = load ctx sp (addr + (i * es)) (TScalar s) in
           v)
        idx
    in
    (match comps with
     | [ c ] -> tv c (TScalar s)
     | cs -> tv (VVec (Array.of_list cs)) (TVec (s, List.length cs)))

and store_lvalue ctx lv (x : tval) =
  match lv with
  | LMem (sp, addr, ty) -> store ctx sp addr ty x.v
  | LVec (sp, addr, s, idx) ->
    let es = scalar_size s in
    let comps =
      match x.v with
      | VVec c -> c
      | v -> Array.make (List.length idx) v
    in
    List.iteri
      (fun k i ->
         if k >= Array.length comps then
           fail "vector component assignment: %d components for %d slots"
             (Array.length comps) (List.length idx);
         store ctx sp (addr + (i * es)) (TScalar s) comps.(k))
      idx

and eval ctx (e : expr) : tval =
  match e with
  | IntLit (n, s) -> tv (VInt n) (TScalar s)
  | FloatLit (f, s) -> tv (VFloat f) (TScalar s)
  | StrLit s -> tv (VInt (string_ptr ctx s)) (TPtr (TScalar Char))
  | Ident name ->
    (match lookup ctx name with
     | Some b -> tv (load ctx b.b_space b.b_addr b.b_ty) b.b_ty
     | None ->
       (match ctx.special_ident name with
        | Some t -> t
        | None -> fail "unbound identifier %s" name))
  | Unary ((Neg | Bnot) as op, a) -> unop ctx op (eval ctx a)
  | Unary (Lnot, a) ->
    let x = eval ctx a in
    ctx.on_op Op_int;
    tv (Value.of_bool (not (Value.to_bool x.v))) (TScalar Int)
  | Unary (Deref, _) | Index (_, _) | Member (_, _) ->
    (* may still be an rvalue-only member: threadIdx.x, or a component of
       a call result like read_imagef(...).x *)
    (match e with
     | Member (a, m)
       when (is_rvalue_member ctx a
             || match a with Call _ | VecLit _ | Binary _ -> true | _ -> false) ->
       let x = eval ctx a in
       (match Layout.resolve ctx.layout x.ty with
        | TVec (s, width) ->
          (match vec_indices width m with
           | Some [ i ] ->
             (match x.v with
              | VVec c -> tv c.(i) (TScalar s)
              | v -> tv v (TScalar s))
           | Some idx ->
             (match x.v with
              | VVec c ->
                tv (VVec (Array.of_list (List.map (fun i -> c.(i)) idx)))
                  (TVec (s, List.length idx))
              | v -> tv v (TVec (s, List.length idx)))
           | None -> fail "bad component .%s" m)
        | _ -> load_lvalue ctx (eval_lvalue ctx e))
     | _ -> load_lvalue ctx (eval_lvalue ctx e))
  | Unary (Addrof, a) ->
    (match eval_lvalue ctx a with
     | LMem (sp, addr, ty) -> tv (VInt (Value.make_ptr sp addr)) (TPtr ty)
     | LVec (sp, addr, s, i :: _) ->
       tv (VInt (Value.make_ptr sp (addr + (i * scalar_size s)))) (TPtr (TScalar s))
     | LVec (_, _, _, []) -> fail "empty vector lvalue")
  | Unary ((Preinc | Predec | Postinc | Postdec) as op, a) ->
    let lv = eval_lvalue ctx a in
    let old = load_lvalue ctx lv in
    let one = tv (VInt 1L) (TScalar Int) in
    let nv =
      binop ctx (if op = Preinc || op = Postinc then Add else Sub) old one
    in
    store_lvalue ctx lv nv;
    if op = Preinc || op = Predec then nv else old
  | Binary (Land, a, b) ->
    ctx.on_op Op_branch;
    if obs_branch ctx (Value.to_bool (eval ctx a).v) then
      tv (Value.of_bool (Value.to_bool (eval ctx b).v)) (TScalar Int)
    else tv (VInt 0L) (TScalar Int)
  | Binary (Lor, a, b) ->
    ctx.on_op Op_branch;
    if obs_branch ctx (Value.to_bool (eval ctx a).v) then tv (VInt 1L) (TScalar Int)
    else tv (Value.of_bool (Value.to_bool (eval ctx b).v)) (TScalar Int)
  | Binary (op, a, b) -> binop ctx op (eval ctx a) (eval ctx b)
  | Assign (op, lhs, rhs) ->
    let lv = eval_lvalue ctx lhs in
    let x =
      match op with
      | None -> eval ctx rhs
      | Some op -> binop ctx op (load_lvalue ctx lv) (eval ctx rhs)
    in
    store_lvalue ctx lv x;
    x
  | Cond (c, a, b) ->
    ctx.on_op Op_branch;
    if obs_branch ctx (Value.to_bool (eval ctx c).v) then eval ctx a
    else eval ctx b
  | Call (name, tmpl, args) -> eval_call ctx name tmpl args
  | Cast (t, a) | StaticCast (t, a) | ReinterpretCast (t, a) ->
    cast_value ctx t (eval ctx a)
  | SizeofT t -> tv (VInt (Int64.of_int (Layout.sizeof ctx.layout t))) (TScalar SizeT)
  | SizeofE a ->
    let t = static_type ctx a in
    tv (VInt (Int64.of_int (Layout.sizeof ctx.layout t))) (TScalar SizeT)
  | VecLit (t, args) ->
    (match Layout.resolve ctx.layout t with
     | TVec (s, n) ->
       (* components may themselves be vectors: (float4)(v.lo, 0, 1) *)
       let comps =
         List.concat_map
           (fun a ->
              match (eval ctx a).v with
              | VVec c -> Array.to_list c
              | v -> [ v ])
           args
       in
       let comps =
         if List.length comps = 1 then List.init n (fun _ -> List.hd comps)
         else comps
       in
       if List.length comps < n then fail "vector literal too short";
       let comps = List.filteri (fun i _ -> i < n) comps in
       tv (VVec (Array.of_list (List.map (convert_elt s) comps))) (TVec (s, n))
     | _ -> cast_value ctx t (eval ctx (List.hd args)))
  | Launch l ->
    let grid = eval ctx l.l_grid in
    let block = eval ctx l.l_block in
    let shmem = Option.map (eval ctx) l.l_shmem in
    let args = List.map (eval ctx) l.l_args in
    launch ctx
      { lc_kernel = l.l_kernel; lc_tmpl = l.l_tmpl; lc_grid = grid;
        lc_block = block; lc_shmem = shmem; lc_args = args }

(* threadIdx etc. are rvalue specials; anything bound in scope is not. *)
and is_rvalue_member ctx a =
  match a with
  | Ident n -> lookup ctx n = None && ctx.special_ident n <> None
  | _ -> false

and eval_call ctx name tmpl args : tval =
  match Hashtbl.find_opt ctx.funcs name with
  | Some f ->
    let f = if f.fn_tmpl = [] then f else Minic.Specialize.func f tmpl in
    (* reference parameters receive the argument's address (§3.6) *)
    let eval_arg i a =
      match List.nth_opt f.fn_params i with
      | Some pa when (match unqual pa.pa_ty with TRef _ -> true | _ -> false) ->
        eval ctx (Unary (Addrof, a))
      | _ -> eval ctx a
    in
    call_function ctx f (List.mapi eval_arg args)
  | None ->
    let argv = List.map (eval ctx) args in
    external_fn ctx name ctx argv

and call_function ctx f args =
  (match f.fn_body with
   | None -> fail "calling prototype %s" f.fn_name
   | Some _ -> ());
  ctx.call_depth <- ctx.call_depth + 1;
  if ctx.call_depth > 512 then fail "call depth exceeded in %s" f.fn_name;
  let body = Option.get f.fn_body in
  let arena = ctx.arena_of ctx.stack_space in
  let m = Memory.mark arena in
  (match ctx.observer with Some o -> o.obs_enter f.fn_name | None -> ());
  push_scope ctx;
  let saved_scopes = ctx.scopes in
  Fun.protect
    ~finally:(fun () ->
        ctx.scopes <- saved_scopes;
        pop_scope ctx;
        Memory.release arena m;
        ctx.call_depth <- ctx.call_depth - 1;
        match ctx.observer with Some o -> o.obs_leave f.fn_name | None -> ())
    (fun () ->
       let args = Array.of_list args in
       List.iteri
         (fun i (pa : param) ->
            let arg =
              if i < Array.length args then args.(i)
              else fail "missing argument %d in call to %s" (i + 1) f.fn_name
            in
            let ty =
              if pa.pa_space = AS_none then pa.pa_ty
              else TQual (pa.pa_space, pa.pa_ty)
            in
            (* reference parameters alias the caller's storage *)
            match Layout.resolve ctx.layout pa.pa_ty with
            | TRef inner ->
              let ptr = Value.to_int arg.v in
              bind ctx pa.pa_name
                { b_space = Value.ptr_space ptr;
                  b_addr = Value.ptr_offset ptr;
                  b_ty = inner }
            | _ ->
              let b = alloc_var ctx pa.pa_name ty plain_storage in
              store ctx b.b_space b.b_addr b.b_ty arg.v)
         f.fn_params;
       try
         List.iter (exec_stmt ctx) body;
         tunit
       with Return_exc v ->
         (* C semantics: the returned value converts to the declared
            return type (e.g. [return blockDim.x] in an [int] function
            yields a signed int, not a uint) *)
         let ret = unqual f.fn_ret in
         if equal_ty v.ty ret then v else cast_value ctx ret v)

(* ------------------------------------------------------------------ *)
(* Statements                                                          *)
(* ------------------------------------------------------------------ *)

and store_init ctx b (i : init) =
  match i with
  | IExpr e ->
    let x = eval ctx e in
    store ctx b.b_space b.b_addr b.b_ty x.v
  | IList items ->
    (* zero-fill then element-wise init *)
    let size = Layout.sizeof ctx.layout b.b_ty in
    let a = ctx.arena_of b.b_space in
    Memory.store_bytes a b.b_addr (Bytes.make size '\000');
    (match Layout.resolve ctx.layout b.b_ty with
     | TArr (elt, _) ->
       let esz = Layout.sizeof ctx.layout elt in
       List.iteri
         (fun k item ->
            match item with
            | IExpr e ->
              let x = eval ctx e in
              store ctx b.b_space (b.b_addr + (k * esz)) elt x.v
            | IList _ ->
              store_init ctx
                { b_space = b.b_space; b_addr = b.b_addr + (k * esz); b_ty = elt }
                item)
         items
     | TVec (s, n) ->
       let esz = scalar_size s in
       List.iteri
         (fun k item ->
            if k < n then
              match item with
              | IExpr e ->
                let x = eval ctx e in
                store ctx b.b_space (b.b_addr + (k * esz)) (TScalar s) x.v
              | IList _ -> fail "nested vector init")
         items
     | TNamed sn ->
       (match Hashtbl.find_opt ctx.layout.Layout.structs sn with
        | Some fields ->
          List.iteri
            (fun k item ->
               match List.nth_opt fields k with
               | None -> ()
               | Some (fn, _) ->
                 (match Layout.field_offset ctx.layout sn fn with
                  | Some (off, fty) ->
                    (match item with
                     | IExpr e ->
                       let x = eval ctx e in
                       store ctx b.b_space (b.b_addr + off) fty x.v
                     | IList _ ->
                       store_init ctx
                         { b_space = b.b_space; b_addr = b.b_addr + off; b_ty = fty }
                         item)
                  | None -> ()))
            items
        | None -> fail "initializer list for non-struct %s" sn)
     | t -> fail "initializer list for %s" (show_ty t))

and exec_stmt ctx (s : stmt) =
  match s with
  | SDecl d ->
    (* extern __shared__ x[] binds to the dynamic shared area and is set
       up by the kernel launcher as a special binding named "$dynshared" *)
    if d.d_storage.s_extern && d.d_storage.s_space = AS_local
       || (d.d_storage.s_extern && type_space d.d_ty = AS_local)
    then begin
      match lookup ctx "$dynshared" with
      | Some b ->
        let elt =
          match Layout.resolve ctx.layout d.d_ty with
          | TArr (t, _) | TPtr t -> t
          | t -> t
        in
        bind ctx d.d_name
          { b_space = b.b_space; b_addr = b.b_addr; b_ty = TArr (elt, None) }
      | None -> fail "extern __shared__ outside a kernel launch"
    end
    else begin
      let b = alloc_var ctx d.d_name d.d_ty d.d_storage in
      match d.d_init with
      | None -> ()
      | Some i -> store_init ctx b i
    end
  | SExpr e -> ignore (eval ctx e)
  | SIf (c, a, b) ->
    ctx.on_op Op_branch;
    if obs_branch ctx (Value.to_bool (eval ctx c).v) then exec_stmt ctx a
    else Option.iter (exec_stmt ctx) b
  | SWhile (c, body) ->
    (try
       while
         ctx.on_op Op_branch;
         obs_branch ctx (Value.to_bool (eval ctx c).v)
       do
         try exec_stmt ctx body with Continue_exc -> ()
       done
     with Break_exc -> ())
  | SDoWhile (body, c) ->
    (try
       let continue_ = ref true in
       while !continue_ do
         (try exec_stmt ctx body with Continue_exc -> ());
         ctx.on_op Op_branch;
         continue_ := obs_branch ctx (Value.to_bool (eval ctx c).v)
       done
     with Break_exc -> ())
  | SFor (init, cond, update, body) ->
    push_scope ctx;
    Fun.protect
      ~finally:(fun () -> pop_scope ctx)
      (fun () ->
         Option.iter (exec_stmt ctx) init;
         try
           while
             ctx.on_op Op_branch;
             match cond with
             | None -> true
             | Some c -> obs_branch ctx (Value.to_bool (eval ctx c).v)
           do
             (try exec_stmt ctx body with Continue_exc -> ());
             Option.iter (fun u -> ignore (eval ctx u)) update
           done
         with Break_exc -> ())
  | SReturn None -> raise (Return_exc tunit)
  | SReturn (Some e) -> raise (Return_exc (eval ctx e))
  | SBreak -> raise Break_exc
  | SContinue -> raise Continue_exc
  | SBlock l ->
    push_scope ctx;
    Fun.protect
      ~finally:(fun () -> pop_scope ctx)
      (fun () -> List.iter (exec_stmt ctx) l)
  | SSite (id, s) ->
    (* events inside charge to [id]; restoring the caller's site keeps
       loop-condition re-evaluations on the loop's own site *)
    let saved = !(ctx.cur_site) in
    ctx.cur_site := id;
    (match exec_stmt ctx s with
     | () -> ctx.cur_site := saved
     | exception e ->
       ctx.cur_site := saved;
       raise e)

(* ------------------------------------------------------------------ *)
(* Program-level entry points                                          *)
(* ------------------------------------------------------------------ *)

(* Allocate and initialise global variables.  [want_space] filters which
   address spaces to set up (host setup vs. device module load). *)
let init_globals ctx ?(filter = fun _ -> true) prog =
  List.iter
    (function
      | TVar d when filter d ->
        let b = alloc_var ctx d.d_name d.d_ty d.d_storage in
        (match d.d_init with
         | None -> ()
         | Some i -> store_init ctx b i)
      | _ -> ())
    prog

(* Run a named function with values as arguments. *)
let run ctx name args =
  match Hashtbl.find_opt ctx.funcs name with
  | Some f -> call_function ctx f args
  | None -> fail "no function named %s" name

let bind_raw ctx name b = bind ctx name b
