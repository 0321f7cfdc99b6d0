(* The kernel IR sitting between the Mini-C AST and the closure emitter
   (`Emit`).

   Shape: ANF-style linear instruction lists under structured control
   flow (the VM's loops are structured, so basic blocks would only
   re-discover the nesting the AST already has).  Every intermediate
   value lands in a typed virtual register; memory traffic is explicit
   (`Store`, `ReadLv`); a barrier is a first-class instruction so the
   redundant-barrier pass can see it; every instruction carries the
   source-site tag (`Minic.Site` id) of the statement it came from so
   per-site attribution (`Gpusim.Attr`) survives optimization.

   Register discipline: `Let` targets are single-assignment by
   construction (lowering never reuses a slot), which is what makes the
   pass pipeline's global rename map sound.  Mutable source variables
   live in the same register file but are written through `SetReg`
   (scalar/pointer locals, value normalized to the declared type on
   every write — the register equivalent of the store+load roundtrip
   the interpreter performs) or `SetRaw` (merge variables for
   `?:` / `&&` / `||` results, which the VM returns unnormalized).
   Variables whose address can be observed (arrays, vectors accessed by
   component, address-taken scalars, `__local`/`__shared__` data) stay
   in simulated memory as `DeclMem` bindings: their loads and stores are
   never moved, duplicated or deleted, which is what keeps memory
   streams — and hence gmem/smem counters and bank-conflict modeling —
   byte-identical under every pass. *)

open Minic.Ast
module I = Vm.Interp

type operand =
  | Reg of int
  | Cst of I.tval

type un1 =
  | UNeg   (* charges Op_int/Op_float like the interpreter's Neg *)
  | ULnot  (* !x -> 0/1 : int, charges Op_int *)
  | UBnot  (* ~x, charges Op_int *)
  | UBool  (* of_bool (to_bool x) : int, charge-free (&& / || tail) *)

(* Lvalues: a static skeleton with operand leaves.  `LvIdx` is the
   statically-typed fast path (pointer/array base of known element
   type); `LvIdxDyn` resolves the base's runtime type like the
   interpreter, including the vector-element case which needs the base
   re-resolved as an lvalue. *)
type lv =
  | LvVar of int                              (* memory-class variable *)
  | LvFree of string                          (* runtime-scoped binding *)
  | LvIdx of operand * operand * ty * int     (* base, index, elt, elt size *)
  | LvIdxDyn of operand * operand * lv option (* base value, index, base lv *)
  | LvDeref of operand
  | LvSwz of lv * int array * scalar          (* static swizzle selector *)

type rhs =
  | Bin of binop * operand * operand  (* not Land/Lor: those lower to If *)
  | Un of un1 * operand
  | CastV of ty * operand             (* cast_value; charge-free *)
  | CastRet of ty * operand           (* inlined call's return conversion *)
  | Mov of operand
  | ReadLv of lv                      (* charged, typed load *)
  | AddrofLv of lv
  | Swz of operand * string * (scalar * int * int) option
      (* static fast path: element scalar, vector width, component index *)
      (* rvalue component select; the option is the statically decoded
         (width, index) single-component fast path *)
  | Vecc of ty * operand list         (* vector literal construction *)
  | Special of string                 (* threadIdx & friends, charge-free *)
  | Free of string                    (* module global / launch binding,
                                         resolved through the runtime
                                         context like the interpreter *)
  | CallE of string * operand list    (* external/builtin call *)
  | CallU of string * operand list    (* user function call *)
  (* The two host-only forms: only a host compile lowers them. *)
  | CallK of string * ty list * bool * operand list
      (* <<<...>>> kernel call: kernel, template args, whether shared
         bytes are given; operands grid, block, [shared bytes], args, in
         evaluation order.  Calls the context's launch handler. *)
  | StrP of string
      (* string literal: Interp.string_ptr on the running context, which
         allocates on first use; charge-free, but impure so that no pass
         merges, hoists or deletes it *)

type ikind =
  | Let of int * rhs             (* regs.(r) <- rhs; single assignment *)
  | SetReg of int * ty * operand (* normalized variable write *)
  | SetRaw of int * operand      (* merge-variable write, value untouched *)
  | Store of lv * operand        (* charged, typed store *)
  | Do of rhs                    (* evaluate for effect *)
  | Barrier of string * operand list * bool  (* name, args, removable *)
  | DeclMem of int               (* allocate + bind a memory variable *)
  | ZeroFill of int              (* initializer-list zero prefill *)
  | StoreElt of int * int * ty * operand  (* var, byte offset, elt type *)
  | Elim of int
      (* attribution phantom: this many statically-counted ops were
         optimized away at this point (negative at a hoist landing site
         to pair with the positive marker left in the loop body) *)

type instr = { i_site : int; i_kind : ikind }
(* i_site = -1 means "the ambient site of the caller": the function has
   no enclosing SSite here and charges go to whatever site was current
   at function entry, exactly like the unoptimized backends. *)

type node =
  | Ins of instr
  | If of int * operand * body * body   (* site of the branch charge *)
  | Loop of loop
  | Return of operand option
  | Break
  | Continue

and body = node list

and loop = {
  l_kind : [ `While | `DoWhile | `For ];
  l_site : int;             (* site of the per-iteration branch charge *)
  l_init : body;            (* for-init; runs once *)
  l_pre : body;             (* preheader: LICM landing pad, runs once *)
  l_cond : (body * operand) option;  (* None only for `for (;;)` *)
  l_body : body;
  l_update : body;
}

(* Memory-class variable descriptor.  m_space = AS_none means "the
   context's stack space" (private inside kernels), resolved at run
   time like the interpreter.  m_shared marks `extern __shared__`
   aliases bound from the launcher's "$dynshared" allocation. *)
type minfo = {
  m_name : string;
  m_ty : ty;
  m_space : addr_space;
  m_size : int;
  m_align : int;
  m_shared : bool;
}

type pbind = { p_reg : int; p_ty : ty }

type fn = {
  f_name : string;
  f_ret : ty;               (* declared return type, unqualified *)
  f_params : pbind array;
  f_nregs : int;
  f_mem : minfo array;
  f_body : body;
  f_sited : bool;           (* any SSite tag anywhere in the body *)
}

(* ------------------------------------------------------------------ *)
(* Traversal helpers shared by the verifier and the passes             *)
(* ------------------------------------------------------------------ *)

let rec lv_operands acc = function
  | LvVar _ | LvFree _ -> acc
  | LvIdx (a, b, _, _) -> a :: b :: acc
  | LvIdxDyn (a, b, lv) ->
    let acc = a :: b :: acc in
    (match lv with Some l -> lv_operands acc l | None -> acc)
  | LvDeref a -> a :: acc
  | LvSwz (l, _, _) -> lv_operands acc l

let rhs_operands = function
  | Bin (_, a, b) -> [ a; b ]
  | Un (_, a) | CastV (_, a) | CastRet (_, a) | Mov a | Swz (a, _, _) -> [ a ]
  | ReadLv l | AddrofLv l -> lv_operands [] l
  | Vecc (_, l) | CallE (_, l) | CallU (_, l) | CallK (_, _, _, l) -> l
  | Special _ | Free _ | StrP _ -> []

let ikind_operands = function
  | Let (_, r) | Do r -> rhs_operands r
  | SetReg (_, _, o) | SetRaw (_, o) | StoreElt (_, _, _, o) -> [ o ]
  | Store (l, o) -> o :: lv_operands [] l
  | Barrier (_, l, _) -> l
  | DeclMem _ | ZeroFill _ | Elim _ -> []

(* Register uses of a whole body, counted into [mark]. *)
let body_uses (f : int -> unit) (b : body) =
  let op = function Reg r -> f r | Cst _ -> () in
  let ins i = List.iter op (ikind_operands i.i_kind) in
  let rec node = function
    | Ins i -> ins i
    | If (_, c, t, e) ->
      op c;
      walk t;
      walk e
    | Loop l ->
      walk l.l_init;
      walk l.l_pre;
      (match l.l_cond with
       | Some (cb, co) ->
         walk cb;
         op co
       | None -> ());
      walk l.l_body;
      walk l.l_update
    | Return (Some o) -> op o
    | Return None | Break | Continue -> ()
  and walk b = List.iter node b in
  walk b

(* Definitions (Let targets and SetReg/SetRaw writes) of a body. *)
let body_defs ~(lets : int -> unit) ~(sets : int -> unit) (b : body) =
  let ins i =
    match i.i_kind with
    | Let (r, _) -> lets r
    | SetReg (r, _, _) | SetRaw (r, _) -> sets r
    | _ -> ()
  in
  let rec node = function
    | Ins i -> ins i
    | If (_, _, t, e) ->
      walk t;
      walk e
    | Loop l ->
      walk l.l_init;
      walk l.l_pre;
      (match l.l_cond with Some (cb, _) -> walk cb | None -> ());
      walk l.l_body;
      walk l.l_update
    | Return _ | Break | Continue -> ()
  and walk b = List.iter node b in
  walk b

(* ------------------------------------------------------------------ *)
(* Static charge / purity classification (used by the passes)          *)
(* ------------------------------------------------------------------ *)

(* Launch-constant, charge-free externals: the NDRange index and shape
   queries.  They are pure per work-item (barrier suspension resumes the
   same item with the same indices), which makes them CSE and LICM
   candidates. *)
let invariant_externals =
  [ "get_global_id"; "get_local_id"; "get_group_id"; "get_work_dim";
    "get_global_size"; "get_local_size"; "get_num_groups" ]

let is_invariant_external n = List.mem n invariant_externals

(* Operations the pipeline may fold, deduplicate or hoist: no memory
   traffic, no observer interaction, no calls with unknown effects. *)
let rhs_pure = function
  | Bin _ | Un _ | CastV _ | CastRet _ | Mov _ | Swz _ | Vecc _ | Special _ ->
    true
  | CallE (n, _) -> is_invariant_external n
  | ReadLv _ | AddrofLv _ | CallU _ | Free _ | CallK _ | StrP _ -> false

(* May the rhs raise for reasons other than a broken operand?  Integer
   division by zero is the one pure-looking trap; a hoist must not turn
   a conditionally-executed trap into an unconditional one. *)
let rhs_trapping = function
  | Bin ((Div | Mod), _, _) -> true
  | _ -> false

(* Statically known op-counter charge of executing the rhs once, or
   None when the charge depends on the callee (CallU) or runtime types
   beyond what we track.  Matches what the interpreter charges for the
   same shapes. *)
let rhs_charge = function
  | Bin _ | Un ((UNeg | ULnot | UBnot), _) -> Some 1
  | Un (UBool, _) -> Some 0
  | CastV _ | CastRet _ | Mov _ | Swz _ | Vecc _ | Special _ -> Some 0
  | CallE (n, _) when is_invariant_external n -> Some 0
  | StrP _ -> Some 0
  | ReadLv _ | AddrofLv _ | CallE _ | CallU _ | Free _ | CallK _ -> None

(* ------------------------------------------------------------------ *)
(* Register-write normalization                                        *)
(* ------------------------------------------------------------------ *)

(* V.wrap_int on a native int, for a scalar of at most 32 bits: shift
   the value's bits to the top and back (sign extension), then mask
   (unsigned).  [wrap_params s] is the shift and the mask. *)
let wrap_params s =
  let bits = 8 * scalar_size s in
  if is_unsigned s then (0, (1 lsl bits) - 1) else (63 - bits, -1)

(* V.to_int and V.to_float with their common case here: a call into
   Vm.Value returns its result boxed. *)
let[@inline] value_int = function Vm.Value.VInt n -> n | v -> Vm.Value.to_int v
let[@inline] value_float = function Vm.Value.VFloat f -> f | v -> Vm.Value.to_float v

(* What a `SetReg` of type [ty] stores: exactly the store+load roundtrip
   the interpreter performs through a variable of the declared type,
   minus the memory traffic.  Promoted variables are scalars or
   pointers only (see Lower.promotable).  Narrow ints wrap and floats
   round to fp32 in this module, as V.wrap_int and V.round_float do. *)
let normalizer lt (ty : ty) : I.tval -> I.tval =
  let module V = Vm.Value in
  match Vm.Layout.resolve lt ty with
  | TScalar Float ->
    fun x ->
      I.tv (V.VFloat (Int32.float_of_bits (Int32.bits_of_float (value_float x.I.v)))) ty
  | TScalar Double -> fun x -> I.tv (V.VFloat (value_float x.I.v)) ty
  | TScalar s when s <> Void && scalar_size s <= 4 ->
    let sh, mask = wrap_params s in
    fun x ->
      let n = Int64.to_int (value_int x.I.v) in
      I.tv (V.VInt (Int64.of_int (((n lsl sh) asr sh) land mask))) ty
  | TScalar s when s <> Void ->
    fun x -> I.tv (V.VInt (V.wrap_int s (value_int x.I.v))) ty
  | TPtr _ ->
    fun x -> I.tv (V.VInt (value_int x.I.v)) ty
  | _ -> fun x -> I.tv x.I.v ty

(* ------------------------------------------------------------------ *)
(* Pretty printer (oclcu translate --ir-dump)                          *)
(* ------------------------------------------------------------------ *)

let show_operand = function
  | Reg r -> Printf.sprintf "r%d" r
  | Cst t ->
    (match t.I.v with
     | Vm.Value.VInt n ->
       Printf.sprintf "%Ld:%s" n (Minic.Pretty.type_name Minic.Pretty.Cuda t.I.ty)
     | Vm.Value.VFloat f ->
       Printf.sprintf "%g:%s" f (Minic.Pretty.type_name Minic.Pretty.Cuda t.I.ty)
     | v -> Vm.Value.to_string v)

let show_un = function
  | UNeg -> "neg"
  | ULnot -> "lnot"
  | UBnot -> "bnot"
  | UBool -> "bool"

let show_binop (op : binop) =
  match op with
  | Add -> "add" | Sub -> "sub" | Mul -> "mul" | Div -> "div" | Mod -> "mod"
  | Shl -> "shl" | Shr -> "shr" | Lt -> "lt" | Gt -> "gt" | Le -> "le"
  | Ge -> "ge" | Eq -> "eq" | Ne -> "ne" | Band -> "band" | Bxor -> "bxor"
  | Bor -> "bor" | Land -> "land" | Lor -> "lor"

let rec show_lv (fn : fn) = function
  | LvVar v -> Printf.sprintf "%%%s" fn.f_mem.(v).m_name
  | LvFree n -> Printf.sprintf "%%%s:free" n
  | LvIdx (a, i, t, _) ->
    Printf.sprintf "%s[%s]:%s" (show_operand a) (show_operand i)
      (Minic.Pretty.type_name Minic.Pretty.Cuda t)
  | LvIdxDyn (a, i, _) ->
    Printf.sprintf "%s[%s]:?" (show_operand a) (show_operand i)
  | LvDeref a -> Printf.sprintf "*%s" (show_operand a)
  | LvSwz (l, idx, _) ->
    Printf.sprintf "%s.{%s}" (show_lv fn l)
      (String.concat "," (Array.to_list (Array.map string_of_int idx)))

let show_rhs fn = function
  | Bin (op, a, b) ->
    Printf.sprintf "%s %s, %s" (show_binop op) (show_operand a)
      (show_operand b)
  | Un (u, a) -> Printf.sprintf "%s %s" (show_un u) (show_operand a)
  | CastV (t, a) ->
    Printf.sprintf "cast %s to %s" (show_operand a)
      (Minic.Pretty.type_name Minic.Pretty.Cuda t)
  | CastRet (t, a) ->
    Printf.sprintf "retcast %s to %s" (show_operand a)
      (Minic.Pretty.type_name Minic.Pretty.Cuda t)
  | Mov a -> Printf.sprintf "mov %s" (show_operand a)
  | ReadLv l -> Printf.sprintf "load %s" (show_lv fn l)
  | AddrofLv l -> Printf.sprintf "addrof %s" (show_lv fn l)
  | Swz (a, m, _) -> Printf.sprintf "%s.%s" (show_operand a) m
  | Vecc (t, l) ->
    Printf.sprintf "vec %s(%s)"
      (Minic.Pretty.type_name Minic.Pretty.Cuda t)
      (String.concat ", " (List.map show_operand l))
  | Special n -> Printf.sprintf "special %s" n
  | Free n -> Printf.sprintf "free %s" n
  | CallE (n, l) ->
    Printf.sprintf "calle %s(%s)" n (String.concat ", " (List.map show_operand l))
  | CallU (n, l) ->
    Printf.sprintf "callu %s(%s)" n (String.concat ", " (List.map show_operand l))
  | CallK (n, _, _, l) ->
    Printf.sprintf "launch %s(%s)" n (String.concat ", " (List.map show_operand l))
  | StrP s -> Printf.sprintf "str %S" s

let dump_fn (fn : fn) : string =
  let buf = Buffer.create 1024 in
  let pr fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let site s = if s < 0 then "" else Printf.sprintf "  @%d" s in
  let ins ind i =
    (match i.i_kind with
     | Let (r, rhs) -> pr "%sr%d = %s%s\n" ind r (show_rhs fn rhs) (site i.i_site)
     | SetReg (r, t, o) ->
       pr "%sr%d <-%s %s%s\n" ind r
         (Minic.Pretty.type_name Minic.Pretty.Cuda t)
         (show_operand o) (site i.i_site)
     | SetRaw (r, o) -> pr "%sr%d <~ %s%s\n" ind r (show_operand o) (site i.i_site)
     | Store (l, o) ->
       pr "%sstore %s, %s%s\n" ind (show_lv fn l) (show_operand o) (site i.i_site)
     | Do rhs -> pr "%sdo %s%s\n" ind (show_rhs fn rhs) (site i.i_site)
     | Barrier (n, _, rem) ->
       pr "%sbarrier %s%s%s\n" ind n (if rem then " [removable]" else "")
         (site i.i_site)
     | DeclMem v ->
       let m = fn.f_mem.(v) in
       pr "%sdecl %%%s : %s (%d bytes)%s\n" ind m.m_name
         (Minic.Pretty.type_name Minic.Pretty.Cuda m.m_ty)
         m.m_size (site i.i_site)
     | ZeroFill v -> pr "%szerofill %%%s%s\n" ind fn.f_mem.(v).m_name (site i.i_site)
     | StoreElt (v, off, _, o) ->
       pr "%sstore %%%s+%d, %s%s\n" ind fn.f_mem.(v).m_name off (show_operand o)
         (site i.i_site)
     | Elim n -> pr "%selim %d%s\n" ind n (site i.i_site))
  in
  let rec node ind = function
    | Ins i -> ins ind i
    | If (_, c, t, e) ->
      pr "%sif %s {\n" ind (show_operand c);
      walk (ind ^ "  ") t;
      if e <> [] then begin
        pr "%s} else {\n" ind;
        walk (ind ^ "  ") e
      end;
      pr "%s}\n" ind
    | Loop l ->
      let kind =
        match l.l_kind with
        | `While -> "while"
        | `DoWhile -> "dowhile"
        | `For -> "for"
      in
      pr "%s%s {\n" ind kind;
      let sub lbl b =
        if b <> [] then begin
          pr "%s  .%s:\n" ind lbl;
          walk (ind ^ "    ") b
        end
      in
      sub "init" l.l_init;
      sub "pre" l.l_pre;
      (match l.l_cond with
       | Some (cb, co) ->
         pr "%s  .cond -> %s:\n" ind (show_operand co);
         walk (ind ^ "    ") cb
       | None -> ());
      sub "body" l.l_body;
      sub "update" l.l_update;
      pr "%s}\n" ind
    | Return None -> pr "%sret\n" ind
    | Return (Some o) -> pr "%sret %s\n" ind (show_operand o)
    | Break -> pr "%sbreak\n" ind
    | Continue -> pr "%scontinue\n" ind
  and walk ind b = List.iter (node ind) b in
  pr "fn %s(%s) : %s  [%d regs, %d mem]\n" fn.f_name
    (String.concat ", "
       (Array.to_list (Array.map (fun p -> Printf.sprintf "r%d" p.p_reg) fn.f_params)))
    (Minic.Pretty.type_name Minic.Pretty.Cuda fn.f_ret)
    fn.f_nregs (Array.length fn.f_mem);
  walk "  " fn.f_body;
  Buffer.contents buf
