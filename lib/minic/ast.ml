(* Abstract syntax for Mini-C, the C dialect shared by the OpenCL C and
   CUDA C subsets the paper's translator manipulates.  One AST serves both
   dialects; dialect-specific constructs (kernel launches, image types,
   texture references, address-space qualifiers) are first-class nodes so
   the translator can pattern-match on them directly. *)

type addr_space =
  | AS_private
  | AS_local      (* OpenCL __local  / CUDA __shared__   *)
  | AS_global     (* OpenCL __global / CUDA __device__   *)
  | AS_constant   (* OpenCL __constant / CUDA __constant__ *)
  | AS_none       (* unqualified *)
[@@deriving show { with_path = false }, eq]

type scalar =
  | Void
  | Bool
  | Char
  | UChar
  | Short
  | UShort
  | Int
  | UInt
  | Long
  | ULong
  | LongLong
  | ULongLong
  | Float
  | Double
  | SizeT
[@@deriving show { with_path = false }, eq]

(* CUDA texture read modes; [RM_element] is cudaReadModeElementType. *)
type read_mode = RM_element | RM_normalized_float
[@@deriving show { with_path = false }, eq]

type ty =
  | TScalar of scalar
  | TVec of scalar * int                (* float4, uchar16, int1, ... *)
  | TPtr of ty
  | TRef of ty                          (* CUDA C++ reference *)
  | TArr of ty * int option
  | TNamed of string                    (* struct / typedef / template param *)
  | TQual of addr_space * ty            (* space qualifier embedded in a type,
                                           e.g. OpenCL [__global int*] *)
  | TConst of ty
  | TTexture of scalar * int * read_mode (* CUDA texture<s, dim, mode> *)
  | TImage of int                       (* OpenCL imageNd_t *)
  | TSampler                            (* OpenCL sampler_t *)
  | TFun of ty * ty list                (* used to detect function pointers *)
[@@deriving show { with_path = false }, eq]

type binop =
  | Add | Sub | Mul | Div | Mod
  | Shl | Shr
  | Lt | Gt | Le | Ge | Eq | Ne
  | Band | Bxor | Bor
  | Land | Lor
[@@deriving show { with_path = false }, eq]

type unop =
  | Neg | Lnot | Bnot
  | Deref | Addrof
  | Preinc | Predec | Postinc | Postdec
[@@deriving show { with_path = false }, eq]

type expr =
  | IntLit of int64 * scalar
  | FloatLit of float * scalar
  | StrLit of string
  | Ident of string
  | Unary of unop * expr
  | Binary of binop * expr * expr
  | Assign of binop option * expr * expr  (* None => plain '=',
                                             Some op => 'op=' *)
  | Cond of expr * expr * expr
  | Call of string * ty list * expr list  (* name, template args, args *)
  | Index of expr * expr
  | Member of expr * string               (* field access or vector component *)
  | Cast of ty * expr                     (* C-style *)
  | StaticCast of ty * expr               (* C++ static_cast<ty>(e) *)
  | ReinterpretCast of ty * expr
  | SizeofT of ty
  | SizeofE of expr
  | VecLit of ty * expr list              (* OpenCL (float4)(a,b,c,d) *)
  | Launch of launch                      (* CUDA f<<<g, b, sh, st>>>(args) *)

and launch = {
  l_kernel : string;
  l_tmpl : ty list;                       (* template args on the kernel *)
  l_grid : expr;
  l_block : expr;
  l_shmem : expr option;
  l_stream : expr option;
  l_args : expr list;
}
[@@deriving show { with_path = false }, eq]

type init = IExpr of expr | IList of init list
[@@deriving show { with_path = false }, eq]

(* Storage-class and cv flags on a declaration. *)
type storage = {
  s_space : addr_space;
  s_extern : bool;
  s_static : bool;
  s_const : bool;
  s_volatile : bool;
  s_restrict : bool;
}
[@@deriving show { with_path = false }, eq]

let plain_storage =
  { s_space = AS_none; s_extern = false; s_static = false;
    s_const = false; s_volatile = false; s_restrict = false }

let space_storage space = { plain_storage with s_space = space }

type decl = {
  d_name : string;
  d_ty : ty;
  d_storage : storage;
  d_init : init option;
}
[@@deriving show { with_path = false }, eq]

type stmt =
  | SDecl of decl
  | SExpr of expr
  | SIf of expr * stmt * stmt option
  | SWhile of expr * stmt
  | SDoWhile of stmt * expr
  | SFor of stmt option * expr option * expr option * stmt
      (* init is a declaration or expression statement *)
  | SReturn of expr option
  | SBreak
  | SContinue
  | SBlock of stmt list
  | SSite of int * stmt
      (* attribution wrapper: the statement belongs to source site [id].
         Inserted by Site.annotate (profiling only); transparent to
         pretty-printing and semantics.  Site 0 is reserved for
         translator-injected code ("translation overhead"). *)
[@@deriving show { with_path = false }, eq]

(* Function kinds across both dialects. *)
type fkind =
  | FK_kernel        (* OpenCL __kernel / CUDA __global__ *)
  | FK_device        (* device-only helper (__device__ or plain in .cl) *)
  | FK_host          (* host function *)
  | FK_host_device   (* CUDA __host__ __device__ *)
[@@deriving show { with_path = false }, eq]

type param = {
  pa_name : string;
  pa_ty : ty;
  pa_space : addr_space;   (* leading qualifier, e.g. [__local int *p] *)
  pa_const : bool;
}
[@@deriving show { with_path = false }, eq]

type func = {
  fn_name : string;
  fn_kind : fkind;
  fn_ret : ty;
  fn_params : param list;
  fn_body : stmt list option;            (* None => prototype *)
  fn_tmpl : string list;                 (* template type parameters *)
  fn_launch_bounds : int option;         (* CUDA __launch_bounds__(n) *)
}
[@@deriving show { with_path = false }, eq]

type topdecl =
  | TFunc of func
  | TVar of decl
  | TStruct of string * (string * ty) list
  | TTypedef of string * ty
[@@deriving show { with_path = false }, eq]

type program = topdecl list [@@deriving show { with_path = false }, eq]

(* ------------------------------------------------------------------ *)
(* Convenience constructors and small queries used across the project  *)
(* ------------------------------------------------------------------ *)

let int_lit n = IntLit (Int64.of_int n, Int)
let tint = TScalar Int

let is_unsigned = function
  | UChar | UShort | UInt | ULong | ULongLong | Bool -> true
  | Void | Char | Short | Int | Long | LongLong | Float | Double -> false
  | SizeT -> true

let is_float_scalar = function
  | Float | Double -> true
  | _ -> false

(* Byte size of a scalar on the simulated 64-bit platform. *)
let scalar_size = function
  | Void -> 0
  | Bool | Char | UChar -> 1
  | Short | UShort -> 2
  | Int | UInt | Float -> 4
  | Long | ULong | LongLong | ULongLong | Double | SizeT -> 8

(* Strip qualifiers and const wrappers from a type. *)
let rec unqual = function
  | TQual (_, t) | TConst t -> unqual t
  | t -> t

(* The address space carried by the outermost qualifiers of a type;
   looks through arrays so that [__local int x[32]] places the array in
   local memory (but NOT through pointers: [__local int *p] is a private
   pointer to local data). *)
let rec type_space = function
  | TQual (sp, t) -> if sp = AS_none then type_space t else sp
  | TConst t | TArr (t, _) -> type_space t
  | _ -> AS_none

let rec strip_array = function
  | TArr (t, _) -> strip_array t
  | t -> t

let is_pointer t = match unqual t with TPtr _ -> true | _ -> false

let rec map_type f t =
  let t = f t in
  match t with
  | TPtr u -> TPtr (map_type f u)
  | TRef u -> TRef (map_type f u)
  | TArr (u, n) -> TArr (map_type f u, n)
  | TQual (sp, u) -> TQual (sp, map_type f u)
  | TConst u -> TConst (map_type f u)
  | TFun (r, args) -> TFun (map_type f r, List.map (map_type f) args)
  | TScalar _ | TVec _ | TNamed _ | TTexture _ | TImage _ | TSampler -> t

(* Generic expression rewriting: [f] is applied bottom-up. *)
let rec map_expr f e =
  let r = map_expr f in
  let e' =
    match e with
    | IntLit _ | FloatLit _ | StrLit _ | Ident _ | SizeofT _ -> e
    | Unary (op, a) -> Unary (op, r a)
    | Binary (op, a, b) -> Binary (op, r a, r b)
    | Assign (op, a, b) -> Assign (op, r a, r b)
    | Cond (c, a, b) -> Cond (r c, r a, r b)
    | Call (n, ts, args) -> Call (n, ts, List.map r args)
    | Index (a, i) -> Index (r a, r i)
    | Member (a, m) -> Member (r a, m)
    | Cast (t, a) -> Cast (t, r a)
    | StaticCast (t, a) -> StaticCast (t, r a)
    | ReinterpretCast (t, a) -> ReinterpretCast (t, r a)
    | SizeofE a -> SizeofE (r a)
    | VecLit (t, args) -> VecLit (t, List.map r args)
    | Launch l ->
      Launch { l with
               l_grid = r l.l_grid;
               l_block = r l.l_block;
               l_shmem = Option.map r l.l_shmem;
               l_stream = Option.map r l.l_stream;
               l_args = List.map r l.l_args }
  in
  f e'

let rec map_stmt ~expr ~stmt s =
  let rs = map_stmt ~expr ~stmt in
  let re = map_expr expr in
  let s' =
    match s with
    | SDecl d ->
      let rec map_init = function
        | IExpr e -> IExpr (re e)
        | IList l -> IList (List.map map_init l)
      in
      SDecl { d with d_init = Option.map map_init d.d_init }
    | SExpr e -> SExpr (re e)
    | SIf (c, a, b) -> SIf (re c, rs a, Option.map rs b)
    | SWhile (c, b) -> SWhile (re c, rs b)
    | SDoWhile (b, c) -> SDoWhile (rs b, re c)
    | SFor (i, c, u, b) ->
      SFor (Option.map rs i, Option.map re c, Option.map re u, rs b)
    | SReturn e -> SReturn (Option.map re e)
    | SBreak | SContinue -> s
    | SBlock l -> SBlock (List.map rs l)
    | SSite (id, s) -> SSite (id, rs s)
  in
  stmt s'

(* Fold over every expression in a statement, depth-first. *)
let rec fold_stmt_exprs f acc s =
  let fe acc e =
    let acc = ref acc in
    ignore (map_expr (fun e -> acc := f !acc e; e) e);
    !acc
  in
  match s with
  | SDecl { d_init; _ } ->
    let rec fold_init acc = function
      | IExpr e -> fe acc e
      | IList l -> List.fold_left fold_init acc l
    in
    (match d_init with None -> acc | Some i -> fold_init acc i)
  | SExpr e -> fe acc e
  | SIf (c, a, b) ->
    let acc = fe acc c in
    let acc = fold_stmt_exprs f acc a in
    (match b with None -> acc | Some b -> fold_stmt_exprs f acc b)
  | SWhile (c, b) -> fold_stmt_exprs f (fe acc c) b
  | SDoWhile (b, c) -> fe (fold_stmt_exprs f acc b) c
  | SFor (i, c, u, b) ->
    let acc = match i with None -> acc | Some i -> fold_stmt_exprs f acc i in
    let acc = match c with None -> acc | Some c -> fe acc c in
    let acc = match u with None -> acc | Some u -> fe acc u in
    fold_stmt_exprs f acc b
  | SReturn (Some e) -> fe acc e
  | SReturn None | SBreak | SContinue -> acc
  | SBlock l -> List.fold_left (fold_stmt_exprs f) acc l
  | SSite (_, s) -> fold_stmt_exprs f acc s

let fold_body_exprs f acc body = List.fold_left (fold_stmt_exprs f) acc body

(* All functions of a program, kernels only, etc. *)
let functions prog =
  List.filter_map (function TFunc f -> Some f | _ -> None) prog

let kernels prog =
  List.filter (fun f -> f.fn_kind = FK_kernel) (functions prog)

let find_function prog name =
  List.find_opt (fun f -> f.fn_name = name) (functions prog)

let structs prog =
  List.filter_map (function TStruct (n, fs) -> Some (n, fs) | _ -> None) prog
