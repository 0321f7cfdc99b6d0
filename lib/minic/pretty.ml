(* Pretty-printer from the Mini-C AST back to source text.  The dialect
   selects the spelling of address-space and function qualifiers so the
   printed text is valid input for the corresponding toolchain (and for
   re-parsing in round-trip tests). *)

open Ast

type dialect = OpenCL | Cuda

let scalar_name = function
  | Void -> "void"
  | Bool -> "bool"
  | Char -> "char"
  | UChar -> "uchar"
  | Short -> "short"
  | UShort -> "ushort"
  | Int -> "int"
  | UInt -> "uint"
  | Long -> "long"
  | ULong -> "ulong"
  | LongLong -> "longlong"
  | ULongLong -> "ulonglong"
  | Float -> "float"
  | Double -> "double"
  | SizeT -> "size_t"

(* CUDA spells the unsigned integer types out; uchar4 etc. exist in both. *)
let scalar_name_cuda = function
  | UChar -> "unsigned char"
  | UShort -> "unsigned short"
  | UInt -> "unsigned int"
  | ULong -> "unsigned long"
  | LongLong -> "long long"
  | ULongLong -> "unsigned long long"
  | s -> scalar_name s

let space_name dialect = function
  | AS_private -> (match dialect with OpenCL -> "__private" | Cuda -> "")
  | AS_local -> (match dialect with OpenCL -> "__local" | Cuda -> "__shared__")
  | AS_global -> (match dialect with OpenCL -> "__global" | Cuda -> "__device__")
  | AS_constant -> (match dialect with OpenCL -> "__constant" | Cuda -> "__constant__")
  | AS_none -> ""

let rec type_name dialect t =
  match t with
  | TScalar s ->
    (match dialect with OpenCL -> scalar_name s | Cuda -> scalar_name_cuda s)
  | TVec (s, n) -> Printf.sprintf "%s%d" (scalar_name s) n
  | TPtr u -> type_name dialect u ^ "*"
  | TRef u -> type_name dialect u ^ "&"
  | TArr (u, _) -> type_name dialect u ^ "*"   (* decayed in abstract use *)
  | TNamed n -> n
  | TQual (sp, u) ->
    let q = space_name dialect sp in
    if q = "" then type_name dialect u else q ^ " " ^ type_name dialect u
  | TConst u -> "const " ^ type_name dialect u
  | TTexture (s, dim, mode) ->
    Printf.sprintf "texture<%s, %d, %s>" (scalar_name s) dim
      (match mode with
       | RM_element -> "cudaReadModeElementType"
       | RM_normalized_float -> "cudaReadModeNormalizedFloat")
  | TImage d -> Printf.sprintf "image%dd_t" d
  | TSampler -> "sampler_t"
  | TFun (r, args) ->
    Printf.sprintf "%s(*)(%s)" (type_name dialect r)
      (String.concat ", " (List.map (type_name dialect) args))

let binop_name = function
  | Add -> "+" | Sub -> "-" | Mul -> "*" | Div -> "/" | Mod -> "%"
  | Shl -> "<<" | Shr -> ">>"
  | Lt -> "<" | Gt -> ">" | Le -> "<=" | Ge -> ">=" | Eq -> "==" | Ne -> "!="
  | Band -> "&" | Bxor -> "^" | Bor -> "|"
  | Land -> "&&" | Lor -> "||"

let binop_prec = function
  | Lor -> 1 | Land -> 2 | Bor -> 3 | Bxor -> 4 | Band -> 5
  | Eq | Ne -> 6
  | Lt | Gt | Le | Ge -> 7
  | Shl | Shr -> 8
  | Add | Sub -> 9
  | Mul | Div | Mod -> 10

let float_repr f sc =
  let s =
    if Float.is_integer f && Float.abs f < 1e15 then
      Printf.sprintf "%.1f" f
    else
      Printf.sprintf "%.17g" f
  in
  match sc with Float -> s ^ "f" | _ -> s

let int_suffix = function
  | UInt -> "u"
  | Long -> "l"
  | ULong -> "ul"
  | LongLong -> "ll"
  | ULongLong -> "ull"
  | _ -> ""

let rec expr_str dialect ?(prec = 0) e =
  let s =
    match e with
    | IntLit (n, sc) -> Int64.to_string n ^ int_suffix sc
    | FloatLit (f, sc) -> float_repr f sc
    | StrLit s -> Printf.sprintf "%S" s
    | Ident n -> n
    | Unary (op, a) ->
      let sa = expr_str dialect ~prec:12 a in
      (match op with
       (* "-" before a string already starting with '-' would lex as a
          pre-decrement; keep the tokens apart *)
       | Neg when String.length sa > 0 && sa.[0] = '-' -> "-(" ^ sa ^ ")"
       | Neg -> "-" ^ sa
       | Lnot -> "!" ^ sa
       | Bnot -> "~" ^ sa
       | Deref -> "*" ^ sa
       | Addrof -> "&" ^ sa
       | Preinc -> "++" ^ sa
       | Predec -> "--" ^ sa
       | Postinc -> sa ^ "++"
       | Postdec -> sa ^ "--")
    | Binary (op, a, b) ->
      let pr = binop_prec op in
      Printf.sprintf "%s %s %s"
        (expr_str dialect ~prec:pr a)
        (binop_name op)
        (expr_str dialect ~prec:(pr + 1) b)
    | Assign (op, a, b) ->
      Printf.sprintf "%s %s= %s"
        (expr_str dialect ~prec:1 a)
        (match op with None -> "" | Some op -> binop_name op)
        (expr_str dialect b)
    | Cond (c, a, b) ->
      (* ?: is right-associative: a ternary used as the condition needs
         parentheses, one used as the else-branch does not *)
      Printf.sprintf "%s ? %s : %s"
        (expr_str dialect ~prec:3 c)
        (expr_str dialect a)
        (expr_str dialect b)
    | Call (n, [], args) ->
      Printf.sprintf "%s(%s)" n (args_str dialect args)
    | Call (n, tmpl, args) ->
      Printf.sprintf "%s<%s>(%s)" n
        (String.concat ", " (List.map (type_name dialect) tmpl))
        (args_str dialect args)
    | Index (a, i) ->
      Printf.sprintf "%s[%s]" (expr_str dialect ~prec:13 a) (expr_str dialect i)
    | Member (a, m) ->
      Printf.sprintf "%s.%s" (expr_str dialect ~prec:13 a) m
    | Cast (t, a) ->
      Printf.sprintf "(%s)%s" (type_name dialect t) (expr_str dialect ~prec:12 a)
    | StaticCast (t, a) ->
      Printf.sprintf "static_cast<%s>(%s)" (type_name dialect t) (expr_str dialect a)
    | ReinterpretCast (t, a) ->
      Printf.sprintf "reinterpret_cast<%s>(%s)" (type_name dialect t)
        (expr_str dialect a)
    | SizeofT t -> Printf.sprintf "sizeof(%s)" (type_name dialect t)
    | SizeofE a -> Printf.sprintf "sizeof(%s)" (expr_str dialect a)
    | VecLit (t, args) ->
      Printf.sprintf "(%s)(%s)" (type_name dialect t) (args_str dialect args)
    | Launch l ->
      let cfg =
        [ expr_str dialect l.l_grid; expr_str dialect l.l_block ]
        @ (match l.l_shmem with Some e -> [ expr_str dialect e ] | None -> [])
        @ (match l.l_stream with Some e -> [ expr_str dialect e ] | None -> [])
      in
      let tmpl =
        match l.l_tmpl with
        | [] -> ""
        | ts -> "<" ^ String.concat ", " (List.map (type_name dialect) ts) ^ ">"
      in
      Printf.sprintf "%s%s<<<%s>>>(%s)" l.l_kernel tmpl
        (String.concat ", " cfg) (args_str dialect l.l_args)
  in
  let self_prec =
    match e with
    | IntLit _ | FloatLit _ | StrLit _ | Ident _ | Call _ | VecLit _
    | SizeofT _ | SizeofE _ | StaticCast _ | ReinterpretCast _ | Launch _ -> 13
    | Index _ | Member _ -> 13
    | Unary ((Postinc | Postdec), _) -> 13
    | Unary _ | Cast _ -> 12
    | Binary (op, _, _) -> binop_prec op
    | Cond _ -> 2
    | Assign _ -> 1
  in
  if self_prec < prec then "(" ^ s ^ ")" else s

and args_str dialect args =
  String.concat ", " (List.map (expr_str dialect) args)

(* Declaration printing handles the C type/declarator split: arrays and
   pointers attach to the name. *)
let rec decl_str dialect name t =
  match t with
  | TArr (u, n) ->
    let dim = match n with None -> "[]" | Some n -> Printf.sprintf "[%d]" n in
    decl_str dialect (name ^ dim) u
  | TPtr u -> decl_str dialect ("*" ^ name) u
  | TRef u -> decl_str dialect ("&" ^ name) u
  | TQual (sp, u) ->
    (* space qualifier prints before the remaining type *)
    let q = space_name dialect sp in
    let inner = decl_str dialect name u in
    if q = "" then inner else q ^ " " ^ inner
  | TConst u -> "const " ^ decl_str dialect name u
  | t -> type_name dialect t ^ " " ^ name

let storage_prefix dialect st =
  String.concat ""
    [ (if st.s_extern then "extern " else "");
      (if st.s_static then "static " else "");
      (let q = space_name dialect st.s_space in if q = "" then "" else q ^ " ");
      (if st.s_volatile then "volatile " else "");
      (if st.s_const then "const " else "") ]

let rec init_str dialect = function
  | IExpr e -> expr_str dialect e
  | IList l -> "{" ^ String.concat ", " (List.map (init_str dialect) l) ^ "}"

let buf_add = Buffer.add_string

(* SSite attribution wrappers print as nothing: annotated ASTs print
   exactly like their plain form, so golden outputs and cache keys are
   insensitive to annotation. *)
let rec stmt_pp dialect buf indent s =
  let pad = String.make indent ' ' in
  match s with
  | SSite (_, s) -> stmt_pp dialect buf indent s
  | SDecl d ->
    buf_add buf pad;
    buf_add buf (storage_prefix dialect d.d_storage);
    (* dim3 constructor-style init prints as dim3 g(args) for CUDA *)
    (match d.d_init with
     | Some (IExpr (Call ("dim3", [], args))) when d.d_ty = TNamed "dim3" ->
       buf_add buf
         (Printf.sprintf "dim3 %s(%s);\n" d.d_name (args_str dialect args))
     | Some i ->
       buf_add buf (decl_str dialect d.d_name d.d_ty);
       buf_add buf (" = " ^ init_str dialect i ^ ";\n")
     | None ->
       buf_add buf (decl_str dialect d.d_name d.d_ty);
       buf_add buf ";\n")
  | SExpr e ->
    buf_add buf pad;
    buf_add buf (expr_str dialect e);
    buf_add buf ";\n"
  | SIf (c, a, b) ->
    buf_add buf (Printf.sprintf "%sif (%s) " pad (expr_str dialect c));
    block_pp dialect buf indent a;
    (match b with
     | None -> buf_add buf "\n"
     | Some b ->
       buf_add buf " else ";
       block_pp dialect buf indent b;
       buf_add buf "\n")
  | SWhile (c, b) ->
    buf_add buf (Printf.sprintf "%swhile (%s) " pad (expr_str dialect c));
    block_pp dialect buf indent b;
    buf_add buf "\n"
  | SDoWhile (b, c) ->
    buf_add buf (pad ^ "do ");
    block_pp dialect buf indent b;
    buf_add buf (Printf.sprintf " while (%s);\n" (expr_str dialect c))
  | SFor (init, cond, update, b) ->
    let init_s =
      match init with
      | None -> ""
      | Some (SDecl d) ->
        storage_prefix dialect d.d_storage
        ^ decl_str dialect d.d_name d.d_ty
        ^ (match d.d_init with
           | Some i -> " = " ^ init_str dialect i
           | None -> "")
      | Some (SExpr e) -> expr_str dialect e
      | Some _ -> ""
    in
    buf_add buf
      (Printf.sprintf "%sfor (%s; %s; %s) " pad init_s
         (match cond with None -> "" | Some c -> expr_str dialect c)
         (match update with None -> "" | Some u -> expr_str dialect u));
    block_pp dialect buf indent b;
    buf_add buf "\n"
  | SReturn None -> buf_add buf (pad ^ "return;\n")
  | SReturn (Some e) ->
    buf_add buf (Printf.sprintf "%sreturn %s;\n" pad (expr_str dialect e))
  | SBreak -> buf_add buf (pad ^ "break;\n")
  | SContinue -> buf_add buf (pad ^ "continue;\n")
  | SBlock l ->
    buf_add buf (pad ^ "{\n");
    List.iter (stmt_pp dialect buf (indent + 2)) l;
    buf_add buf (pad ^ "}\n")

and block_pp dialect buf indent s =
  (* inline block without trailing newline, for if/while headers *)
  match s with
  | SSite (_, s) -> block_pp dialect buf indent s
  | SBlock l ->
    buf_add buf "{\n";
    List.iter (stmt_pp dialect buf (indent + 2)) l;
    buf_add buf (String.make indent ' ' ^ "}")
  | s ->
    let b = Buffer.create 64 in
    stmt_pp dialect b (indent + 2) s;
    buf_add buf "{\n";
    buf_add buf (Buffer.contents b);
    buf_add buf (String.make indent ' ' ^ "}")

let param_str dialect pa =
  let q = space_name dialect pa.pa_space in
  String.concat ""
    [ (if q = "" then "" else q ^ " ");
      (if pa.pa_const then "const " else "");
      decl_str dialect pa.pa_name pa.pa_ty ]

let fkind_prefix dialect = function
  | FK_kernel -> (match dialect with OpenCL -> "__kernel " | Cuda -> "__global__ ")
  | FK_device -> (match dialect with OpenCL -> "" | Cuda -> "__device__ ")
  | FK_host -> ""
  | FK_host_device -> (match dialect with OpenCL -> "" | Cuda -> "__host__ __device__ ")

let func_pp dialect buf f =
  (match f.fn_tmpl with
   | [] -> ()
   | ts ->
     buf_add buf
       (Printf.sprintf "template <%s>\n"
          (String.concat ", " (List.map (fun t -> "typename " ^ t) ts))));
  buf_add buf (fkind_prefix dialect f.fn_kind);
  (match f.fn_launch_bounds with
   | Some n -> buf_add buf (Printf.sprintf "__launch_bounds__(%d) " n)
   | None -> ());
  buf_add buf (type_name dialect f.fn_ret);
  buf_add buf (" " ^ f.fn_name ^ "(");
  buf_add buf (String.concat ", " (List.map (param_str dialect) f.fn_params));
  (match f.fn_body with
   | None -> buf_add buf ");\n"
   | Some body ->
     buf_add buf ") {\n";
     List.iter (stmt_pp dialect buf 2) body;
     buf_add buf "}\n")

let topdecl_pp dialect buf = function
  | TFunc f -> func_pp dialect buf f
  | TVar d ->
    buf_add buf (storage_prefix dialect d.d_storage);
    buf_add buf (decl_str dialect d.d_name d.d_ty);
    (match d.d_init with
     | Some i -> buf_add buf (" = " ^ init_str dialect i)
     | None -> ());
    buf_add buf ";\n"
  | TStruct (n, fs) ->
    buf_add buf (Printf.sprintf "typedef struct {\n");
    List.iter
      (fun (fn, ft) ->
         buf_add buf ("  " ^ decl_str dialect fn ft ^ ";\n"))
      fs;
    buf_add buf (Printf.sprintf "} %s;\n" n)
  | TTypedef (n, t) ->
    buf_add buf (Printf.sprintf "typedef %s;\n" (decl_str dialect n t))

let program_str dialect prog =
  let buf = Buffer.create 1024 in
  List.iteri
    (fun i td ->
       if i > 0 then buf_add buf "\n";
       topdecl_pp dialect buf td)
    prog;
  Buffer.contents buf

let stmt_str dialect s =
  let buf = Buffer.create 128 in
  stmt_pp dialect buf 0 s;
  Buffer.contents buf
