(* Typed random Mini-C kernel generator.

   Every case is a single OpenCL kernel [k] plus (sometimes) a device
   helper, weighted toward the paper's §5 translation features: vector
   types with swizzles (.x/.lo/.hi/.even/.odd and multi-component
   assignment), address-space qualifiers (__global / static __local
   arrays / dynamic __local parameters), barriers, the work-item index
   built-ins, and atomics.

   Generated kernels are safe by construction so that every divergence
   the pyramid reports is a translator/backend bug, not undefined
   behaviour in the kernel:
     - every global-buffer index is masked with [& (elems - 1)] and
       [elems] is a power of two >= the global size;
     - work items write only their own cell (out[gid]) of writable
       buffers, so there are no cross-item data races; cross-item
       communication goes through __local phases separated by barriers
       or through atomics whose results are order-independent;
     - barriers appear only in uniform control flow (kernel top level or
       constant-trip-count loops);
     - division and modulo are by non-zero constants only;
     - loops have constant bounds. *)

open Minic.Ast

type case = {
  c_prog : program;    (* OpenCL-dialect device program with kernel [k] *)
  c_gws : int;
  c_lws : int;
  c_elems : int;       (* elements per buffer; power of two >= gws *)
  c_init_seed : int;   (* seeds the deterministic initial buffer bytes *)
}

let kernel_name = "k"

let source c = Minic.Pretty.program_str Minic.Pretty.OpenCL c.c_prog

(* ------------------------------------------------------------------ *)
(* Generator state                                                     *)
(* ------------------------------------------------------------------ *)

type env = {
  rng : Rng.t;
  lws : int;
  elems : int;
  mutable vars : (string * ty * bool) list;  (* name, type, assignable *)
  mutable fresh : int;
  ro_bufs : (string * ty) list;              (* read-only globals: name, elt *)
  has_aux : bool;
  has_scratch : bool;                        (* dynamic __local int* param *)
  helper : string option;                    (* name of the device helper *)
}

let fresh env prefix =
  env.fresh <- env.fresh + 1;
  Printf.sprintf "%s%d" prefix env.fresh

let add_var env name ty assignable = env.vars <- (name, ty, assignable) :: env.vars

let vars_of env ty =
  List.filter_map
    (fun (n, t, _) -> if equal_ty t ty then Some n else None)
    env.vars

let mut_vars env =
  List.filter_map (fun (n, t, m) -> if m then Some (n, t) else None) env.vars

let int_class = [ TScalar Int; TScalar UInt ]

let vec_tys =
  [ TVec (Int, 2); TVec (Int, 4); TVec (Float, 2); TVec (Float, 4); TVec (Double, 2) ]

(* ------------------------------------------------------------------ *)
(* Expressions                                                         *)
(* ------------------------------------------------------------------ *)

let idx_builtins =
  [ "get_global_id"; "get_local_id"; "get_group_id"; "get_local_size";
    "get_global_size"; "get_num_groups" ]

let mask_index env e = Binary (Band, e, int_lit (env.elems - 1))

let rec gen_expr env ty depth : expr =
  match ty with
  | TScalar (Int | UInt) -> gen_int env ty depth
  | TScalar ((Float | Double) as s) -> gen_real env s depth
  | TVec (s, w) -> gen_vec env s w depth
  | _ -> int_lit 1

and gen_int env ty depth =
  let s = match ty with TScalar s -> s | _ -> Int in
  let leaf () =
    match Rng.int env.rng 4 with
    | 0 ->
      if is_unsigned s then IntLit (Int64.of_int (Rng.range env.rng 0 100), s)
      else IntLit (Int64.of_int (Rng.range env.rng (-100) 100), Int)
    | 1 ->
      (match vars_of env ty with
       | [] -> int_lit (Rng.range env.rng 0 9)
       | vs -> Ident (Rng.pick env.rng vs))
    | 2 ->
      Call (Rng.pick env.rng idx_builtins, [], [ int_lit (Rng.int env.rng 3) ])
    | _ ->
      (match List.filter (fun (_, t) -> List.mem t int_class) env.ro_bufs with
       | [] -> int_lit (Rng.range env.rng 1 7)
       | bufs ->
         let b, _ = Rng.pick env.rng bufs in
         Index (Ident b, mask_index env (gen_int env (TScalar Int) 0)))
  in
  if depth <= 0 then leaf ()
  else
    match Rng.int env.rng 10 with
    | 0 | 1 ->
      let op = Rng.pick env.rng [ Add; Sub; Mul ] in
      Binary (op, gen_int env ty (depth - 1), gen_int env ty (depth - 1))
    | 2 ->
      let op = Rng.pick env.rng [ Band; Bor; Bxor ] in
      Binary (op, gen_int env ty (depth - 1), gen_int env ty (depth - 1))
    | 3 ->
      let op = Rng.pick env.rng [ Shl; Shr ] in
      Binary (op, gen_int env ty (depth - 1), int_lit (Rng.range env.rng 0 7))
    | 4 ->
      let op = Rng.pick env.rng [ Div; Mod ] in
      Binary (op, gen_int env ty (depth - 1), int_lit (Rng.range env.rng 1 9))
    | 5 ->
      let op = Rng.pick env.rng [ Lt; Gt; Le; Ge; Eq; Ne ] in
      Binary (op, gen_int env (TScalar Int) (depth - 1),
              gen_int env (TScalar Int) (depth - 1))
    | 6 ->
      Cond (gen_int env (TScalar Int) (depth - 1),
            gen_int env ty (depth - 1), gen_int env ty (depth - 1))
    | 7 -> Cast (ty, gen_real env (Rng.pick env.rng [ Float; Double ]) (depth - 1))
    | 8 ->
      (* a scalar component of an int vector variable *)
      (match pick_vec_var env Int with
       | Some (v, w) -> Member (Ident v, component env w)
       | None -> leaf ())
    | _ ->
      (match env.helper with
       | Some h when Rng.bool env.rng ->
         Call (h, [],
               [ gen_int env (TScalar Int) (depth - 1);
                 gen_int env (TScalar Int) (depth - 1) ])
       | _ -> leaf ())

and gen_float env depth = gen_real env Float depth

(* float or double expressions; operands mix in the other precision and
   ints, as C promotes them *)
and gen_real env s depth =
  let other = if s = Float then Double else Float in
  let leaf () =
    match Rng.int env.rng 3 with
    | 0 ->
      (* tenths: most are not exact in fp32, so a float literal carries
         a value its variable's store must round *)
      FloatLit (float_of_int (Rng.range env.rng (-40) 40) /. 10.0, s)
    | 1 ->
      (match vars_of env (TScalar s) with
       | [] -> FloatLit (1.5, s)
       | vs -> Ident (Rng.pick env.rng vs))
    | _ ->
      (match List.filter (fun (_, t) -> equal_ty t (TScalar s)) env.ro_bufs with
       | [] -> FloatLit (0.25, s)
       | bufs ->
         let b, _ = Rng.pick env.rng bufs in
         Index (Ident b, mask_index env (gen_int env (TScalar Int) 0)))
  in
  if depth <= 0 then leaf ()
  else
    match Rng.int env.rng 9 with
    | 0 | 1 ->
      let op = Rng.pick env.rng [ Add; Sub; Mul ] in
      Binary (op, gen_real env s (depth - 1), gen_real env s (depth - 1))
    | 2 ->
      Binary (Div, gen_real env s (depth - 1),
              FloatLit (float_of_int (Rng.pick env.rng [ 2; 4; 8; -2 ]), s))
    | 3 ->
      Cond (gen_int env (TScalar Int) (depth - 1), gen_real env s (depth - 1),
            gen_real env s (depth - 1))
    | 4 -> Cast (TScalar s, gen_int env (TScalar Int) (depth - 1))
    | 5 ->
      let op = Rng.pick env.rng [ Add; Sub; Mul ] in
      let mixed =
        if Rng.bool env.rng then gen_real env other (depth - 1)
        else gen_int env (TScalar Int) (depth - 1)
      in
      if Rng.bool env.rng then Binary (op, gen_real env s (depth - 1), mixed)
      else Binary (op, mixed, gen_real env s (depth - 1))
    | 6 -> Cast (TScalar s, gen_real env other (depth - 1))
    | _ ->
      (match pick_vec_var env s with
       | Some (v, w) -> Member (Ident v, component env w)
       | None -> leaf ())

and gen_vec env s w depth =
  let ty = TVec (s, w) in
  let scalar = TScalar s in
  let leaf () =
    match vars_of env ty with
    | vs when vs <> [] && Rng.chance env.rng 60 -> Ident (Rng.pick env.rng vs)
    | _ ->
      VecLit (ty, List.init w (fun _ -> gen_expr env scalar 0))
  in
  if depth <= 0 then leaf ()
  else
    match Rng.int env.rng 6 with
    | 0 | 1 ->
      let ops = if is_float_scalar s then [ Add; Sub; Mul ] else [ Add; Sub; Mul; Bxor; Band ] in
      Binary (Rng.pick env.rng ops, gen_vec env s w (depth - 1),
              gen_vec env s w (depth - 1))
    | 2 when w = 2 ->
      (* sub-vector selection from a 4-wide variable (§5: .lo/.hi/...) *)
      (match vars_of env (TVec (s, 4)) with
       | [] -> leaf ()
       | vs ->
         Member (Ident (Rng.pick env.rng vs),
                 Rng.pick env.rng [ "lo"; "hi"; "even"; "odd"; "xy"; "zw"; "yx" ]))
    | 3 ->
      VecLit (ty, List.init w (fun _ -> gen_expr env scalar (depth - 1)))
    | _ ->
      (match List.filter (fun (_, t) -> equal_ty t ty) env.ro_bufs with
       | [] -> leaf ()
       | bufs ->
         let b, _ = Rng.pick env.rng bufs in
         Index (Ident b, mask_index env (gen_int env (TScalar Int) 0)))

and pick_vec_var env s =
  let cands =
    List.filter_map
      (fun (n, t, _) ->
         match t with TVec (s', w) when s' = s -> Some (n, w) | _ -> None)
      env.vars
  in
  match cands with [] -> None | _ -> Some (Rng.pick env.rng cands)

and component env w =
  if w = 2 then Rng.pick env.rng [ "x"; "y"; "s0"; "s1" ]
  else Rng.pick env.rng [ "x"; "y"; "z"; "w"; "s0"; "s2"; "s3" ]

(* ------------------------------------------------------------------ *)
(* Statements                                                          *)
(* ------------------------------------------------------------------ *)

let decl name ty init =
  SDecl { d_name = name; d_ty = ty; d_storage = plain_storage;
          d_init = Some (IExpr init) }

let gen_decl env =
  let ty =
    if Rng.chance env.rng 35 then Rng.pick env.rng vec_tys
    else if Rng.chance env.rng 12 then TScalar UInt
    else if Rng.chance env.rng 40 then TScalar Float
    else if Rng.chance env.rng 20 then TScalar Double
    else TScalar Int
  in
  let name = fresh env "t" in
  let s = decl name ty (gen_expr env ty (Rng.range env.rng 1 3)) in
  add_var env name ty true;
  s

let atomic_stmt env =
  let fn =
    Rng.pick env.rng
      [ "atomic_add"; "atomic_sub"; "atomic_min"; "atomic_max";
        "atomic_inc"; "atomic_dec" ]
  in
  let target =
    Unary (Addrof, Index (Ident "aux", mask_index env (gen_int env (TScalar Int) 1)))
  in
  let args =
    match fn with
    | "atomic_inc" | "atomic_dec" -> [ target ]
    | _ -> [ target; gen_int env (TScalar Int) 1 ]
  in
  SExpr (Call (fn, [], args))

(* soup statements; never emits a barrier *)
let rec gen_stmt env ~depth : stmt =
  match Rng.int env.rng 9 with
  | 0 | 1 -> gen_decl env
  | 2 | 3 ->
    (match mut_vars env with
     | [] -> gen_decl env
     | muts ->
       let v, ty = Rng.pick env.rng muts in
       let rhs = gen_expr env ty (Rng.range env.rng 1 3) in
       let op =
         match ty with
         | TScalar (Float | Double) -> if Rng.chance env.rng 30 then Some Add else None
         | TScalar _ ->
           if Rng.chance env.rng 40 then
             Some (Rng.pick env.rng [ Add; Sub; Mul; Bxor ])
           else None
         | TVec _ -> if Rng.chance env.rng 25 then Some Add else None
         | _ -> None
       in
       SExpr (Assign (op, Ident v, rhs)))
  | 4 ->
    (* swizzle assignment, single- or multi-component (§5) *)
    (match
       List.filter_map
         (fun (n, t, m) -> match t with TVec (s, w) when m -> Some (n, s, w) | _ -> None)
         env.vars
     with
     | [] -> gen_stmt env ~depth
     | cands ->
       let v, s, w = Rng.pick env.rng cands in
       if w = 4 && Rng.bool env.rng then
         let sw = Rng.pick env.rng [ "xy"; "zw"; "wx"; "lo"; "hi"; "even"; "odd" ] in
         SExpr (Assign (None, Member (Ident v, sw), gen_vec env s 2 1))
       else
         let sw = Rng.pick env.rng (if w = 4 then [ "x"; "y"; "z"; "w" ] else [ "x"; "y" ]) in
         SExpr (Assign (None, Member (Ident v, sw), gen_expr env (TScalar s) 1)))
  | 5 when depth > 0 ->
    let cond = gen_int env (TScalar Int) 2 in
    let then_b = gen_block env ~depth:(depth - 1) (Rng.range env.rng 1 2) in
    let else_b =
      if Rng.bool env.rng then
        Some (gen_block env ~depth:(depth - 1) (Rng.range env.rng 1 2))
      else None
    in
    SIf (cond, then_b, else_b)
  | 6 when depth > 0 ->
    let i = fresh env "i" in
    let n = Rng.range env.rng 1 6 in
    (* the counter is scoped to the loop: visible in the body, gone after *)
    let saved = env.vars in
    add_var env i (TScalar Int) false;
    let body = gen_block env ~depth:(depth - 1) (Rng.range env.rng 1 3) in
    env.vars <- saved;
    SFor
      ( Some (decl i (TScalar Int) (int_lit 0)),
        Some (Binary (Lt, Ident i, int_lit n)),
        Some (Unary (Postinc, Ident i)),
        body )
  | 7 when depth > 0 && Rng.chance env.rng 30 ->
    SDoWhile (gen_block env ~depth:(depth - 1) 1, int_lit 0)
  | _ ->
    if env.has_aux && Rng.chance env.rng 60 then atomic_stmt env
    else gen_decl env

and gen_block env ~depth n =
  (* a C block is a scope: variables declared inside must not leak into
     the generator's environment, or later statements would reference
     out-of-scope names *)
  let saved = env.vars in
  let stmts = List.init n (fun _ -> gen_stmt env ~depth) in
  env.vars <- saved;
  SBlock stmts

(* A __local phase: write own slot, barrier, read any slot.  Uniform by
   construction (top level or constant-trip loop). *)
let local_phase env =
  let use_scratch = env.has_scratch && Rng.chance env.rng 60 in
  let elt = if use_scratch || Rng.chance env.rng 70 then Int else Float in
  let arr, intro =
    if use_scratch then ("scratch", [])  (* dynamic __local param *)
    else
      let name = fresh env "tile" in
      ( name,
        [ SDecl
            { d_name = name;
              d_ty = TArr (TScalar elt, Some env.lws);
              d_storage = space_storage AS_local;
              d_init = None } ] )
  in
  let barrier = SExpr (Call ("barrier", [], [ Ident "CLK_LOCAL_MEM_FENCE" ])) in
  let store v = SExpr (Assign (None, Index (Ident arr, Ident "lid"), v)) in
  let load () =
    Index (Ident arr, Binary (Band, gen_int env (TScalar Int) 1, int_lit (env.lws - 1)))
  in
  let acc = fresh env "red" in
  if Rng.chance env.rng 35 then
    (* phased loop: write, barrier, combine, barrier.  The accumulator's
       initializer is generated before [acc] enters scope so it cannot
       reference itself. *)
    let init = gen_expr env (TScalar elt) 0 in
    add_var env acc (TScalar elt) true;
    let i = fresh env "p" in
    let n = Rng.range env.rng 2 4 in
    intro
    @ [ decl acc (TScalar elt) init;
        SFor
          ( Some (decl i (TScalar Int) (int_lit 0)),
            Some (Binary (Lt, Ident i, int_lit n)),
            Some (Unary (Postinc, Ident i)),
            SBlock
              [ store
                  (Binary
                     ( (if elt = Int then Bxor else Add),
                       gen_expr env (TScalar elt) 1,
                       Cast (TScalar elt, Ident i) ));
                barrier;
                SExpr (Assign (Some Add, Ident acc, load ()));
                barrier ] ) ]
  else
    let stored = store (gen_expr env (TScalar elt) 2) in
    let ld = load () in
    add_var env acc (TScalar elt) true;
    intro @ [ stored; barrier; decl acc (TScalar elt) ld ]

(* ------------------------------------------------------------------ *)
(* Whole-case generation                                               *)
(* ------------------------------------------------------------------ *)

let gen_helper env =
  let name = "helper" in
  let body_env =
    { env with
      vars = [ ("a", TScalar Int, false); ("b", TScalar Int, false) ];
      ro_bufs = []; has_aux = false; has_scratch = false; helper = None }
  in
  let e1 = gen_int body_env (TScalar Int) 2 in
  let e2 = gen_int body_env (TScalar Int) 2 in
  { fn_name = name;
    fn_kind = FK_device;
    fn_ret = TScalar Int;
    fn_params =
      [ { pa_name = "a"; pa_ty = TScalar Int; pa_space = AS_none; pa_const = false };
        { pa_name = "b"; pa_ty = TScalar Int; pa_space = AS_none; pa_const = false } ];
    fn_body =
      Some
        [ SIf
            ( Binary (Gt, Ident "a", Ident "b"),
              SReturn (Some e1),
              None );
          SReturn (Some (Binary (Bxor, e2, Ident "b"))) ];
    fn_tmpl = [];
    fn_launch_bounds = None }

let gbuf name elt =
  { pa_name = name; pa_ty = TPtr elt; pa_space = AS_global; pa_const = false }

let generate rng : case =
  let lws = Rng.pick rng [ 4; 8; 16; 32 ] in
  let groups = Rng.pick rng [ 1; 2; 3; 4 ] in
  let gws = lws * groups in
  let elems =
    let rec pow2 n = if n >= gws then n else pow2 (2 * n) in
    pow2 16
  in
  let want_helper = Rng.chance rng 40 in
  let has_aux = Rng.chance rng 45 in
  let has_scratch = Rng.chance rng 30 in
  let vin_elt = Rng.pick rng vec_tys in
  let vout_elt = Rng.pick rng vec_tys in
  let has_fout = Rng.chance rng 75 in
  let has_vout = Rng.chance rng 45 in
  let has_inb = Rng.chance rng 85 in
  let has_finb = Rng.chance rng 60 in
  let has_vinb = Rng.chance rng 50 in
  let has_dinb = Rng.chance rng 30 in
  let has_dout = Rng.chance rng 30 in
  let ro_bufs =
    (if has_inb then [ ("inb", TScalar Int) ] else [])
    @ (if has_finb then [ ("finb", TScalar Float) ] else [])
    @ (if has_dinb then [ ("dinb", TScalar Double) ] else [])
    @ (if has_vinb then [ ("vinb", vin_elt) ] else [])
  in
  let env =
    { rng; lws; elems; vars = []; fresh = 0; ro_bufs; has_aux; has_scratch;
      helper = (if want_helper then Some "helper" else None) }
  in
  let helper_fn = if want_helper then Some (gen_helper env) else None in
  (* prelude *)
  add_var env "gid" (TScalar Int) false;
  add_var env "lid" (TScalar Int) false;
  let prelude =
    [ decl "gid" (TScalar Int) (Call ("get_global_id", [], [ int_lit 0 ]));
      decl "lid" (TScalar Int) (Call ("get_local_id", [], [ int_lit 0 ])) ]
    @ (if Rng.chance rng 50 then begin
         add_var env "grp" (TScalar Int) false;
         [ decl "grp" (TScalar Int) (Call ("get_group_id", [], [ int_lit 0 ])) ]
       end
       else [])
  in
  let decls = List.init (Rng.range rng 2 4) (fun _ -> gen_decl env) in
  let soup1 = List.init (Rng.range rng 1 5) (fun _ -> gen_stmt env ~depth:2) in
  let locals = if Rng.chance rng 60 then local_phase env else [] in
  let soup2 = List.init (Rng.range rng 0 3) (fun _ -> gen_stmt env ~depth:1) in
  (* epilogue: every item writes its own cell of each writable buffer *)
  let own b = Index (Ident b, Ident "gid") in
  let writes =
    [ SExpr (Assign (None, own "out",
                     Binary (Bxor, gen_int env (TScalar Int) 2,
                             gen_int env (TScalar Int) 1))) ]
    @ (if has_fout then
         [ SExpr (Assign (None, own "fout", gen_float env 2)) ]
       else [])
    @ (if has_dout then
         [ SExpr (Assign (None, own "dout", gen_real env Double 2)) ]
       else [])
    @
    (match vout_elt with
     | TVec (s, w) when has_vout ->
       [ SExpr (Assign (None, own "vout", gen_vec env s w 2)) ]
     | _ -> [])
  in
  let writes =
    if Rng.chance rng 40 then
      [ SIf (Binary (Lt, Ident "gid", Ident "n"), SBlock writes, None) ]
    else writes
  in
  let params =
    [ gbuf "out" (TScalar Int) ]
    @ (if has_fout then [ gbuf "fout" (TScalar Float) ] else [])
    @ (if has_dout then [ gbuf "dout" (TScalar Double) ] else [])
    @ (if has_vout then [ gbuf "vout" vout_elt ] else [])
    @ (if has_inb then [ gbuf "inb" (TScalar Int) ] else [])
    @ (if has_finb then [ gbuf "finb" (TScalar Float) ] else [])
    @ (if has_dinb then [ gbuf "dinb" (TScalar Double) ] else [])
    @ (if has_vinb then [ gbuf "vinb" vin_elt ] else [])
    @ (if has_aux then [ gbuf "aux" (TScalar Int) ] else [])
    @ (if has_scratch then
         [ { pa_name = "scratch"; pa_ty = TPtr (TScalar Int);
             pa_space = AS_local; pa_const = false } ]
       else [])
    @ [ { pa_name = "n"; pa_ty = TScalar Int; pa_space = AS_none; pa_const = false } ]
  in
  (* the dynamic __local parameter only matters if some phase uses it;
     local_phase picks "scratch" by name when present *)
  let kernel =
    { fn_name = kernel_name;
      fn_kind = FK_kernel;
      fn_ret = TScalar Void;
      fn_params = params;
      fn_body = Some (prelude @ decls @ soup1 @ locals @ soup2 @ writes);
      fn_tmpl = [];
      fn_launch_bounds = None }
  in
  let prog =
    (match helper_fn with Some f -> [ TFunc f ] | None -> []) @ [ TFunc kernel ]
  in
  { c_prog = prog; c_gws = gws; c_lws = lws; c_elems = elems;
    c_init_seed = Rng.int rng 1_000_000_000 }

(* ------------------------------------------------------------------ *)
(* Feature coverage (for bench / EXPERIMENTS reporting)                *)
(* ------------------------------------------------------------------ *)

type coverage = {
  mutable cov_vectors : int;
  mutable cov_swizzles : int;
  mutable cov_barriers : int;
  mutable cov_atomics : int;
  mutable cov_dyn_local : int;
  mutable cov_static_local : int;
  mutable cov_helpers : int;
}

let empty_coverage () =
  { cov_vectors = 0; cov_swizzles = 0; cov_barriers = 0; cov_atomics = 0;
    cov_dyn_local = 0; cov_static_local = 0; cov_helpers = 0 }

let observe cov (c : case) =
  let has_vec = ref false and has_sw = ref false and has_bar = ref false in
  let has_atomic = ref false and has_static_local = ref false in
  List.iter
    (function
      | TFunc f ->
        let on_expr e =
          (match e with
           | VecLit _ -> has_vec := true
           | Member (_, m)
             when List.mem m
                    [ "x"; "y"; "z"; "w"; "lo"; "hi"; "even"; "odd"; "xy";
                      "zw"; "yx"; "wx"; "s0"; "s1"; "s2"; "s3" ] ->
             has_sw := true
           | Call ("barrier", _, _) -> has_bar := true
           | Call (n, _, _) when String.length n > 7 && String.sub n 0 7 = "atomic_" ->
             has_atomic := true
           | _ -> ());
          e
        in
        let on_stmt s =
          (match s with
           | SDecl d ->
             (match d.d_ty with
              | TVec _ -> has_vec := true
              | TArr _ when d.d_storage.s_space = AS_local ->
                has_static_local := true
              | _ -> ())
           | _ -> ());
          s
        in
        List.iter
          (fun s -> ignore (map_stmt ~expr:on_expr ~stmt:on_stmt s))
          (Option.value f.fn_body ~default:[]);
        List.iter
          (fun pa ->
             match pa.pa_ty with
             | TVec _ -> has_vec := true
             | TPtr (TVec _) -> has_vec := true
             | _ -> ())
          f.fn_params
      | _ -> ())
    c.c_prog;
  let kernel = Option.get (find_function c.c_prog kernel_name) in
  if List.exists (fun pa -> pa.pa_space = AS_local) kernel.fn_params then
    cov.cov_dyn_local <- cov.cov_dyn_local + 1;
  if List.length c.c_prog > 1 then cov.cov_helpers <- cov.cov_helpers + 1;
  if !has_vec then cov.cov_vectors <- cov.cov_vectors + 1;
  if !has_sw then cov.cov_swizzles <- cov.cov_swizzles + 1;
  if !has_bar then cov.cov_barriers <- cov.cov_barriers + 1;
  if !has_atomic then cov.cov_atomics <- cov.cov_atomics + 1;
  if !has_static_local then cov.cov_static_local <- cov.cov_static_local + 1
