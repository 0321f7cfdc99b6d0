(* The middle-end pass pipeline.

   One forward walker implements constant/copy propagation, folding,
   CSE and strength reduction together (they share the same value
   bookkeeping); loop-invariant hoisting and dead-code elimination run
   as separate phases; redundant-barrier elimination just filters the
   instructions the lowering's dataflow analysis already proved safe.

   Counter accounting: a pass that deletes work the emitted closures
   would have charged leaves an [Elim n] marker carrying the same
   source site.  The emitter (in attribution mode) forwards those to
   `on_elim`, so per-site `ops + ops_eliminated` always equals the
   unoptimized per-site `ops` — the exact-sum invariant the attribution
   tests rely on.  Charge-free work (register moves, casts, swizzles,
   the NDRange query externals) is deleted without a marker, and
   eliminated barriers deliberately lower the `barriers` counter: an
   optimization that removes synchronization *should* be visible there.

   Soundness notes the code leans on:
   - promoted variables have no address, and value-table keys are pure
     rhs only, so stores never invalidate either map;
   - Let registers are single-assignment, so a rename is valid wherever
     the renamed register dominates — joins filter entries produced on
     only one path, and loop regions are each walked from the loop-entry
     environment (a `continue` may skip any suffix of the body);
   - variable reads are keyed by a monotonically bumped version, so a
     write simply strands the stale table entries. *)

open Minic.Ast
module I = Vm.Interp
module V = Vm.Value

type stats = {
  mutable st_folded : int;
  mutable st_cse : int;
  mutable st_strength : int;
  mutable st_licm : int;
  mutable st_dce : int;
  mutable st_barriers : int;
}

let stats_zero () =
  { st_folded = 0; st_cse = 0; st_strength = 0; st_licm = 0; st_dce = 0;
    st_barriers = 0 }

let stats_list s =
  [ ("fold", s.st_folded); ("cse", s.st_cse); ("strength", s.st_strength);
    ("licm", s.st_licm); ("dce", s.st_dce); ("barrier", s.st_barriers) ]

(* ------------------------------------------------------------------ *)
(* Environment                                                         *)
(* ------------------------------------------------------------------ *)

type key = KRhs of Core.rhs | KVar of int * int

module KMap = Map.Make (struct
    type t = key

    let compare = compare
  end)

module IMap = Map.Make (Int)

type env = {
  vals : Core.operand KMap.t; (* canonical rhs -> existing register *)
  vars : Core.operand IMap.t; (* variable register -> known value *)
}

let env0 = { vals = KMap.empty; vars = IMap.empty }

let join_envs a b =
  { vals =
      KMap.merge
        (fun _ x y ->
           match (x, y) with Some x, Some y when x = y -> Some x | _ -> None)
        a.vals b.vals;
    vars =
      IMap.merge
        (fun _ x y ->
           match (x, y) with Some x, Some y when x = y -> Some x | _ -> None)
        a.vars b.vars }

type pst = {
  cfg : Pipeline.config;
  fold_ctx : I.ctx;
  stats : stats;
  rename : Core.operand option array;
  is_var : bool array;
  version : int array;
  mutable vclock : int;
  (* static type of the tval a register will hold at runtime, when the
     emitter's construction fixes it exactly; used by strength reduction
     and SetReg forwarding *)
  ety : ty option array;
  (* registers that may hold a narrow int outside its type's range:
     negation and complement do not wrap (nor do the interpreter's), and
     copies and component selects carry such a value on *)
  wild : bool array;
}

let bump p r =
  p.vclock <- p.vclock + 1;
  p.version.(r) <- p.vclock

let canon_op p = function
  | Core.Reg r as o ->
    (match p.rename.(r) with Some o' -> o' | None -> o)
  | o -> o

let canon_lv p lv =
  let rec go = function
    | (Core.LvVar _ | Core.LvFree _) as l -> l
    | Core.LvIdx (a, b, t, z) -> Core.LvIdx (canon_op p a, canon_op p b, t, z)
    | Core.LvIdxDyn (a, b, l) ->
      Core.LvIdxDyn (canon_op p a, canon_op p b, Option.map go l)
    | Core.LvDeref a -> Core.LvDeref (canon_op p a)
    | Core.LvSwz (l, idx, s) -> Core.LvSwz (go l, idx, s)
  in
  go lv

let canon_rhs p (r : Core.rhs) : Core.rhs =
  let c = canon_op p in
  match r with
  | Core.Bin (op, a, b) -> Core.Bin (op, c a, c b)
  | Core.Un (u, a) -> Core.Un (u, c a)
  | Core.CastV (t, a) -> Core.CastV (t, c a)
  | Core.CastRet (t, a) -> Core.CastRet (t, c a)
  | Core.Mov a -> Core.Mov (c a)
  | Core.ReadLv l -> Core.ReadLv (canon_lv p l)
  | Core.AddrofLv l -> Core.AddrofLv (canon_lv p l)
  | Core.Swz (a, m, pre) -> Core.Swz (c a, m, pre)
  | Core.Vecc (t, l) -> Core.Vecc (t, List.map c l)
  | Core.Special _ | Core.Free _ | Core.StrP _ -> r
  | Core.CallE (n, l) -> Core.CallE (n, List.map c l)
  | Core.CallU (n, l) -> Core.CallU (n, List.map c l)
  | Core.CallK (n, t, sh, l) -> Core.CallK (n, t, sh, List.map c l)

(* ------------------------------------------------------------------ *)
(* Static result types                                                 *)
(* ------------------------------------------------------------------ *)

let op_ety p = function
  | Core.Cst c -> Some c.I.ty
  | Core.Reg r -> p.ety.(r)

(* Mirrors Emit.fast_binop's result types; anything it hands to the
   generic Interp.binop is reported unknown. *)
let bin_ety op a b =
  let cmp =
    match op with
    | Lt | Gt | Le | Ge | Eq | Ne -> true
    | _ -> false
  in
  match (op, a, b) with
  | (Div | Mod), _, _ -> None (* generic path *)
  | _, Some (TScalar Int), Some (TScalar Int) ->
    Some (TScalar Int)
  | _, Some (TScalar UInt), Some (TScalar UInt) ->
    Some (TScalar (if cmp then Int else UInt))
  | _, Some (TScalar Float), Some (TScalar Float) ->
    Some (TScalar (if cmp then Int else Float))
  | _ -> None

let op_wild p = function
  | Core.Cst _ -> false
  | Core.Reg r -> p.wild.(r)

let rhs_wild p = function
  | Core.Un ((UNeg | UBnot), a) ->
    (match op_ety p a with
     | Some (TScalar s | TVec (s, _)) ->
       (not (is_float_scalar s)) && scalar_size s < 8
     | _ -> false)
  | Core.Mov a | Core.CastRet (_, a) | Core.Swz (a, _, _) -> op_wild p a
  | _ -> false

let rhs_ety p = function
  | Core.Mov a -> op_ety p a
  | Core.Bin (op, a, b) -> bin_ety op (op_ety p a) (op_ety p b)
  | Core.Un (UNeg, a) -> op_ety p a
  | Core.Un (UBnot, a) -> op_ety p a
  | Core.Un ((ULnot | UBool), _) -> Some (TScalar Int)
  | Core.CastV (t, _) | Core.CastRet (t, _) | Core.Vecc (t, _) -> Some t
  | Core.Swz (_, _, Some (s, _, _)) -> Some (TScalar s)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Folding helpers (counter-free mirrors of the backend's evaluation)   *)
(* ------------------------------------------------------------------ *)

let fold_un ctx (u : Core.un1) (x : I.tval) : I.tval option =
  match u with
  | Core.UNeg -> Some (I.unop ctx Neg x)
  | Core.ULnot ->
    (match x.I.v with
     | V.VUnit -> None
     | v -> Some (I.tv (V.of_bool (not (V.to_bool v))) (TScalar Int)))
  | Core.UBnot ->
    (* mirror applies to_int; fold only the plain-int case *)
    (match x.I.v with
     | V.VInt _ -> Some (I.unop ctx Bnot x)
     | _ -> None)
  | Core.UBool ->
    (match x.I.v with
     | V.VUnit -> None
     | v -> Some (I.tv (V.of_bool (V.to_bool v)) (TScalar Int)))

let try_fold p (rhs : Core.rhs) : I.tval option =
  let ctx = p.fold_ctx in
  match rhs with
  | Core.Bin (op, Core.Cst a, Core.Cst b) ->
    (try Some (I.binop ctx op a b) with _ -> None)
  | Core.Un (u, Core.Cst a) -> (try fold_un ctx u a with _ -> None)
  | Core.CastV (t, Core.Cst a) ->
    (try Some (I.cast_value ctx t a) with _ -> None)
  | Core.CastRet (t, Core.Cst a) ->
    if equal_ty a.I.ty t then Some a
    else (try Some (I.cast_value ctx t a) with _ -> None)
  | _ -> None

let is_pow2 n = Int64.compare n 0L > 0 && Int64.logand n (Int64.sub n 1L) = 0L

let log2_64 n =
  let rec go k v = if v <= 1L then k else go (k + 1) (Int64.shift_right_logical v 1) in
  go 0 n

(* x / 2^k and x % 2^k on a value statically known to be a wrapped
   unsigned int: exact as shift / mask.  Signed operands are never
   reduced (rounding toward zero differs on negatives). *)
let strength_reduce p (rhs : Core.rhs) : Core.rhs option =
  match rhs with
  | Core.Bin ((Div | Mod) as op, x, Core.Cst { I.v = V.VInt k; _ })
    when is_pow2 k ->
    (match op_ety p x with
     | Some (TScalar UInt) ->
       let kc v = Core.Cst (I.tv (V.VInt v) (TScalar UInt)) in
       if op = Div then
         Some (Core.Bin (Shr, x, kc (Int64.of_int (log2_64 k))))
       else Some (Core.Bin (Band, x, kc (Int64.sub k 1L)))
     | _ -> None)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* The combined fold / copy-prop / CSE / strength walker               *)
(* ------------------------------------------------------------------ *)

let elim site n = Core.Ins { Core.i_site = site; i_kind = Core.Elim n }

let rec walk_body p env (b : Core.body) : env * Core.body =
  let out = ref [] in
  let env = List.fold_left (fun env n -> walk_node p env out n) env b in
  (env, List.rev !out)

and walk_node p env out (n : Core.node) : env =
  match n with
  | Core.Ins i -> walk_ins p env out i
  | Core.If (site, c, a, b) ->
    let c = canon_op p c in
    let folded =
      if p.cfg.Pipeline.fold then
        match c with
        | Core.Cst cv ->
          (try Some (V.to_bool cv.I.v) with _ -> None)
        | _ -> None
      else None
    in
    (match folded with
     | Some taken ->
       p.stats.st_folded <- p.stats.st_folded + 1;
       out := elim site 1 :: !out;
       let arm = if taken then a else b in
       List.fold_left (fun env n -> walk_node p env out n) env arm
     | None ->
       let ea, a' = walk_body p env a in
       let eb, b' = walk_body p env b in
       out := Core.If (site, c, a', b') :: !out;
       join_envs ea eb)
  | Core.Loop l ->
    let env, init' = walk_body p env l.Core.l_init in
    let env, pre' = walk_body p env l.Core.l_pre in
    (* invalidate loop-carried variables before walking any region; each
       region starts from the loop-entry environment because `continue`
       can skip any suffix of the body *)
    let stores = ref [] in
    let regions =
      (match l.Core.l_cond with Some (cb, _) -> [ cb ] | None -> [])
      @ [ l.Core.l_body; l.Core.l_update ]
    in
    List.iter
      (fun r ->
         Core.body_defs ~lets:(fun _ -> ()) ~sets:(fun v -> stores := v :: !stores) r)
      regions;
    let env =
      List.fold_left
        (fun env v ->
           bump p v;
           { env with vars = IMap.remove v env.vars })
        env !stores
    in
    let cond' =
      match l.Core.l_cond with
      | None -> None
      | Some (cb, co) ->
        let _, cb' = walk_body p env cb in
        Some (cb', canon_op p co)
    in
    let _, body' = walk_body p env l.Core.l_body in
    let _, update' = walk_body p env l.Core.l_update in
    out :=
      Core.Loop
        { l with Core.l_init = init'; l_pre = pre'; l_cond = cond';
                 l_body = body'; l_update = update' }
      :: !out;
    (* values set in the loop are already invalidated; entries added in
       the regions were discarded with their environments *)
    env
  | Core.Return o ->
    out := Core.Return (Option.map (canon_op p) o) :: !out;
    env
  | Core.Break ->
    out := Core.Break :: !out;
    env
  | Core.Continue ->
    out := Core.Continue :: !out;
    env

and walk_ins p env out (i : Core.instr) : env =
  let site = i.Core.i_site in
  let keep k env =
    out := Core.Ins { i with Core.i_kind = k } :: !out;
    env
  in
  match i.Core.i_kind with
  | Core.Let (r, rhs0) ->
    let rhs = canon_rhs p rhs0 in
    (* the static facts of the register a kept Let defines *)
    let set_static ety =
      p.ety.(r) <- ety;
      p.wild.(r) <- rhs_wild p rhs
    in
    (match rhs with
     | Core.Mov ((Core.Cst _ as o)) when p.cfg.Pipeline.fold ->
       p.rename.(r) <- Some o;
       env
     | Core.Mov (Core.Reg s) when p.cfg.Pipeline.fold && not p.is_var.(s) ->
       p.rename.(r) <- Some (Core.Reg s);
       env
     | Core.Mov (Core.Reg v) when p.cfg.Pipeline.fold && p.is_var.(v) ->
       (match IMap.find_opt v env.vars with
        | Some o ->
          p.rename.(r) <- Some o;
          env
        | None ->
          let k = KVar (v, p.version.(v)) in
          (match KMap.find_opt k env.vals with
           | Some o ->
             p.rename.(r) <- Some o;
             env
           | None ->
             set_static (rhs_ety p rhs);
             keep (Core.Let (r, rhs))
               { env with vals = KMap.add k (Core.Reg r) env.vals }))
     | _ ->
       let folded =
         if p.cfg.Pipeline.fold then try_fold p rhs else None
       in
       (match folded with
        | Some v ->
          p.rename.(r) <- Some (Core.Cst v);
          p.stats.st_folded <- p.stats.st_folded + 1;
          (match Core.rhs_charge rhs with
           | Some c when c > 0 -> out := elim site c :: !out
           | _ -> ());
          env
        | None ->
          let rhs =
            if p.cfg.Pipeline.strength then
              match strength_reduce p rhs with
              | Some rhs' ->
                p.stats.st_strength <- p.stats.st_strength + 1;
                rhs'
              | None -> rhs
            else rhs
          in
          set_static (rhs_ety p rhs);
          if
            p.cfg.Pipeline.cse && Core.rhs_pure rhs
            && (match rhs with Core.Mov _ -> false | _ -> true)
          then begin
            let k = KRhs rhs in
            match KMap.find_opt k env.vals with
            | Some o ->
              p.rename.(r) <- Some o;
              p.stats.st_cse <- p.stats.st_cse + 1;
              (match Core.rhs_charge rhs with
               | Some c when c > 0 -> out := elim site c :: !out
               | _ -> ());
              env
            | None ->
              keep (Core.Let (r, rhs))
                { env with vals = KMap.add k (Core.Reg r) env.vals }
          end
          else keep (Core.Let (r, rhs)) env))
  | Core.SetReg (r, ty, o) ->
    let o = canon_op p o in
    bump p r;
    let vars =
      (* forward only when the declared type matches the operand's
         static type exactly, and the operand is not wild: a register of
         that type then holds a normalized value.  A constant need not
         (a float literal carries its double value, an int literal its
         64-bit one), so it is forwarded converted, as the store
         converts it *)
      match op_ety p o with
      | Some t when t = ty && not (op_wild p o) ->
        let o =
          match o with
          | Core.Cst c -> Core.Cst (Core.normalizer p.fold_ctx.I.layout ty c)
          | o -> o
        in
        IMap.add r o env.vars
      | _ -> IMap.remove r env.vars
    in
    keep (Core.SetReg (r, ty, o)) { env with vars }
  | Core.SetRaw (r, o) ->
    let o = canon_op p o in
    bump p r;
    keep (Core.SetRaw (r, o)) { env with vars = IMap.add r o env.vars }
  | Core.Store (lv, o) ->
    keep (Core.Store (canon_lv p lv, canon_op p o)) env
  | Core.StoreElt (v, off, t, o) ->
    keep (Core.StoreElt (v, off, t, canon_op p o)) env
  | Core.Do rhs -> keep (Core.Do (canon_rhs p rhs)) env
  | Core.Barrier (nm, args, rm) ->
    keep (Core.Barrier (nm, List.map (canon_op p) args, rm)) env
  | (Core.DeclMem _ | Core.ZeroFill _ | Core.Elim _) as k -> keep k env

(* ------------------------------------------------------------------ *)
(* Loop-invariant code motion                                          *)
(* ------------------------------------------------------------------ *)

(* Hoist top-level pure, non-trapping, known-charge Lets whose operands
   are defined outside the loop into the preheader.  Charge accounting
   uses a +/- pair: the original position keeps an [Elim c] (charged
   once per iteration, like the work it replaces), the hoisted copy is
   followed by [Elim (-c)] (executed once) — so eliminated-ops sums
   remain exact for any trip count, including zero. *)
let licm_fn (st : stats) (fn : Core.fn) : Core.fn =
  let nregs = fn.Core.f_nregs in
  let rec loop_pass (l : Core.loop) : Core.loop * bool =
    (* innermost first *)
    let body, c1 = hoist_nested l.Core.l_body in
    let update, c2 = hoist_nested l.Core.l_update in
    let cond, c3 =
      match l.Core.l_cond with
      | None -> (None, false)
      | Some (cb, co) ->
        let cb, c = hoist_nested cb in
        (Some (cb, co), c)
    in
    let l = { l with Core.l_body = body; l_update = update; l_cond = cond } in
    let inside = Array.make (max nregs 1) false in
    let regions =
      l.Core.l_body :: l.Core.l_update
      :: (match l.Core.l_cond with Some (cb, _) -> [ cb ] | None -> [])
    in
    List.iter
      (fun r ->
         Core.body_defs ~lets:(fun x -> inside.(x) <- true)
           ~sets:(fun x -> inside.(x) <- true) r)
      regions;
    let outside = function
      | Core.Cst _ -> true
      | Core.Reg r -> not inside.(r)
    in
    let hoisted = ref [] in
    let changed = ref false in
    let sweep body =
      List.map
        (fun n ->
           match n with
           | Core.Ins ({ Core.i_kind = Core.Let (r, rhs); i_site } as i)
             when Core.rhs_pure rhs
                  && (not (Core.rhs_trapping rhs))
                  && Core.rhs_charge rhs <> None
                  && List.for_all outside (Core.rhs_operands rhs) ->
             let c = Option.get (Core.rhs_charge rhs) in
             changed := true;
             inside.(r) <- false;
             st.st_licm <- st.st_licm + 1;
             hoisted := Core.Ins i :: !hoisted;
             if c > 0 then begin
               hoisted := elim i_site (-c) :: !hoisted;
               elim i_site c
             end
             else
               (* charge-free: replace with nothing-equivalent marker *)
               elim i_site 0
           | n -> n)
        body
    in
    let body = sweep l.Core.l_body in
    let update = sweep l.Core.l_update in
    let cond =
      match l.Core.l_cond with
      | None -> None
      | Some (cb, co) -> Some (sweep cb, co)
    in
    let l =
      { l with
        Core.l_pre = l.Core.l_pre @ List.rev !hoisted;
        l_body = body; l_update = update; l_cond = cond }
    in
    (l, !changed || c1 || c2 || c3)
  and hoist_nested (b : Core.body) : Core.body * bool =
    let changed = ref false in
    let b =
      List.map
        (function
          | Core.Loop l ->
            let rec fix l =
              let l, c = loop_pass l in
              if c then begin
                changed := true;
                fix l
              end
              else l
            in
            Core.Loop (fix l)
          | Core.If (s, c, a, bb) ->
            let a, ca = hoist_nested a in
            let bb, cb = hoist_nested bb in
            if ca || cb then changed := true;
            Core.If (s, c, a, bb)
          | n -> n)
        b
    in
    (b, !changed)
  in
  let body, _ = hoist_nested fn.Core.f_body in
  { fn with Core.f_body = body }

(* ------------------------------------------------------------------ *)
(* Dead-code elimination                                               *)
(* ------------------------------------------------------------------ *)

let dce_fn (st : stats) (fn : Core.fn) : Core.fn =
  let nregs = max fn.Core.f_nregs 1 in
  let changed = ref true in
  let body = ref fn.Core.f_body in
  while !changed do
    changed := false;
    let used = Array.make nregs false in
    Core.body_uses (fun r -> used.(r) <- true) !body;
    let rec clean_body b =
      (* drop everything after a terminator: never executed on any path *)
      let rec cut = function
        | [] -> []
        | ((Core.Return _ | Core.Break | Core.Continue) as n) :: rest ->
          if rest <> [] then changed := true;
          [ n ]
        | n :: rest -> n :: cut rest
      in
      List.filter_map clean_node (cut b)
    and clean_node n =
      match n with
      | Core.Ins { Core.i_kind = Core.Let (r, rhs); i_site }
        when (not used.(r))
             && Core.rhs_pure rhs
             && not (Core.rhs_trapping rhs) ->
        changed := true;
        st.st_dce <- st.st_dce + 1;
        (match Core.rhs_charge rhs with
         | Some c when c > 0 -> Some (elim i_site c)
         | _ -> None)
      | Core.Ins { Core.i_kind = Core.SetReg (r, _, _) | Core.SetRaw (r, _); _ }
        when not used.(r) ->
        changed := true;
        st.st_dce <- st.st_dce + 1;
        None
      | Core.Ins { Core.i_kind = Core.Elim 0; _ } -> None
      | Core.Ins _ -> Some n
      | Core.If (s, c, a, b) -> Some (Core.If (s, c, clean_body a, clean_body b))
      | Core.Loop l ->
        Some
          (Core.Loop
             { l with
               Core.l_init = clean_body l.Core.l_init;
               l_pre = clean_body l.Core.l_pre;
               l_cond =
                 (match l.Core.l_cond with
                  | Some (cb, co) -> Some (clean_body cb, co)
                  | None -> None);
               l_body = clean_body l.Core.l_body;
               l_update = clean_body l.Core.l_update })
      | n -> Some n
    in
    body := clean_body !body
  done;
  { fn with Core.f_body = !body }

(* ------------------------------------------------------------------ *)
(* Barrier elimination                                                 *)
(* ------------------------------------------------------------------ *)

let barrier_fn (st : stats) (fn : Core.fn) : Core.fn =
  let rec clean_body b = List.filter_map clean_node b
  and clean_node n =
    match n with
    | Core.Ins { Core.i_kind = Core.Barrier (_, _, true); _ } ->
      st.st_barriers <- st.st_barriers + 1;
      None
    | Core.Ins _ -> Some n
    | Core.If (s, c, a, bb) -> Some (Core.If (s, c, clean_body a, clean_body bb))
    | Core.Loop l ->
      Some
        (Core.Loop
           { l with
             Core.l_init = clean_body l.Core.l_init;
             l_pre = clean_body l.Core.l_pre;
             l_cond =
               (match l.Core.l_cond with
                | Some (cb, co) -> Some (clean_body cb, co)
                | None -> None);
             l_body = clean_body l.Core.l_body;
             l_update = clean_body l.Core.l_update })
    | n -> Some n
  in
  { fn with Core.f_body = clean_body fn.Core.f_body }

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

let fold_round (cfg : Pipeline.config) fold_ctx stats (fn : Core.fn) : Core.fn
  =
  let nregs = max fn.Core.f_nregs 1 in
  let p =
    { cfg; fold_ctx; stats;
      rename = Array.make nregs None;
      is_var = Array.make nregs false;
      version = Array.make nregs 0;
      vclock = 0;
      ety = Array.make nregs None;
      wild = Array.make nregs false }
  in
  Core.body_defs ~lets:(fun _ -> ()) ~sets:(fun r -> p.is_var.(r) <- true)
    fn.Core.f_body;
  Array.iter
    (fun (pb : Core.pbind) -> p.ety.(pb.Core.p_reg) <- Some pb.Core.p_ty)
    fn.Core.f_params;
  (* variable registers hold values normalized to their declared type *)
  let rec scan_b b = List.iter scan_n b
  and scan_n = function
    | Core.Ins { Core.i_kind = Core.SetReg (r, ty, _); _ } ->
      if p.ety.(r) = None then p.ety.(r) <- Some ty
    | Core.Ins _ | Core.Return _ | Core.Break | Core.Continue -> ()
    | Core.If (_, _, a, b) ->
      scan_b a;
      scan_b b
    | Core.Loop l ->
      scan_b l.Core.l_init;
      scan_b l.Core.l_pre;
      (match l.Core.l_cond with Some (cb, _) -> scan_b cb | None -> ());
      scan_b l.Core.l_body;
      scan_b l.Core.l_update
  in
  scan_b fn.Core.f_body;
  let _, body = walk_body p env0 fn.Core.f_body in
  { fn with Core.f_body = body }

let run ~(fold_ctx : I.ctx) ~(cfg : Pipeline.config) (fn : Core.fn) :
  Core.fn * stats =
  let stats = stats_zero () in
  let fn =
    if cfg.Pipeline.fold || cfg.Pipeline.cse || cfg.Pipeline.strength then
      fold_round cfg fold_ctx stats fn
    else fn
  in
  let fn = if cfg.Pipeline.licm then licm_fn stats fn else fn in
  let fn =
    (* a second cheap round dedups preheader copies against code before
       the loop; only worth it if something was hoisted *)
    if stats.st_licm > 0 && (cfg.Pipeline.fold || cfg.Pipeline.cse) then
      fold_round cfg fold_ctx stats fn
    else fn
  in
  let fn = if cfg.Pipeline.barrier then barrier_fn stats fn else fn in
  let fn = if cfg.Pipeline.dce then dce_fn stats fn else fn in
  (fn, stats)
