(* Lane-uniformity analysis over the kernel IR.

   Decides, per virtual register, whether every lane of a warp that
   executes a given definition computes the same value — the fact the
   warp-lockstep engine (`Gpusim.Lockstep`) needs to (a) prove barriers
   are only reached under warp-uniform control and (b) tag stores whose
   cross-lane overlap is benign (all active lanes writing one value to
   one address).

   Seeds mirror the tid-taint used by the redundant-barrier pass in
   `Lower` (Xlat_analysis.Checks.solve_taint), transplanted to IR
   registers: `threadIdx` / get_global_id / get_local_id introduce
   varying values; block-level specials and NDRange shape queries are
   launch constants.  Loads from memory are conservatively varying —
   except the charge-free `make_ptr` shapes (array / struct bases),
   whose "value" is just an address and is uniform exactly when the
   addressed variable lives at one address per block (`__local` /
   dynamic shared).  The analysis is a monotone demotion fixpoint:
   everything starts uniform, facts only decay, so it terminates in at
   most #regs + #loops rounds.

   Soundness of the per-register claim: `Let` targets are
   single-assignment and every use is dominated by the definition, so
   "uniform across the lanes executing the definition" covers every
   mask under which the register is later read.  `SetReg`/`SetRaw`
   merge variables get the stronger rule — a write under divergent
   control demotes, because inactive lanes keep stale values that a
   later wider mask could observe. *)

open Minic.Ast
module Layout = Vm.Layout

type t = {
  u_reg : bool array;   (* value equal across executing lanes *)
  u_mem : bool array;   (* memory var has one address per block *)
  barrier_ok : bool;    (* every Barrier sits at warp-uniform control *)
}

(* Block-uniform specials; `threadIdx` is the varying seed. *)
let uniform_special = function
  | "blockIdx" | "blockDim" | "gridDim" | "warpSize"
  | "CLK_LOCAL_MEM_FENCE" | "CLK_GLOBAL_MEM_FENCE" -> true
  | _ -> false

(* Launch-shape externals whose results are lane-invariant when their
   dimension argument is.  get_global_id / get_local_id are the varying
   seeds; anything else (math builtins, atomics, user externals) is
   treated as varying so the engine makes no purity assumptions. *)
let uniform_external = function
  | "get_group_id" | "get_work_dim" | "get_global_size"
  | "get_local_size" | "get_num_groups" -> true
  | _ -> false

let count_loops (fn : Core.fn) =
  let n = ref 0 in
  let rec node = function
    | Core.Ins _ | Core.Return _ | Core.Break | Core.Continue -> ()
    | Core.If (_, _, t, e) ->
      walk t;
      walk e
    | Core.Loop l ->
      incr n;
      walk l.l_init;
      walk l.l_pre;
      (match l.l_cond with Some (cb, _) -> walk cb | None -> ());
      walk l.l_body;
      walk l.l_update
  and walk b = List.iter node b in
  walk fn.f_body;
  !n

let mem_uniform (m : Core.minfo) = m.Core.m_shared || m.Core.m_space = AS_local

let analyze (lt : Vm.Layout.env) (fn : Core.fn) : t =
  let u_reg = Array.make (max fn.Core.f_nregs 1) true in
  let u_mem =
    Array.map mem_uniform fn.Core.f_mem
  in
  let u_mem = if Array.length u_mem = 0 then [| false |] else u_mem in
  let nloops = count_loops fn in
  (* Per-loop "lanes run different trip counts" flag, indexed by the
     loop's position in traversal order (stable across rounds). *)
  let trip = Array.make (max nloops 1) false in
  let changed = ref true in
  let barrier_ok = ref true in
  let op = function
    | Core.Reg r -> u_reg.(r)
    | Core.Cst _ -> true
  in
  (* Is the lv a charge-free make_ptr load (array / struct base)?  Its
     result is an address, not memory content. *)
  let makes_ptr ty =
    match Layout.resolve lt ty with
    | TArr _ -> true
    | TNamed _ as rt -> Layout.is_struct lt rt
    | _ -> false
  in
  let rec lv_addr = function
    | Core.LvVar v -> u_mem.(v)
    | Core.LvFree _ -> true (* one launch/module binding per block *)
    | Core.LvIdx (a, i, _, _) -> op a && op i
    | Core.LvIdxDyn (a, i, lvo) ->
      op a && op i
      && (match lvo with Some l -> lv_addr l | None -> true)
    | Core.LvDeref p -> op p
    | Core.LvSwz (l, _, _) -> lv_addr l
  in
  let rhs_uniform = function
    | Core.Bin (_, a, b) -> op a && op b
    | Core.Un (_, a) | Core.CastV (_, a) | Core.CastRet (_, a)
    | Core.Mov a | Core.Swz (a, _, _) -> op a
    | Core.Vecc (_, l) -> List.for_all op l
    | Core.Special n -> uniform_special n
    | Core.ReadLv (Core.LvVar v as l) when makes_ptr fn.Core.f_mem.(v).Core.m_ty ->
      lv_addr l
    | Core.ReadLv (Core.LvIdx (_, _, elt, _) as l) when makes_ptr elt -> lv_addr l
    | Core.ReadLv _ -> false
    | Core.AddrofLv l -> lv_addr l
    | Core.Free _ -> false
    | Core.CallE (n, l) -> uniform_external n && List.for_all op l
    | Core.CallU _ | Core.CallK _ | Core.StrP _ -> false
  in
  let demote r =
    if u_reg.(r) then begin
      u_reg.(r) <- false;
      changed := true
    end
  in
  let set_trip id =
    if not trip.(id) then begin
      trip.(id) <- true;
      changed := true
    end
  in
  (* div: control may differ across lanes here (absolute).
     rel: control may differ relative to the innermost loop's entry —
     what decides whether a Break/Continue splits that loop's trips.
     cur: innermost enclosing loop id. *)
  let loop_ctr = ref 0 in
  let rec node div rel cur = function
    | Core.Ins i ->
      (match i.Core.i_kind with
       | Core.Let (r, rhs) -> if not (rhs_uniform rhs) then demote r
       | Core.SetReg (r, _, o) | Core.SetRaw (r, o) ->
         if div || not (op o) then demote r
       | Core.Barrier _ -> if div then barrier_ok := false
       | _ -> ())
    | Core.If (_, c, t, e) ->
      let cu = op c in
      let d = div || not cu and r = rel || not cu in
      walk d r cur t;
      walk d r cur e
    | Core.Loop l ->
      let id = !loop_ctr in
      incr loop_ctr;
      walk div rel cur l.Core.l_init;
      walk div rel cur l.Core.l_pre;
      let cu =
        match l.Core.l_cond with None -> true | Some (_, co) -> op co
      in
      if not cu then set_trip id;
      let d = div || trip.(id) in
      (match l.Core.l_cond with
       | Some (cb, _) -> walk d false (Some id) cb
       | None -> ());
      walk d false (Some id) l.Core.l_body;
      walk d false (Some id) l.Core.l_update
    | Core.Return _ ->
      (* Returned lanes leave both the active mask and the live set, so
         later barriers still see mask = live; no demotion needed. *)
      ()
    | Core.Break | Core.Continue ->
      if rel then (match cur with Some id -> set_trip id | None -> ())
  and walk div rel cur b = List.iter (node div rel cur) b in
  while !changed do
    changed := false;
    barrier_ok := true;
    loop_ctr := 0;
    walk false false None fn.Core.f_body
  done;
  { u_reg; u_mem; barrier_ok = !barrier_ok }

let operand (t : t) = function
  | Core.Reg r -> t.u_reg.(r)
  | Core.Cst _ -> true

let rec lv_addr (t : t) = function
  | Core.LvVar v -> t.u_mem.(v)
  | Core.LvFree _ -> true
  | Core.LvIdx (a, i, _, _) -> operand t a && operand t i
  | Core.LvIdxDyn (a, i, lvo) ->
    operand t a && operand t i
    && (match lvo with Some l -> lv_addr t l | None -> true)
  | Core.LvDeref p -> operand t p
  | Core.LvSwz (l, _, _) -> lv_addr t l
