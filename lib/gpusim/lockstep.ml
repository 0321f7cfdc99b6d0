(* Warp-lockstep vectorized execution over the kernel IR.

   One closure per IR instruction region executes a whole warp: an
   active-lane bitmask replaces the per-item coroutine, `If`/`Loop`
   nodes split and re-converge the mask (divergence-mask stack in the
   OCaml call stack), `Break`/`Continue`/`Return` park lanes in
   loop-frame accumulators, and a barrier parks the warp as ONE fiber —
   the launcher's round scheduler then sees warps where it used to see
   items, with identical round structure.

   Observational identity with the scalar engines is the contract:
   byte-identical buffers, identical `Counters.t` aggregates and
   per-site `Attr` sums.  It holds by construction for everything
   per-lane: instruction-major execution preserves each lane's program
   order, so each lane's access/branch stream content is exactly the
   scalar per-item stream and `Counters.finish_group` sees identical
   rows.  The one real reordering — lane i's instruction k now runs
   before lane j's instruction k-1 within the same warp — is guarded by
   a per-region hazard log: any cross-lane overlapping access with a
   write (outside the proven-benign shapes below) raises [Bail], the
   launcher restores its pre-launch arena snapshots and reruns the
   whole launch on the scalar engine.  Bailing is always sound because
   nothing else observed the partial run.

   Benign overlap shapes (hazard exemptions):
   - all participants are reads;
   - all are atomics of one commuting class whose results are unused
     (the same argument the block-parallel executor makes);
   - all are flagged lane-uniform (same address, and for stores the
     same value, proven by `Ir.Uniform`) and either belong to one
     instruction or all executed under a full live mask — the two cases
     where every scalar interleaving writes/reads one value.

   Execution reuses `Ir.Emit`'s per-instruction closures for the
   general case (one `renv` per lane sharing the block context), so a
   lane's semantics are the scalar backend's by definition.  On top of
   that, every instruction of a small fast class (int/float scalar
   arithmetic, NDRange index queries, typed element loads/stores) runs
   as micro-ops over contiguous Bigarray lane files (`Vm.Lanes`).
   Registers whose every definition and use fits that class live there
   outright; a boxed register a fast instruction touches crosses in and
   out through a shadow lane slot. *)

open Minic.Ast
module I = Vm.Interp
module V = Vm.Value
module Memory = Vm.Memory
module Layout = Vm.Layout
module Lanes = Vm.Lanes
module Emit = Ir.Emit
module Core = Ir.Core
module Uniform = Ir.Uniform

exception Bail of string

let bail fmt = Printf.ksprintf (fun s -> raise (Bail s)) fmt

(* ------------------------------------------------------------------ *)
(* Hazard log                                                          *)
(* ------------------------------------------------------------------ *)

(* Descriptor of the instruction currently executing, written by the
   plan's closures and read by the launcher's lane-access hook when it
   appends hazard entries. *)
type flags = {
  mutable f_iid : int;
  mutable f_uni : bool;
  (* all active lanes provably touch one address (and store one value) *)
  mutable f_full : bool; (* the active mask covered every live lane *)
}

let make_flags () = { f_iid = -1; f_uni = false; f_full = false }

type hentry = {
  h_lane : int;
  h_key : int; (* space-tagged start address *)
  h_size : int;
  h_kind : int; (* 0 load / 1 store / 2 atomic *)
  h_iid : int;
  h_uni : bool;
  h_full : bool;
  h_klass : Conflict.klass;
}

type hlog = { mutable h_entries : hentry array; mutable h_len : int }

let make_hlog () = { h_entries = [||]; h_len = 0 }

let space_code = function
  | AS_global -> 0
  | AS_constant -> 1
  | AS_local -> 2
  | AS_none -> 3
  | AS_private -> -1

let hpush (hl : hlog) (e : hentry) =
  if hl.h_len = Array.length hl.h_entries then begin
    let cap = max 64 (2 * Array.length hl.h_entries) in
    let bigger = Array.make cap e in
    Array.blit hl.h_entries 0 bigger 0 hl.h_len;
    hl.h_entries <- bigger
  end;
  hl.h_entries.(hl.h_len) <- e;
  hl.h_len <- hl.h_len + 1

(* Append a plain access; private memory is per-lane by construction
   and never logged. *)
let record (hl : hlog) (fl : flags) ~lane (kind : Memory.access_kind)
    (space : addr_space) addr size =
  let code = space_code space in
  if code >= 0 then
    hpush hl
      { h_lane = lane;
        h_key = (code lsl 46) + addr;
        h_size = size;
        h_kind = (match kind with Memory.Load -> 0 | Memory.Store -> 1);
        h_iid = fl.f_iid;
        h_uni = fl.f_uni;
        h_full = fl.f_full;
        h_klass = Conflict.Kother }

let record_atomic (hl : hlog) ~lane (space : addr_space) addr size
    (klass : Conflict.klass) =
  let code = space_code space in
  if code >= 0 then
    hpush hl
      { h_lane = lane;
        h_key = (code lsl 46) + addr;
        h_size = size;
        h_kind = 2;
        h_iid = -1;
        h_uni = false;
        h_full = false;
        h_klass = klass }

(* Close an instruction region (barrier or warp end): sort the log,
   cluster overlapping ranges, and demand every multi-lane cluster with
   a write matches a benign shape. *)
let check_log (hl : hlog) ~atomics_clean =
  if hl.h_len > 0 then begin
    let a = Array.sub hl.h_entries 0 hl.h_len in
    hl.h_len <- 0;
    Array.sort (fun x y -> compare x.h_key y.h_key) a;
    let n = Array.length a in
    let i = ref 0 in
    while !i < n do
      let start = !i in
      let stop = ref (a.(start).h_key + a.(start).h_size) in
      let j = ref (start + 1) in
      while !j < n && a.(!j).h_key < !stop do
        stop := max !stop (a.(!j).h_key + a.(!j).h_size);
        incr j
      done;
      (* cluster [start, !j) *)
      if !j - start > 1 then begin
        let lane0 = a.(start).h_lane in
        let multi = ref false
        and any_write = ref false
        and all_atomic = ref true
        and same_klass = ref true
        and all_uni = ref true
        and all_full = ref true
        and same_iid = ref true in
        let iid0 = a.(start).h_iid and k0 = a.(start).h_klass in
        for k = start to !j - 1 do
          let e = a.(k) in
          if e.h_lane <> lane0 then multi := true;
          if e.h_kind > 0 then any_write := true;
          if e.h_kind <> 2 then all_atomic := false;
          if e.h_klass <> k0 then same_klass := false;
          if not e.h_uni then all_uni := false;
          if not e.h_full then all_full := false;
          if e.h_iid <> iid0 then same_iid := false
        done;
        if !multi && !any_write then
          if !all_atomic && !same_klass && k0 <> Conflict.Kother
             && atomics_clean
          then ()
          else if !all_uni && (!same_iid || !all_full) then ()
          else bail "cross-lane memory dependence within a warp"
      end;
      i := !j
    done
  end

(* ------------------------------------------------------------------ *)
(* Launcher hooks                                                      *)
(* ------------------------------------------------------------------ *)

(* Everything the engine needs from the launcher.  [k_access] is the
   launcher's per-access hook with the lane made explicit (same
   streams, conflict log and hazard log as the scalar path's
   [on_access]); [k_set_lane] repoints the shared context at one lane
   before generic (boxed) closures, per-lane branch observations or
   per-lane casts run; [k_idx] answers NDRange index queries for the
   fast path exactly like the registered externals do for the lane that
   is current. *)
type hooks = {
  k_ctx : I.ctx;
  k_set_lane : int -> unit;
  k_access : int -> Memory.access_kind -> addr_space -> int -> int -> unit;
  k_idx : [ `Gid | `Lid | `Grp ] -> int -> int -> int;
  (* batched operation charge: [k_charge site cls n] records [n]
     operations of class [cls] against [site] (-1 = the current site),
     with the same counter and attribution totals as [n] single
     [on_op] calls at that site.  Fused regions charge whole
     (instructions x active lanes) products through this. *)
  k_charge : int -> I.op_class -> int -> unit;
  (* per-lane branch-decision hook, present exactly when the launcher
     records branch streams (attribution mode); [None] means branch
     decisions are unobserved and the engine may skip the per-lane
     bookkeeping entirely *)
  k_branch : (int -> bool -> unit) option;
  k_flags : flags;
  k_log : hlog;
  k_atomics_clean : bool;
}

(* Planted-bug knobs, used only by test_fusion.ml to prove the
   differential net catches mis-fusions: [bug_drop_mask] executes
   micro-op sequences over every live lane instead of the active mask
   (a dropped divergence check); [bug_skip_charge] skips a sequence's
   batched counter/attr charges.  Both are read at *execution* time so
   cached plans are affected too. *)
let bug_drop_mask = ref false
let bug_skip_charge = ref false

(* ------------------------------------------------------------------ *)
(* Warp state                                                          *)
(* ------------------------------------------------------------------ *)

type wenv = {
  h : hooks;
  lane0 : int; (* absolute linear local id of lane 0 *)
  n : int; (* lanes in this warp *)
  amb : int; (* ambient attribution site *)
  mutable mask : int; (* active lanes *)
  mutable ret : int; (* returned lanes (permanent) *)
  mutable brk : int; (* lanes parked by the innermost open loop *)
  mutable cont : int;
  ki : Lanes.i64;
  kf : Lanes.f64;
  renvs : Emit.renv array; (* per-lane boxed register files *)
  retv : I.tval array;
  lidx : int array; (* region scratch: active lane indices, dense *)
}

let all_live w = ((1 lsl w.n) - 1) land lnot w.ret

(* Linear scan from lane 0: one shift + test per candidate lane, so a
   full iteration is O(warp), not O(warp^2) lowest-bit rescans. *)
let[@inline] iter_lanes mask f =
  let m = ref mask and l = ref 0 in
  while !m <> 0 do
    if !m land 1 = 1 then f !l;
    incr l;
    m := !m lsr 1
  done

let popcount m =
  let c = ref 0 and m = ref m in
  while !m <> 0 do
    incr c;
    m := !m land (!m - 1)
  done;
  !c

(* One scalar-path charge per active lane, batched: the launcher's
   [k_charge] records (class x popcount) in one call against the
   current site, which is exactly what a per-lane [on_op] loop
   totals to ([on_op] is lane-independent — it reads only the site). *)
let[@inline] charge (w : wenv) (cls : I.op_class) =
  if w.mask <> 0 then w.h.k_charge (-1) cls (popcount w.mask)

let set_flags (w : wenv) iid uni =
  let fl = w.h.k_flags in
  fl.f_iid <- iid;
  fl.f_uni <- uni;
  fl.f_full <- w.mask = all_live w

(* ------------------------------------------------------------------ *)
(* Value classes and lane residency                                    *)
(* ------------------------------------------------------------------ *)

(* The static value-class machinery (what a register always holds, and
   which instruction shapes have fast lane-file semantics) moved to
   `Ir.Region` — it is a fact about the IR, shared with the region
   segmentation below.  Re-export the pieces the emitters key on. *)
module Region = Ir.Region

type vcls = Region.vcls = CI of ty | CF of ty | CTop
type bincase = Region.bincase = BII | BUU | BFF

let is_cmp = Region.is_cmp
let cls_operand = Region.cls_operand
let bin_case = Region.bin_case
let scalar_elt = Region.scalar_elt
let fast_shape = Region.fast_shape
let ikind_uniform = Region.ikind_uniform

type slot = SRow | SInt of int | SFloat of int

(* Compile-time environment for one plan. *)
type cenv = {
  c_bst : Emit.bst;
  c_lt : Layout.env;
  c_uni : Uniform.t;
  c_cls : vcls array;
  c_store : slot array;
  c_w : int; (* lane-file stride = warp size *)
  c_iid : int ref;
  c_shadow : int array;
  (* lane-file base of a boxed register's shadow slot (in the file its
     class selects), -1 when no fast shape reads or writes it *)
  c_sited : bool;
  c_regions : int ref; (* fused regions formed (census) *)
}

(* ------------------------------------------------------------------ *)
(* Readers and writers over mixed storage                              *)
(* ------------------------------------------------------------------ *)

let rd_any (c : cenv) (o : Core.operand) : wenv -> int -> I.tval =
  match o with
  | Core.Cst t -> fun _ _ -> t
  | Core.Reg r ->
    (match c.c_store.(r) with
     | SRow -> fun w l -> w.renvs.(l).Emit.regs.(r)
     | SInt k ->
       let ty = match c.c_cls.(r) with CI t -> t | _ -> assert false in
       let base = k * c.c_w in
       fun w l -> I.tv (V.VInt (Lanes.get_i w.ki (base + l))) ty
     | SFloat k ->
       let ty = match c.c_cls.(r) with CF t -> t | _ -> assert false in
       let base = k * c.c_w in
       fun w l -> I.tv (V.VFloat (Lanes.get_f w.kf (base + l))) ty)

let rd_i (c : cenv) (o : Core.operand) : (wenv -> int -> int64) option =
  match o with
  | Core.Cst { I.v = V.VInt n; _ } -> Some (fun _ _ -> n)
  | Core.Cst _ -> None
  | Core.Reg r ->
    (match c.c_cls.(r) with
     | CI _ ->
       (match c.c_store.(r) with
        | SInt k ->
          let base = k * c.c_w in
          Some (fun w l -> Lanes.get_i w.ki (base + l))
        | _ -> Some (fun w l -> V.to_int w.renvs.(l).Emit.regs.(r).I.v))
     | _ -> None)

let rd_f (c : cenv) (o : Core.operand) : (wenv -> int -> float) option =
  match o with
  | Core.Cst { I.v = V.VFloat f; _ } -> Some (fun _ _ -> f)
  | Core.Cst _ -> None
  | Core.Reg r ->
    (match c.c_cls.(r) with
     | CF _ ->
       (match c.c_store.(r) with
        | SFloat k ->
          let base = k * c.c_w in
          Some (fun w l -> Lanes.get_f w.kf (base + l))
        | _ -> Some (fun w l -> V.to_float w.renvs.(l).Emit.regs.(r).I.v))
     | _ -> None)

(* Branch-condition reader: V.to_bool v = V.to_int v <> 0L, so the
   float shortcut must truncate like to_int does. *)
let rd_bool (c : cenv) (o : Core.operand) : wenv -> int -> bool =
  match rd_i c o with
  | Some f -> fun w l -> f w l <> 0L
  | None ->
    (match rd_f c o with
     | Some f -> fun w l -> Int64.of_float (f w l) <> 0L
     | None ->
       let r = rd_any c o in
       fun w l -> V.to_bool (r w l).I.v)

(* Specialized branch-condition evaluation: when the condition operand
   is a lane-resident int register, the kept-lanes mask is built
   straight off the lane file — no per-lane closure crossings.  Only
   used when branch decisions are unobserved ([k_branch] = None, the
   non-attribution case); the observing path keeps the per-lane reader
   so every decision is reported. *)
let cond_keep (c : cenv) (o : Core.operand) : (wenv -> int -> int) option =
  match o with
  | Core.Reg r ->
    (match c.c_store.(r), c.c_cls.(r) with
     | SInt k, CI _ ->
       let base = k * c.c_w in
       Some
         (fun w m ->
            let keep = ref 0 and mm = ref m and l = ref 0 in
            while !mm <> 0 do
              if
                !mm land 1 = 1
                && not (Int64.equal (Lanes.get_i w.ki (base + !l)) 0L)
              then keep := !keep lor (1 lsl !l);
              incr l;
              mm := !mm lsr 1
            done;
            !keep)
     | _ -> None)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Fused regions                                                       *)
(* ------------------------------------------------------------------ *)

(* Every fast-shape instruction executes as micro-ops: a flat array of
   pre-decoded operations interpreted in a tight loop, each micro-op
   running its own per-lane loop directly over the Bigarray lane files.
   No reader/op/writer closures, no tval boxing: every operand is either
   an immediate or an absolute lane-file base, every operation is
   matched inline, so the int64/float temporaries stay unboxed inside
   one function body.

   A maximal straight-line run of lane-resident fast shapes is ONE
   fused region.  Legality (on top of `Ir.Region.segment`'s
   straight-line guarantee):
   - every instruction is a fast shape (`Ir.Region.fast_shape`);
   - every register it reads or writes is lane-resident (slot in the
     int/float lane file) — an SRow (boxed) register anywhere keeps the
     instruction out of the run;
   - the divergence mask is read once at region entry: a run contains
     no control flow, so the mask cannot change inside it, and
     instruction-major order within the run preserves lane program
     order;
   - loads/stores keep their per-instruction hazard-log identity
     (fresh iid, `Ir.Region.ikind_uniform` flag, full-mask bit) and
     call [k_access] before resolving the arena, exactly like the
     scalar closures.

   A fast shape that touches a boxed register runs alone, as a
   one-instruction sequence: unbox micro-ops copy its boxed operands'
   active lanes into their shadow slots, the instruction's micro-op
   reads and writes those slots, and a box micro-op copies a boxed
   destination back at its class type — what the scalar closure would
   have written.

   Counter/attr charges are batched with exact-sum compensation: the
   chargeable instructions of a sequence are folded at plan time into a
   (site, class, per-lane count) table, and sequence entry charges
   count x popcount(mask) through [k_charge].  The mask is constant
   across the sequence, so the product equals the sum of the per-lane
   per-instruction charges the scalar engine makes; a mid-sequence
   fault rolls the launch back and the scalar rerun starts from fresh
   counters, so over-charge before a fault is unobservable. *)

(* Operand sources: absolute lane-file base (slot * warp) or an
   immediate. *)
type isrc = LI of int | KI of int64
type fsrc = LF of int | KF of float

(* [V.wrap_int sc] as a pre-decoded shift pair; (0, _) is the
   identity (types of >= 64 bits). *)
let wrap_spec (sc : scalar) : int * bool =
  let bits = 8 * scalar_size sc in
  if bits >= 64 then (0, false) else (64 - bits, not (is_unsigned sc))

let[@inline] apply_wrap wsh wsg v =
  if wsh = 0 then v
  else if wsg then Int64.shift_right (Int64.shift_left v wsh) wsh
  else Int64.shift_right_logical (Int64.shift_left v wsh) wsh

type mop =
  | MSite of int (* cur_site := (site, -1 = ambient); c_sited only *)
  | MBinII of {
      op : binop;
      unsigned : bool;
      wsh : int;
      wsg : bool;
      dst : int;
      a : isrc;
      b : isrc;
    }
  | MBinFF of { op : binop; dst : int; a : fsrc; b : fsrc }
  | MCmpFF of { op : binop; dst : int; a : fsrc; b : fsrc }
  | MNegI of { dst : int; a : isrc; wsh : int; wsg : bool }
  | MNegF of { dst : int; a : fsrc }
  | MLnot of { dst : int; a : isrc }
  | MBnot of { dst : int; a : isrc; wsh : int; wsg : bool }
  | MBool of { dst : int; a : isrc }
  | MCastI of { dst : int; a : isrc; wsh : int; wsg : bool }
  | MCastF of { dst : int; a : fsrc; r32 : bool }
  | MItoF of { dst : int; a : isrc; r32 : bool }
  | MFtoI of { dst : int; a : fsrc; wsh : int; wsg : bool }
  | MIdx of { which : [ `Gid | `Lid | `Grp ]; dst : int; dim : isrc option }
  | MLoadI of {
      iid : int;
      uni : bool;
      dst : int;
      base : isrc;
      idx : isrc;
      esz : int64;
      n : int;
      wsh : int;
      wsg : bool;
    }
  | MLoadF of {
      iid : int;
      uni : bool;
      dst : int;
      base : isrc;
      idx : isrc;
      esz : int64;
      n : int;
    }
  | MStoreI of {
      iid : int;
      uni : bool;
      base : isrc;
      idx : isrc;
      esz : int64;
      n : int;
      v : isrc;
    }
  | MStoreF of {
      iid : int;
      uni : bool;
      base : isrc;
      idx : isrc;
      esz : int64;
      n : int;
      v : fsrc;
      r32 : bool;
    }
  (* boxed-register crossings: [dst]/[src] is the shadow's lane base *)
  | MUnboxI of { reg : int; dst : int }
  | MUnboxF of { reg : int; dst : int }
  | MBoxI of { reg : int; ty : ty; src : int }
  | MBoxF of { reg : int; ty : ty; src : int }

(* Lane-file base of a register's int (float) storage: its own slot
   when lane-resident, its shadow when boxed. *)
let lane_i (c : cenv) r : int option =
  match c.c_store.(r), c.c_cls.(r) with
  | SInt k, _ -> Some (k * c.c_w)
  | SRow, CI _ -> Some c.c_shadow.(r)
  | _ -> None

let lane_f (c : cenv) r : int option =
  match c.c_store.(r), c.c_cls.(r) with
  | SFloat k, _ -> Some (k * c.c_w)
  | SRow, CF _ -> Some c.c_shadow.(r)
  | _ -> None

let src_i (c : cenv) (o : Core.operand) : isrc option =
  match o with
  | Core.Cst { I.v = V.VInt n; _ } -> Some (KI n)
  | Core.Cst _ -> None
  | Core.Reg r -> Option.map (fun b -> LI b) (lane_i c r)

let src_f (c : cenv) (o : Core.operand) : fsrc option =
  match o with
  | Core.Cst { I.v = V.VFloat f; _ } -> Some (KF f)
  | Core.Cst _ -> None
  | Core.Reg r -> Option.map (fun b -> LF b) (lane_f c r)

(* The register an instruction defines, if any. *)
let ikind_def = function
  | Core.Let (r, _) | Core.SetReg (r, _, _) | Core.SetRaw (r, _) -> Some r
  | _ -> None

(* The boxed registers [k] reads or writes; a fast shape with none is
   lane-resident and can join a fused region. *)
let boxed_regs (c : cenv) (k : Core.ikind) : int list =
  List.filter
    (fun r -> c.c_store.(r) = SRow)
    (List.filter_map
       (function Core.Reg r -> Some r | Core.Cst _ -> None)
       (Core.ikind_operands k)
     @ Option.to_list (ikind_def k))

(* The crossings around a fast shape: unboxes of its boxed operands
   (each register once) before it, a box of its boxed destination
   after it.  Both are empty for a resident instruction. *)
let crossings (c : cenv) (k : Core.ikind) : mop list * mop list =
  let boxed r = c.c_store.(r) = SRow in
  let unbox r =
    match c.c_cls.(r) with
    | CF _ -> MUnboxF { reg = r; dst = c.c_shadow.(r) }
    | _ -> MUnboxI { reg = r; dst = c.c_shadow.(r) }
  in
  let box r =
    match c.c_cls.(r) with
    | CI ty -> [ MBoxI { reg = r; ty; src = c.c_shadow.(r) } ]
    | CF ty -> [ MBoxF { reg = r; ty; src = c.c_shadow.(r) } ]
    | CTop -> []
  in
  let reads =
    List.sort_uniq compare
      (List.filter_map
         (function Core.Reg r when boxed r -> Some r | _ -> None)
         (Core.ikind_operands k))
  in
  ( List.map unbox reads,
    match ikind_def k with Some r when boxed r -> box r | _ -> [] )

let ( let* ) = Option.bind

(* Interp.unop's wrap of an int or unsigned int negation or complement *)
let wrap32_spec (c : cenv) t =
  match Layout.resolve c.c_lt t with
  | TScalar ((Int | UInt) as s) -> wrap_spec s
  | _ -> (0, false)

(* [cast_value] on lane-resident scalars: the four statically-resolved
   conversion shapes ([Region.cast_class] admits exactly these), all
   charge-free like the scalar CastV/CastRet closures. *)
let fuse_cast (c : cenv) r t o : (mop * I.op_class option) option =
  match Layout.resolve c.c_lt t, cls_operand c.c_cls o with
  | TScalar ((Float | Double) as s), CF _ ->
    let* sa = src_f c o in
    let* d = lane_f c r in
    Some (MCastF { dst = d; a = sa; r32 = s = Float }, None)
  | TScalar ((Float | Double) as s), CI _ ->
    let* sa = src_i c o in
    let* d = lane_f c r in
    Some (MItoF { dst = d; a = sa; r32 = s = Float }, None)
  | TScalar s, CI _ when s <> Void ->
    let* sa = src_i c o in
    let* d = lane_i c r in
    let wsh, wsg = wrap_spec s in
    Some (MCastI { dst = d; a = sa; wsh; wsg }, None)
  | TScalar s, CF _ when s <> Void ->
    let* sa = src_f c o in
    let* d = lane_i c r in
    let wsh, wsg = wrap_spec s in
    Some (MFtoI { dst = d; a = sa; wsh; wsg }, None)
  | TPtr _, CI _ ->
    let* sa = src_i c o in
    let* d = lane_i c r in
    Some (MCastI { dst = d; a = sa; wsh = 0; wsg = false }, None)
  | _ -> None

(* Decode one instruction into a micro-op plus its per-lane charge
   class; boxed registers are read and written through their shadows.
   The micro-op semantics transcribe the scalar closure: same
   `I.int_binop`/`I.float_binop` arithmetic, same wrap/round
   normalization, same charges, same hazard facts, same failure points.
   Every [Ir.Region.fast_shape] instruction decodes, and callers pass
   nothing else: a boxed register has a shadow only when a fast shape
   touches it. *)
let fuse_ikind (c : cenv) ~(iid : int) (k : Core.ikind) :
  (mop * I.op_class option) option =
  match k with
  | Core.Let (r, Core.Bin (op, a, b)) ->
    let* case, _ = bin_case c.c_cls op a b in
    let cmp = is_cmp op in
    (match case with
     | BII | BUU ->
       let unsigned = case = BUU in
       let* sa = src_i c a in
       let* sb = src_i c b in
       let* d = lane_i c r in
       let wsh, wsg =
         if cmp then (0, false)
         else wrap_spec (if unsigned then UInt else Int)
       in
       Some
         ( MBinII { op; unsigned; wsh; wsg; dst = d; a = sa; b = sb },
           Some I.Op_int )
     | BFF ->
       let* sa = src_f c a in
       let* sb = src_f c b in
       if cmp then
         let* d = lane_i c r in
         Some (MCmpFF { op; dst = d; a = sa; b = sb }, Some I.Op_float)
       else
         let* d = lane_f c r in
         Some (MBinFF { op; dst = d; a = sa; b = sb }, Some I.Op_float))
  | Core.Let (r, Core.Un (u, a)) ->
    (match u, cls_operand c.c_cls a with
     | Core.UNeg, CI t ->
       let* sa = src_i c a in
       let* d = lane_i c r in
       let wsh, wsg = wrap32_spec c t in
       Some (MNegI { dst = d; a = sa; wsh; wsg }, Some I.Op_int)
     | Core.UNeg, CF _ ->
       let* sa = src_f c a in
       let* d = lane_f c r in
       Some (MNegF { dst = d; a = sa }, Some I.Op_float)
     | Core.ULnot, CI _ ->
       let* sa = src_i c a in
       let* d = lane_i c r in
       Some (MLnot { dst = d; a = sa }, Some I.Op_int)
     | Core.UBnot, CI t ->
       let* sa = src_i c a in
       let* d = lane_i c r in
       let wsh, wsg = wrap32_spec c t in
       Some (MBnot { dst = d; a = sa; wsh; wsg }, Some I.Op_int)
     | Core.UBool, CI _ ->
       let* sa = src_i c a in
       let* d = lane_i c r in
       Some (MBool { dst = d; a = sa }, None)
     | _ -> None)
  | Core.Let (r, Core.Mov o) ->
    (match cls_operand c.c_cls o with
     | CI _ ->
       let* sa = src_i c o in
       let* d = lane_i c r in
       Some (MCastI { dst = d; a = sa; wsh = 0; wsg = false }, None)
     | CF _ ->
       let* sa = src_f c o in
       let* d = lane_f c r in
       Some (MCastF { dst = d; a = sa; r32 = false }, None)
     | CTop -> None)
  | Core.Let (r, Core.CastV (t, o)) -> fuse_cast c r t o
  | Core.Let (r, Core.CastRet (t, o)) ->
    (match cls_operand c.c_cls o with
     | CI tc when equal_ty tc t ->
       let* sa = src_i c o in
       let* d = lane_i c r in
       Some (MCastI { dst = d; a = sa; wsh = 0; wsg = false }, None)
     | CF tc when equal_ty tc t ->
       let* sa = src_f c o in
       let* d = lane_f c r in
       Some (MCastF { dst = d; a = sa; r32 = false }, None)
     | _ -> fuse_cast c r t o)
  | Core.Let (r, Core.CallE (n, ops)) when Region.idx_external n ->
    let which =
      match n with
      | "get_global_id" -> `Gid
      | "get_local_id" -> `Lid
      | _ -> `Grp
    in
    let* dim =
      match ops with
      | [] -> Some None
      | o :: _ ->
        (match src_i c o with Some s -> Some (Some s) | None -> None)
    in
    let* d = lane_i c r in
    Some (MIdx { which; dst = d; dim }, None)
  | Core.Let (r, Core.ReadLv (Core.LvIdx (a, i_op, elt, esz))) ->
    let uni = ikind_uniform c.c_uni k in
    let* sb = src_i c a in
    let* si = src_i c i_op in
    let esz64 = Int64.of_int esz in
    (match scalar_elt c.c_lt elt with
     | Some (`I s) ->
       let* d = lane_i c r in
       let wsh, wsg = wrap_spec s in
       Some
         ( MLoadI
             { iid; uni; dst = d; base = sb; idx = si; esz = esz64;
               n = max 1 (scalar_size s); wsh; wsg },
           None )
     | Some (`F s) ->
       let* d = lane_f c r in
       Some
         ( MLoadF
             { iid; uni; dst = d; base = sb; idx = si; esz = esz64;
               n = scalar_size s },
           None )
     | None -> None)
  | Core.SetReg (r, ty, o) ->
    (match Layout.resolve c.c_lt ty with
     | TScalar ((Float | Double) as s) ->
       let* sa = src_f c o in
       let* d = lane_f c r in
       Some (MCastF { dst = d; a = sa; r32 = s = Float }, None)
     | TScalar s when s <> Void ->
       let* sa = src_i c o in
       let* d = lane_i c r in
       let wsh, wsg = wrap_spec s in
       Some (MCastI { dst = d; a = sa; wsh; wsg }, None)
     | TPtr _ ->
       let* sa = src_i c o in
       let* d = lane_i c r in
       Some (MCastI { dst = d; a = sa; wsh = 0; wsg = false }, None)
     | _ -> None)
  | Core.Store (Core.LvIdx (a, i_op, elt, esz), o) ->
    let uni = ikind_uniform c.c_uni k in
    let* sb = src_i c a in
    let* si = src_i c i_op in
    let esz64 = Int64.of_int esz in
    (match scalar_elt c.c_lt elt with
     | Some (`I s) ->
       let* sv = src_i c o in
       Some
         ( MStoreI
             { iid; uni; base = sb; idx = si; esz = esz64;
               n = max 1 (scalar_size s); v = sv },
           None )
     | Some (`F s) ->
       let* sv = src_f c o in
       Some
         ( MStoreF
             { iid; uni; base = sb; idx = si; esz = esz64;
               n = scalar_size s; v = sv; r32 = s = Float },
           None )
     | None -> None)
  | _ -> None

let[@inline] get_i (w : wenv) (s : isrc) l =
  match s with LI b -> Lanes.get_i w.ki (b + l) | KI n -> n

let[@inline] get_f (w : wenv) (s : fsrc) l =
  match s with LF b -> Lanes.get_f w.kf (b + l) | KF f -> f

(* Execute one micro-op over the region's active lanes.  The region
   prologue expanded the (constant) mask once into [w.lidx.(0..nact)],
   so every micro-op runs a direct counted loop over a dense index
   array — no per-lane closure crossings, no bit scans — and the
   int64/float temporaries stay unboxed inside this one function body.
   [full] is the region-constant "active mask covers every live lane"
   hazard fact (what [set_flags] computes per instruction on the
   unfused path). *)
let exec_mop (w : wenv) (nact : int) (full : bool) (m : mop) : unit =
  let lx = w.lidx in
  match m with
  | MSite s -> w.h.k_ctx.I.cur_site := (if s < 0 then w.amb else s)
  | MBinII { op; unsigned; wsh; wsg; dst; a; b } ->
    for k = 0 to nact - 1 do
      let l = Array.unsafe_get lx k in
      let x = get_i w a l and y = get_i w b l in
      let v =
        match op with
        | Add -> Int64.add x y
        | Sub -> Int64.sub x y
        | Mul -> Int64.mul x y
        | Band -> Int64.logand x y
        | Bxor -> Int64.logxor x y
        | Bor -> Int64.logor x y
        | Shl -> Int64.shift_left x (Int64.to_int y land 63)
        | Shr ->
          if unsigned then
            Int64.shift_right_logical x (Int64.to_int y land 63)
          else Int64.shift_right x (Int64.to_int y land 63)
        | Lt | Gt | Le | Ge ->
          let s =
            if unsigned then Int64.unsigned_compare x y
            else Int64.compare x y
          in
          let t =
            match op with
            | Lt -> s < 0
            | Gt -> s > 0
            | Le -> s <= 0
            | _ -> s >= 0
          in
          if t then 1L else 0L
        | Eq -> if Int64.equal x y then 1L else 0L
        | Ne -> if Int64.equal x y then 0L else 1L
        | _ -> assert false
      in
      Lanes.set_i w.ki (dst + l) (apply_wrap wsh wsg v)
    done
  | MBinFF { op; dst; a; b } ->
    for k = 0 to nact - 1 do
      let l = Array.unsafe_get lx k in
      let x = get_f w a l and y = get_f w b l in
      let v =
        match op with
        | Add -> x +. y
        | Sub -> x -. y
        | Mul -> x *. y
        | _ -> assert false
      in
      (* BFF operands are fp32, so the result rounds as Float *)
      Lanes.set_f w.kf (dst + l)
        (Int32.float_of_bits (Int32.bits_of_float v))
    done
  | MCmpFF { op; dst; a; b } ->
    for k = 0 to nact - 1 do
      let l = Array.unsafe_get lx k in
      let x = get_f w a l and y = get_f w b l in
      let t =
        match op with
        | Lt -> x < y
        | Gt -> x > y
        | Le -> x <= y
        | Ge -> x >= y
        | Eq -> x = y
        | Ne -> x <> y
        | _ -> assert false
      in
      Lanes.set_i w.ki (dst + l) (if t then 1L else 0L)
    done
  | MNegI { dst; a; wsh; wsg } ->
    for k = 0 to nact - 1 do
      let l = Array.unsafe_get lx k in
      Lanes.set_i w.ki (dst + l) (apply_wrap wsh wsg (Int64.neg (get_i w a l)))
    done
  | MNegF { dst; a } ->
    for k = 0 to nact - 1 do
      let l = Array.unsafe_get lx k in
      Lanes.set_f w.kf (dst + l) (-.get_f w a l)
    done
  | MLnot { dst; a } ->
    for k = 0 to nact - 1 do
      let l = Array.unsafe_get lx k in
      Lanes.set_i w.ki (dst + l)
        (if Int64.equal (get_i w a l) 0L then 1L else 0L)
    done
  | MBnot { dst; a; wsh; wsg } ->
    for k = 0 to nact - 1 do
      let l = Array.unsafe_get lx k in
      Lanes.set_i w.ki (dst + l) (apply_wrap wsh wsg (Int64.lognot (get_i w a l)))
    done
  | MBool { dst; a } ->
    for k = 0 to nact - 1 do
      let l = Array.unsafe_get lx k in
      Lanes.set_i w.ki (dst + l)
        (if Int64.equal (get_i w a l) 0L then 0L else 1L)
    done
  | MCastI { dst; a; wsh; wsg } ->
    for k = 0 to nact - 1 do
      let l = Array.unsafe_get lx k in
      Lanes.set_i w.ki (dst + l) (apply_wrap wsh wsg (get_i w a l))
    done
  | MCastF { dst; a; r32 } ->
    for k = 0 to nact - 1 do
      let l = Array.unsafe_get lx k in
      let v = get_f w a l in
      Lanes.set_f w.kf (dst + l)
        (if r32 then Int32.float_of_bits (Int32.bits_of_float v) else v)
    done
  | MItoF { dst; a; r32 } ->
    for k = 0 to nact - 1 do
      let l = Array.unsafe_get lx k in
      let v = Int64.to_float (get_i w a l) in
      Lanes.set_f w.kf (dst + l)
        (if r32 then Int32.float_of_bits (Int32.bits_of_float v) else v)
    done
  | MFtoI { dst; a; wsh; wsg } ->
    (* C float->int conversion truncates toward zero (cast_value) *)
    for k = 0 to nact - 1 do
      let l = Array.unsafe_get lx k in
      Lanes.set_i w.ki (dst + l)
        (apply_wrap wsh wsg (Int64.of_float (Float.trunc (get_f w a l))))
    done
  | MIdx { which; dst; dim } ->
    for k = 0 to nact - 1 do
      let l = Array.unsafe_get lx k in
      let d =
        match dim with None -> 0 | Some s -> Int64.to_int (get_i w s l)
      in
      Lanes.set_i w.ki (dst + l)
        (Int64.of_int (w.h.k_idx which (w.lane0 + l) d))
    done
  | MLoadI { iid; uni; dst; base; idx; esz; n; wsh; wsg } ->
    let fl = w.h.k_flags in
    fl.f_iid <- iid;
    fl.f_uni <- uni;
    fl.f_full <- full;
    let ctx = w.h.k_ctx in
    for k = 0 to nact - 1 do
      let l = Array.unsafe_get lx k in
      let b = get_i w base l in
      if V.is_null b then I.fail "null pointer indexed";
      let addr = Int64.add b (Int64.mul (get_i w idx l) esz) in
      let sp = V.ptr_space addr and off = V.ptr_offset addr in
      w.h.k_access (w.lane0 + l) Memory.Load sp off n;
      Lanes.set_i w.ki (dst + l)
        (apply_wrap wsh wsg (Memory.load_int (ctx.I.arena_of sp) off n))
    done
  | MLoadF { iid; uni; dst; base; idx; esz; n } ->
    let fl = w.h.k_flags in
    fl.f_iid <- iid;
    fl.f_uni <- uni;
    fl.f_full <- full;
    let ctx = w.h.k_ctx in
    for k = 0 to nact - 1 do
      let l = Array.unsafe_get lx k in
      let b = get_i w base l in
      if V.is_null b then I.fail "null pointer indexed";
      let addr = Int64.add b (Int64.mul (get_i w idx l) esz) in
      let sp = V.ptr_space addr and off = V.ptr_offset addr in
      w.h.k_access (w.lane0 + l) Memory.Load sp off n;
      Lanes.set_f w.kf (dst + l)
        (Memory.load_float (ctx.I.arena_of sp) off n)
    done
  | MStoreI { iid; uni; base; idx; esz; n; v } ->
    let fl = w.h.k_flags in
    fl.f_iid <- iid;
    fl.f_uni <- uni;
    fl.f_full <- full;
    let ctx = w.h.k_ctx in
    for k = 0 to nact - 1 do
      let l = Array.unsafe_get lx k in
      let b = get_i w base l in
      if V.is_null b then I.fail "null pointer indexed";
      let addr = Int64.add b (Int64.mul (get_i w idx l) esz) in
      let sp = V.ptr_space addr and off = V.ptr_offset addr in
      w.h.k_access (w.lane0 + l) Memory.Store sp off n;
      Memory.store_int (ctx.I.arena_of sp) off n (get_i w v l)
    done
  | MStoreF { iid; uni; base; idx; esz; n; v; r32 } ->
    let fl = w.h.k_flags in
    fl.f_iid <- iid;
    fl.f_uni <- uni;
    fl.f_full <- full;
    let ctx = w.h.k_ctx in
    for k = 0 to nact - 1 do
      let l = Array.unsafe_get lx k in
      let b = get_i w base l in
      if V.is_null b then I.fail "null pointer indexed";
      let addr = Int64.add b (Int64.mul (get_i w idx l) esz) in
      let sp = V.ptr_space addr and off = V.ptr_offset addr in
      w.h.k_access (w.lane0 + l) Memory.Store sp off n;
      let x = get_f w v l in
      Memory.store_float (ctx.I.arena_of sp) off n
        (if r32 then Int32.float_of_bits (Int32.bits_of_float x) else x)
    done
  | MUnboxI { reg; dst } ->
    for k = 0 to nact - 1 do
      let l = Array.unsafe_get lx k in
      Lanes.set_i w.ki (dst + l) (V.to_int w.renvs.(l).Emit.regs.(reg).I.v)
    done
  | MUnboxF { reg; dst } ->
    for k = 0 to nact - 1 do
      let l = Array.unsafe_get lx k in
      Lanes.set_f w.kf (dst + l) (V.to_float w.renvs.(l).Emit.regs.(reg).I.v)
    done
  | MBoxI { reg; ty; src } ->
    for k = 0 to nact - 1 do
      let l = Array.unsafe_get lx k in
      w.renvs.(l).Emit.regs.(reg) <- I.tv (V.VInt (Lanes.get_i w.ki (src + l))) ty
    done
  | MBoxF { reg; ty; src } ->
    for k = 0 to nact - 1 do
      let l = Array.unsafe_get lx k in
      w.renvs.(l).Emit.regs.(reg) <-
        I.tv (V.VFloat (Lanes.get_f w.kf (src + l))) ty
    done

(* Compile a straight-line list of fast shapes — a fused region, or
   one instruction with its boxed crossings — into one closure.
   Returns the closure and the site it leaves in [cur_site] (so the
   caller's site-tracking stays exact: MSite micro-ops are emitted at
   every site change in instruction order, like the site closures).
   Each instruction consumes a fresh iid, so hazard-log clustering sees
   one identity per instruction. *)
let emit_fused (c : cenv) (tracked : int option) (instrs : Core.instr list) :
  (wenv -> unit) * int option =
  let mops = ref [] in
  let charges : ((int * I.op_class) * int) list ref = ref [] in
  let cur = ref tracked in
  List.iter
    (fun (i : Core.instr) ->
       if c.c_sited && !cur <> Some i.Core.i_site then begin
         mops := MSite i.Core.i_site :: !mops;
         cur := Some i.Core.i_site
       end;
       let iid = !(c.c_iid) in
       incr c.c_iid;
       match fuse_ikind c ~iid i.Core.i_kind with
       | None -> assert false (* callers pass fast shapes only *)
       | Some (m, chg) ->
         let unboxes, box = crossings c i.Core.i_kind in
         mops := List.rev_append box (m :: List.rev_append unboxes !mops);
         (match chg with
          | None -> ()
          | Some cls ->
            let site = if c.c_sited then i.Core.i_site else -1 in
            let key = (site, cls) in
            let n = Option.value (List.assoc_opt key !charges) ~default:0 in
            charges := (key, n + 1) :: List.remove_assoc key !charges))
    instrs;
  let mops = Array.of_list (List.rev !mops) in
  let charges =
    Array.of_list (List.rev_map (fun ((s, k), n) -> (s, k, n)) !charges)
  in
  let f w =
    if w.mask <> 0 then begin
      let live = all_live w in
      let full = w.mask = live in
      if not !bug_skip_charge then begin
        let lanes = popcount w.mask in
        for k = 0 to Array.length charges - 1 do
          let s, kls, n = charges.(k) in
          w.h.k_charge (if s >= 0 then s else w.amb) kls (n * lanes)
        done
      end;
      let mask = if !bug_drop_mask then live else w.mask in
      (* expand the (sequence-constant) mask once into a dense
         lane-index scratch shared by every micro-op's counted loop *)
      let nact = ref 0 in
      let m = ref mask and l = ref 0 in
      while !m <> 0 do
        if !m land 1 = 1 then begin
          Array.unsafe_set w.lidx !nact !l;
          incr nact
        end;
        incr l;
        m := !m lsr 1
      done;
      let nact = !nact in
      for k = 0 to Array.length mops - 1 do
        exec_mop w nact full (Array.unsafe_get mops k)
      done
    end
  in
  (f, !cur)

(* ------------------------------------------------------------------ *)
(* Emitters                                                            *)
(* ------------------------------------------------------------------ *)

let site_closure (s : int) : wenv -> unit =
  if s < 0 then fun w -> w.h.k_ctx.I.cur_site := w.amb
  else fun w -> w.h.k_ctx.I.cur_site := s

(* Generic execution: the scalar backend's own closure, one lane at a
   time under the active mask, with the shared context repointed per
   lane.  ZeroFill writes bytes without the access hook, so its hazard
   entries are appended manually. *)
let emit_generic (c : cenv) (i : Core.instr) : wenv -> unit =
  let f = Emit.emit_ikind c.c_bst i.Core.i_kind in
  let iid = !(c.c_iid) in
  incr c.c_iid;
  let uni = ikind_uniform c.c_uni i.Core.i_kind in
  let zerofill =
    match i.Core.i_kind with
    | Core.ZeroFill v -> Some (v, c.c_bst.Emit.fmem.(v).Core.m_size)
    | _ -> None
  in
  fun w ->
    if w.mask <> 0 then begin
      set_flags w iid uni;
      iter_lanes w.mask (fun l ->
          w.h.k_set_lane (w.lane0 + l);
          f w.renvs.(l));
      match zerofill with
      | Some (v, size) ->
        iter_lanes w.mask (fun l ->
            let b = w.renvs.(l).Emit.mem.(v) in
            if b.I.b_space <> AS_private then
              record w.h.k_log w.h.k_flags ~lane:(w.lane0 + l) Memory.Store
                b.I.b_space b.I.b_addr size)
      | None -> ()
    end

let barrier_name n = n = "barrier" || n = "__syncthreads"

let rec emit_body (c : cenv) (tracked : int option) (b : Core.body) :
  wenv -> unit =
  (* fusable = a fast shape over lane-resident registers only;
     barriers and control flow are never fast shapes, so they always
     end a run *)
  let fast (i : Core.instr) = fast_shape c.c_lt c.c_cls i.Core.i_kind in
  let fusable i = fast i && boxed_regs c i.Core.i_kind = [] in
  let rec build tracked acc = function
    | [] -> acc
    | Region.Straight instrs :: rest ->
      (* site closures fold into the region as MSite micro-ops *)
      incr c.c_regions;
      let f, tracked = emit_fused c tracked instrs in
      build tracked (f :: acc) rest
    | Region.Other (Core.Ins i) :: rest when fast i ->
      (* a fast shape touching a boxed register: alone, with its
         crossings *)
      let f, tracked = emit_fused c tracked [ i ] in
      build tracked (f :: acc) rest
    | Region.Other (Core.Ins ({ Core.i_kind = Core.Barrier _; _ } as i))
      :: rest ->
      let acc, tracked =
        if c.c_sited && tracked <> Some i.Core.i_site then
          (site_closure i.Core.i_site :: acc, Some i.Core.i_site)
        else (acc, tracked)
      in
      let f w =
        if w.mask <> 0 then begin
          if w.mask <> all_live w then
            bail "barrier under divergent control";
          check_log w.h.k_log ~atomics_clean:w.h.k_atomics_clean;
          Effect.perform (I.Barrier I.Barrier_local)
        end
      in
      build tracked (f :: acc) rest
    | Region.Other (Core.Ins i) :: rest ->
      let acc, tracked =
        if c.c_sited && tracked <> Some i.Core.i_site then
          (site_closure i.Core.i_site :: acc, Some i.Core.i_site)
        else (acc, tracked)
      in
      build tracked (emit_generic c i :: acc) rest
    | Region.Other (Core.If (site, cond, t, e)) :: rest ->
      let acc =
        if c.c_sited && tracked <> Some site then site_closure site :: acc
        else acc
      in
      build None (emit_if c site cond t e :: acc) rest
    | Region.Other (Core.Loop l) :: rest ->
      build None (emit_loop c l :: acc) rest
    | Region.Other (Core.Return o) :: rest ->
      let f =
        match o with
        | None ->
          fun w ->
            if w.mask <> 0 then begin
              w.ret <- w.ret lor w.mask;
              w.mask <- 0
            end
        | Some o ->
          let ra = rd_any c o in
          fun w ->
            if w.mask <> 0 then begin
              iter_lanes w.mask (fun l -> w.retv.(l) <- ra w l);
              w.ret <- w.ret lor w.mask;
              w.mask <- 0
            end
      in
      build tracked (f :: acc) rest
    | Region.Other Core.Break :: rest ->
      let f w =
        w.brk <- w.brk lor w.mask;
        w.mask <- 0
      in
      build tracked (f :: acc) rest
    | Region.Other Core.Continue :: rest ->
      let f w =
        w.cont <- w.cont lor w.mask;
        w.mask <- 0
      in
      build tracked (f :: acc) rest
  in
  match
    Array.of_list (List.rev (build tracked [] (Region.segment ~fusable b)))
  with
  | [||] -> fun _ -> ()
  | [| f |] -> f
  | cls ->
    fun w ->
      for k = 0 to Array.length cls - 1 do
        (Array.unsafe_get cls k) w
      done

and emit_if (c : cenv) site cond t e : wenv -> unit =
  let rb = rd_bool c cond in
  let fc = cond_keep c cond in
  let tb = emit_body c (Some site) t in
  let eb = emit_body c (Some site) e in
  fun w ->
    if w.mask <> 0 then begin
      let m = w.mask in
      charge w I.Op_branch;
      let tm = ref 0 in
      (* branch decisions are only observed in attribution mode
         ([k_branch]); the validator's observer is never installed
         under lockstep (the launcher requires it absent) *)
      (match w.h.k_branch, fc with
       | None, Some fc -> tm := fc w m
       | None, None ->
         iter_lanes m (fun l -> if rb w l then tm := !tm lor (1 lsl l))
       | Some kb, _ ->
         iter_lanes m (fun l ->
             let b = rb w l in
             if b then tm := !tm lor (1 lsl l);
             kb (w.lane0 + l) b));
      let tm = !tm in
      let em = m land lnot tm in
      w.mask <- tm;
      tb w;
      let ts = w.mask in
      w.mask <- em;
      eb w;
      w.mask <- ts lor w.mask
    end

and emit_loop (c : cenv) (l : Core.loop) : wenv -> unit =
  let init = emit_body c None l.Core.l_init in
  let pre = emit_body c None l.Core.l_pre in
  let cond =
    Option.map
      (fun (cb, co) -> (emit_body c None cb, rd_bool c co, cond_keep c co))
      l.Core.l_cond
  in
  let body = emit_body c None l.Core.l_body in
  let update = emit_body c None l.Core.l_update in
  let set_site =
    if c.c_sited then site_closure l.Core.l_site else fun _ -> ()
  in
  (* One per-iteration head: charge the branch for every still-active
     lane, evaluate the condition per lane, shrink the mask.  A missing
     condition charges but observes nothing (scalar: `None -> true`). *)
  let head w =
    set_site w;
    charge w I.Op_branch;
    match cond with
    | None -> ()
    | Some (cb, rc, fc) ->
      cb w;
      let m = w.mask in
      let keep = ref 0 in
      (match w.h.k_branch, fc with
       | None, Some fc -> keep := fc w m
       | None, None ->
         iter_lanes m (fun l -> if rc w l then keep := !keep lor (1 lsl l))
       | Some kb, _ ->
         iter_lanes m (fun l ->
             let b = rc w l in
             if b then keep := !keep lor (1 lsl l);
             kb (w.lane0 + l) b));
      w.mask <- !keep
  in
  match l.Core.l_kind with
  | `While | `For ->
    fun w ->
      if w.mask <> 0 then begin
        (* re-convergence point: every entering lane that does not
           return inside the loop — whether it left through the
           condition or a break — resumes after it *)
        let entry = w.mask in
        init w;
        pre w;
        let sbrk = w.brk and scont = w.cont in
        w.brk <- 0;
        w.cont <- 0;
        let running = ref true in
        while !running do
          head w;
          if w.mask = 0 then running := false
          else begin
            body w;
            w.mask <- w.mask lor w.cont;
            w.cont <- 0;
            update w
          end
        done;
        w.mask <- entry land lnot w.ret;
        w.brk <- sbrk;
        w.cont <- scont
      end
  | `DoWhile ->
    fun w ->
      if w.mask <> 0 then begin
        let entry = w.mask in
        init w;
        pre w;
        let sbrk = w.brk and scont = w.cont in
        w.brk <- 0;
        w.cont <- 0;
        let running = ref true in
        while !running do
          body w;
          w.mask <- w.mask lor w.cont;
          w.cont <- 0;
          if w.mask = 0 then running := false
          else begin
            head w;
            if Option.is_none cond || w.mask = 0 then running := false
          end
        done;
        w.mask <- entry land lnot w.ret;
        w.brk <- sbrk;
        w.cont <- scont
      end

(* ------------------------------------------------------------------ *)
(* Eligibility                                                         *)
(* ------------------------------------------------------------------ *)

(* Collect facts a kernel must satisfy: only the two known barrier
   flavors, never in expression position, and every user callee
   transitively analyzable and barrier-free (a callee barrier would
   suspend the warp fiber mid-lane-loop). *)
let scan_calls (fn : Core.fn) : (string list, string) result =
  let calls = ref [] in
  let bad = ref None in
  let note e = if !bad = None then bad := Some e in
  let rhs = function
    | Core.CallE (n, _) when barrier_name n ->
      note "barrier call in expression position"
    | Core.CallU (n, _) -> calls := n :: !calls
    | _ -> ()
  in
  let ins i =
    match i.Core.i_kind with
    | Core.Let (_, r) | Core.Do r -> rhs r
    | Core.Barrier (n, _, _) when not (barrier_name n) ->
      note ("unsupported barrier flavor " ^ n)
    | _ -> ()
  in
  let rec node = function
    | Core.Ins i -> ins i
    | Core.If (_, _, t, e) ->
      walk t;
      walk e
    | Core.Loop l ->
      walk l.Core.l_init;
      walk l.Core.l_pre;
      (match l.Core.l_cond with Some (cb, _) -> walk cb | None -> ());
      walk l.Core.l_body;
      walk l.Core.l_update
    | Core.Return _ | Core.Break | Core.Continue -> ()
  and walk b = List.iter node b in
  walk fn.Core.f_body;
  match !bad with
  | Some e -> Error e
  | None -> Ok (List.sort_uniq compare !calls)

let rec callee_clean (est : Emit.t) (visiting : string list) (n : string) :
  (unit, string) result =
  if List.mem n visiting then Ok ()
  else
    match Ir.Emit.ir est n with
    | Some (Ok cfn) ->
      let has_barrier = ref false in
      let rec node = function
        | Core.Ins { Core.i_kind = Core.Barrier _; _ } -> has_barrier := true
        | Core.Ins _ | Core.Return _ | Core.Break | Core.Continue -> ()
        | Core.If (_, _, t, e) ->
          walk t;
          walk e
        | Core.Loop l ->
          walk l.Core.l_init;
          walk l.Core.l_pre;
          (match l.Core.l_cond with Some (cb, _) -> walk cb | None -> ());
          walk l.Core.l_body;
          walk l.Core.l_update
      and walk b = List.iter node b in
      walk cfn.Core.f_body;
      if !has_barrier then Error ("callee " ^ n ^ " contains a barrier")
      else
        (match scan_calls cfn with
         | Error e -> Error ("callee " ^ n ^ ": " ^ e)
         | Ok subs ->
           List.fold_left
             (fun acc s ->
                match acc with
                | Error _ -> acc
                | Ok () -> callee_clean est (n :: visiting) s)
             (Ok ()) subs)
    | _ -> Error ("callee " ^ n ^ " is not IR-compiled")

(* ------------------------------------------------------------------ *)
(* Plans                                                               *)
(* ------------------------------------------------------------------ *)

type plan = {
  p_name : string;
  p_warp : int;
  p_nki : int;
  p_nkf : int;
  p_nregs : int;
  p_nmem : int;
  p_sited : bool;
  p_fused : int; (* fused regions formed *)
  p_crossed : int; (* fast shapes run alone through boxed crossings *)
  p_ret : ty;
  p_binders : (wenv -> I.tval array -> unit) array;
  p_body : wenv -> unit;
}

let plan_for (est : Emit.t) ~(name : string) ~(warp : int) :
  (plan, string) result =
  match Ir.Emit.ir est name with
  | None -> Error "unknown function"
  | Some (Error e) -> Error ("not IR-compiled: " ^ e)
  | Some (Ok fn) ->
    if warp > 62 then Error "warp wider than the mask word"
    else begin
      let lt = est.Emit.e_layout in
      let uni = Uniform.analyze lt fn in
      if not uni.Uniform.barrier_ok then
        Error "barrier under thread-dependent control"
      else
        match scan_calls fn with
        | Error e -> Error e
        | Ok calls ->
          let callees =
            List.fold_left
              (fun acc n ->
                 match acc with
                 | Error _ -> acc
                 | Ok () -> callee_clean est [ name ] n)
              (Ok ()) calls
          in
          (match callees with
           | Error e -> Error e
           | Ok () ->
             let nregs = max fn.Core.f_nregs 1 in
             let cls = Region.classify lt fn in
             let bst = Emit.boxed_bst est fn in
             let c0 =
               { c_bst = bst;
                 c_lt = lt;
                 c_uni = uni;
                 c_cls = cls;
                 c_store = Array.make nregs SRow;
                 c_w = warp;
                 c_shadow = Array.make nregs (-1);
                 c_iid = ref 0;
                 c_sited = fn.Core.f_sited;
                 c_regions = ref 0 }
             in
             (* residency: lane files hold registers whose every def is
                a fast shape and that never feed a generic closure *)
             let boxed = Array.make nregs false in
             let mark_op = function
               | Core.Reg r -> boxed.(r) <- true
               | Core.Cst _ -> ()
             in
             let mark_ins (i : Core.instr) =
               if not (fast_shape lt cls i.Core.i_kind) then begin
                 List.iter mark_op (Core.ikind_operands i.Core.i_kind);
                 Option.iter (fun r -> boxed.(r) <- true)
                   (ikind_def i.Core.i_kind)
               end
             in
             Region.iter_instrs mark_ins fn.Core.f_body;
             let nki = ref 0 and nkf = ref 0 in
             let storage = c0.c_store in
             for r = 0 to nregs - 1 do
               if not boxed.(r) then
                 match cls.(r) with
                 | CI _ ->
                   storage.(r) <- SInt !nki;
                   incr nki
                 | CF _ ->
                   storage.(r) <- SFloat !nkf;
                   incr nkf
                 | CTop -> ()
             done;
             (* shadows: one lane slot per boxed register a fast shape
                reads or writes *)
             let crossed = ref 0 in
             let shadow r =
               if c0.c_shadow.(r) < 0 then
                 match cls.(r) with
                 | CI _ ->
                   c0.c_shadow.(r) <- !nki * warp;
                   incr nki
                 | CF _ ->
                   c0.c_shadow.(r) <- !nkf * warp;
                   incr nkf
                 | CTop -> ()
             in
             Region.iter_instrs
               (fun i ->
                  let k = i.Core.i_kind in
                  if fast_shape lt cls k then
                    match boxed_regs c0 k with
                    | [] -> ()
                    | rs ->
                      incr crossed;
                      List.iter shadow rs)
               fn.Core.f_body;
             let fname = fn.Core.f_name in
             let binders =
               Array.mapi
                 (fun idx (p : Core.pbind) ->
                    let norm = Core.normalizer lt p.Core.p_ty in
                    let r = p.Core.p_reg in
                    match storage.(r) with
                    | SRow ->
                      fun w (args : I.tval array) ->
                        let arg =
                          if idx < Array.length args then args.(idx)
                          else
                            I.fail "missing argument %d in call to %s"
                              (idx + 1) fname
                        in
                        let v = norm arg in
                        for l = 0 to w.n - 1 do
                          w.renvs.(l).Emit.regs.(r) <- v
                        done
                    | SInt k ->
                      let base = k * warp in
                      fun w args ->
                        let arg =
                          if idx < Array.length args then args.(idx)
                          else
                            I.fail "missing argument %d in call to %s"
                              (idx + 1) fname
                        in
                        let raw = V.to_int (norm arg).I.v in
                        for l = 0 to w.n - 1 do
                          Lanes.set_i w.ki (base + l) raw
                        done
                    | SFloat k ->
                      let base = k * warp in
                      fun w args ->
                        let arg =
                          if idx < Array.length args then args.(idx)
                          else
                            I.fail "missing argument %d in call to %s"
                              (idx + 1) fname
                        in
                        let raw = V.to_float (norm arg).I.v in
                        for l = 0 to w.n - 1 do
                          Lanes.set_f w.kf (base + l) raw
                        done)
                 fn.Core.f_params
             in
             let body = emit_body c0 (Some (-1)) fn.Core.f_body in
             Ok
               { p_name = fname;
                 p_warp = warp;
                 p_nki = !nki;
                 p_nkf = !nkf;
                 p_nregs = fn.Core.f_nregs;
                 p_nmem = Array.length fn.Core.f_mem;
                 p_sited = fn.Core.f_sited;
                 p_fused = !(c0.c_regions);
                 p_crossed = !crossed;
                 p_ret = fn.Core.f_ret;
                 p_binders = binders;
                 p_body = body })
    end

(* ------------------------------------------------------------------ *)
(* Warp driver                                                         *)
(* ------------------------------------------------------------------ *)

(* Run one warp of [nlanes] items through the plan; mirrors
   Emit.prepare_fn's wrapper (depth guard, per-lane stack-arena
   mark/release, ambient site restore).  Any exception — a hazard Bail
   or a lane fault — releases resources and propagates; the launcher
   rolls the launch back and reruns it on the scalar engine, which
   reproduces real faults with exact scalar semantics. *)
let run_warp (p : plan) (h : hooks) ~(lane0 : int) ~(nlanes : int)
    ~(args : I.tval array) : unit =
  let ctx = h.k_ctx in
  ctx.I.call_depth <- ctx.I.call_depth + 1;
  if ctx.I.call_depth > 512 then begin
    ctx.I.call_depth <- ctx.I.call_depth - 1;
    raise (Bail (Printf.sprintf "call depth exceeded in %s" p.p_name))
  end;
  let ambient = !(ctx.I.cur_site) in
  let arena () = ctx.I.arena_of ctx.I.stack_space in
  let marks = Array.make nlanes 0 in
  for l = 0 to nlanes - 1 do
    h.k_set_lane (lane0 + l);
    marks.(l) <- Memory.mark (arena ())
  done;
  let renvs =
    Array.init nlanes (fun _ ->
        { Emit.ctx;
          regs = Array.make (max p.p_nregs 1) I.tunit;
          ints = Emit.no_ints;
          flts = Emit.no_flts;
          mem =
            (if p.p_nmem = 0 then [||]
             else Array.make p.p_nmem Emit.dummy_binding);
          ambient })
  in
  let w =
    { h;
      lane0;
      n = nlanes;
      amb = ambient;
      mask = (1 lsl nlanes) - 1;
      ret = 0;
      brk = 0;
      cont = 0;
      ki = Lanes.ints (p.p_nki * p.p_warp);
      kf = Lanes.floats (p.p_nkf * p.p_warp);
      renvs;
      retv = Array.make (max nlanes 1) I.tunit;
      lidx = Array.make (max nlanes 1) 0 }
  in
  let finish () =
    for l = nlanes - 1 downto 0 do
      h.k_set_lane (lane0 + l);
      Memory.release (arena ()) marks.(l)
    done;
    ctx.I.call_depth <- ctx.I.call_depth - 1;
    if p.p_sited then ctx.I.cur_site := ambient
  in
  match
    Array.iter (fun b -> b w args) p.p_binders;
    p.p_body w;
    check_log h.k_log ~atomics_clean:h.k_atomics_clean
  with
  | () ->
    finish ();
    (* mirror the scalar wrapper's post-return cast (after the arena
       release and site restore, like Return_exc unwinding) *)
    iter_lanes w.ret (fun l ->
        let v = w.retv.(l) in
        if not (equal_ty v.I.ty p.p_ret) then begin
          h.k_set_lane (lane0 + l);
          ignore (I.cast_value ctx p.p_ret v)
        end)
  | exception e ->
    finish ();
    raise e
