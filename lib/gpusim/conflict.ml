(* Cross-block dependence detection for the domain-parallel executor.

   The parallel mode is optimistic: thread blocks run concurrently while
   every access they make to a *shared* address space (global, constant,
   host) is logged per block.  After the join, the logs are checked for
   cross-block dependences; if any exist the attempt is rolled back and
   the launch replays sequentially, so the observable behaviour is the
   sequential one by construction.

   Ordinary accesses are kept as byte intervals (coalesced on append:
   per-item streaming patterns collapse to a handful of ranges).  Atomic
   read-modify-writes are kept separately as exact cells tagged with a
   commutativity class: same-class atomics on the same cell commute —
   the final memory value is independent of interleaving — provided no
   kernel ever *uses* an atomic's return value, which a static scan of
   the launched code establishes up front. *)

open Minic.Ast

(* Commutativity class of an atomic RMW.  [Kadd] covers add and subtract
   on integers (modular, so order-free); [Kinc]/[Kdec] are CUDA's
   wrapping increment/decrement, order-free only among ops with the same
   bound; [Kother] (exchange, compare-and-swap, any float op — rounding
   is order-sensitive) never commutes across blocks. *)
type klass =
  | Kadd
  | Kmin
  | Kmax
  | Kinc of int64
  | Kdec of int64
  | Kother

(* Shared address spaces are logged into one flat address line; tagging
   keeps offsets from different arenas from colliding.  Arena offsets
   are far below 2^45. *)
let tag (space : addr_space) addr =
  match space with
  | AS_global -> addr
  | AS_constant -> addr + (1 lsl 45)
  | AS_none -> addr + (2 lsl 45)
  | AS_local | AS_private -> addr  (* never logged *)

(* --- per-block interval logs --------------------------------------- *)

(* Flat [lo; hi) pairs.  An append that lies within or extends one of
   the last few intervals merges into it, which collapses the common
   streaming patterns — including a few interleaved streams, one per
   argument buffer — to O(1) entries.  Merging is exact: the check only
   sees each block's sorted, merged intervals, which depend on the union
   of what was pushed and not on how it was split. *)
type ilog = {
  mutable buf : int array;
  mutable len : int;
}

let ilog_create () = { buf = Array.make 32 0; len = 0 }

let merge_window = 4

let ilog_push l lo hi =
  let buf = l.buf in
  let stop = Int.max 0 (l.len - (2 * merge_window)) in
  let rec absorb i =
    if i < stop then false
    else if buf.(i) <= lo && lo <= buf.(i + 1) then begin
      if hi > buf.(i + 1) then buf.(i + 1) <- hi;
      true
    end
    else absorb (i - 2)
  in
  if not (absorb (l.len - 2)) then begin
    if l.len + 2 > Array.length buf then begin
      let bigger = Array.make (2 * Array.length buf) 0 in
      Array.blit buf 0 bigger 0 l.len;
      l.buf <- bigger
    end;
    l.buf.(l.len) <- lo;
    l.buf.(l.len + 1) <- hi;
    l.len <- l.len + 2
  end

type block_log = {
  lb_block : int;                          (* linear block id *)
  lb_reads : ilog;
  lb_writes : ilog;
  lb_atomics : (int * int * klass, unit) Hashtbl.t;  (* addr, size, class *)
}

let block_log block =
  { lb_block = block;
    lb_reads = ilog_create ();
    lb_writes = ilog_create ();
    lb_atomics = Hashtbl.create 4 }

let record_read b addr size = ilog_push b.lb_reads addr (addr + size)
let record_write b addr size = ilog_push b.lb_writes addr (addr + size)

let record_atomic b addr size k =
  Hashtbl.replace b.lb_atomics (addr, size, k) ()

(* --- the cross-block check ----------------------------------------- *)

(* The check runs in O(n log n) on unboxed int arrays, sized once per
   call from the log lengths: no tuples, lists or polymorphic
   comparisons on the way to a verdict.

   An interval table holds [lo, hi) and the owning block in parallel
   columns.  Rows are appended unsorted, then sorted by (lo, hi, blk);
   over the sorted rows, [m1.(i)] is the largest [hi] among rows 0..i,
   [b1.(i)] a block attaining it, and [m2.(i)] the largest [hi] among
   rows 0..i owned by a block other than [b1.(i)].  "Does [lo, hi)
   overlap a row of a block other than [blk]?" is then a binary search
   for the rows starting before [hi] plus one look at the prefix
   summary: the largest end among other blocks' rows is [m1] unless
   [b1 = blk], in which case it is [m2]. *)
type tab = {
  lo : int array;
  hi : int array;
  blk : int array;
  mutable n : int;
  mutable m1 : int array;
  mutable b1 : int array;
  mutable m2 : int array;
}

let tab_create cap =
  { lo = Array.make cap 0; hi = Array.make cap 0; blk = Array.make cap 0;
    n = 0; m1 = [||]; b1 = [||]; m2 = [||] }

let tab_push t lo hi blk =
  t.lo.(t.n) <- lo;
  t.hi.(t.n) <- hi;
  t.blk.(t.n) <- blk;
  t.n <- t.n + 1

(* Sort permutation and merge buffer, shared by every sort of a check. *)
type sorter = {
  perm : int array;
  tmp : int array;
}

(* Set [sc.perm.(0 .. n-1)] to the indices 0 .. n-1 sorted under the
   total preorder [le] (merge sort with insertion-sorted runs;
   already-ordered halves skip the merge, so nearly sorted input — the
   usual case — costs O(n)). *)
let sort_perm sc n le =
  let p = sc.perm and tmp = sc.tmp in
  for i = 0 to n - 1 do
    p.(i) <- i
  done;
  let rec sort lo hi =
    if hi - lo <= 12 then
      for i = lo + 1 to hi - 1 do
        let x = p.(i) in
        let j = ref (i - 1) in
        while !j >= lo && not (le p.(!j) x) do
          p.(!j + 1) <- p.(!j);
          decr j
        done;
        p.(!j + 1) <- x
      done
    else begin
      let mid = (lo + hi) / 2 in
      sort lo mid;
      sort mid hi;
      if not (le p.(mid - 1) p.(mid)) then begin
        Array.blit p lo tmp lo (mid - lo);
        let i = ref lo and j = ref mid and k = ref lo in
        while !i < mid && !j < hi do
          if le tmp.(!i) p.(!j) then begin
            p.(!k) <- tmp.(!i);
            incr i
          end
          else begin
            p.(!k) <- p.(!j);
            incr j
          end;
          incr k
        done;
        Array.blit tmp !i p !k (mid - !i)
      end
    end
  in
  sort 0 n

(* Append block [blk]'s logged intervals to [t], sorted and merged
   (touching intervals merge too). *)
let push_merged sc t (l : ilog) blk =
  let n = l.len / 2 in
  if n > 0 then begin
    let buf = l.buf in
    sort_perm sc n (fun x y ->
        let a = buf.(2 * x) and b = buf.(2 * y) in
        a < b || (a = b && buf.((2 * x) + 1) <= buf.((2 * y) + 1)));
    let p = sc.perm in
    let clo = ref buf.(2 * p.(0)) and chi = ref buf.((2 * p.(0)) + 1) in
    for k = 1 to n - 1 do
      let lo = buf.(2 * p.(k)) and hi = buf.((2 * p.(k)) + 1) in
      if lo <= !chi then (if hi > !chi then chi := hi)
      else begin
        tab_push t !clo !chi blk;
        clo := lo;
        chi := hi
      end
    done;
    tab_push t !clo !chi blk
  end

(* Sort [t]'s rows by (lo, hi, blk) and build the prefix summaries. *)
let tab_finish sc t =
  let n = t.n in
  let lo = t.lo and hi = t.hi and blk = t.blk in
  sort_perm sc n (fun x y ->
      let a = lo.(x) and b = lo.(y) in
      a < b
      || a = b
         && (let c = hi.(x) and d = hi.(y) in
             c < d || (c = d && blk.(x) <= blk.(y))));
  let permute col =
    for i = 0 to n - 1 do
      sc.tmp.(i) <- col.(sc.perm.(i))
    done;
    Array.blit sc.tmp 0 col 0 n
  in
  permute lo;
  permute hi;
  permute blk;
  t.m1 <- Array.make n 0;
  t.b1 <- Array.make n 0;
  t.m2 <- Array.make n 0;
  let m1 = ref min_int and b1 = ref (-1) and m2 = ref min_int in
  for i = 0 to n - 1 do
    let h = t.hi.(i) and b = t.blk.(i) in
    if h > !m1 then begin
      if b <> !b1 then begin
        m2 := !m1;
        b1 := b
      end;
      m1 := h
    end
    else if b <> !b1 && h > !m2 then m2 := h;
    t.m1.(i) <- !m1;
    t.b1.(i) <- !b1;
    t.m2.(i) <- !m2
  done

(* Does [lo, hi) overlap a row of [t] owned by a block other than
   [blk]?  Rows "overlap" when they start before [hi] and end after
   [lo]. *)
let hits t ~blk lo hi =
  let rec bsearch a b =
    if a >= b then a
    else
      let m = (a + b) / 2 in
      if t.lo.(m) < hi then bsearch (m + 1) b else bsearch a m
  in
  let p = bsearch 0 t.n in
  p > 0
  && (if t.b1.(p - 1) <> blk then t.m1.(p - 1) > lo else t.m2.(p - 1) > lo)

let klass_equal a b =
  match a, b with
  | Kadd, Kadd | Kmin, Kmin | Kmax, Kmax | Kother, Kother -> true
  | Kinc x, Kinc y | Kdec x, Kdec y -> Int64.equal x y
  | (Kadd | Kmin | Kmax | Kinc _ | Kdec _ | Kother), _ -> false

(* A set of block ids summarised by two distinct members (-1: absent);
   enough to answer "does it hold a block other than [b]?". *)
let two_add (t : int array) i b =
  if t.(2 * i) < 0 then t.(2 * i) <- b
  else if b <> t.(2 * i) && t.((2 * i) + 1) < 0 then t.((2 * i) + 1) <- b

let two_other (t : int array) i b =
  (t.(2 * i) >= 0 && t.(2 * i) <> b)
  || (t.((2 * i) + 1) >= 0 && t.((2 * i) + 1) <> b)

(* Atomics, in the order the verdict is decided.  An atom conflicts when
   it overlaps an ordinary access of another block, or an atom of
   another block unless both are the same commuting class on the very
   same cell.  Atoms are grouped by cell (addr, size): a per-cell block
   summary answers same-cell partners, a per-cell summary of the blocks
   on overlapping *other* cells answers the rest.  Distinct cells that
   overlap are found by a forward sweep over cells sorted by start,
   linear for element-sized cells. *)
let atomic_verdict ~w ~r (atoms : (int * int * klass * int) array) =
  let na = Array.length atoms in
  let a_lo i = let a, _, _, _ = atoms.(i) in a in
  let a_size i = let _, s, _, _ = atoms.(i) in s in
  let sc = { perm = Array.make na 0; tmp = Array.make na 0 } in
  sort_perm sc na (fun x y ->
      let a = a_lo x and b = a_lo y in
      a < b || (a = b && a_size x <= a_size y));
  let order = sc.perm in
  (* cell ids, cell bounds, first sorted position of each cell *)
  let cell_of = Array.make na 0 in
  let c_lo = Array.make na 0 and c_hi = Array.make na 0 in
  let c_start = Array.make (na + 1) 0 in
  let nc = ref 0 in
  Array.iteri
    (fun k i ->
       let lo = a_lo i and sz = a_size i in
       if k = 0 || lo <> c_lo.(!nc - 1) || lo + sz <> c_hi.(!nc - 1) then begin
         c_lo.(!nc) <- lo;
         c_hi.(!nc) <- lo + sz;
         c_start.(!nc) <- k;
         incr nc
       end;
       cell_of.(i) <- !nc - 1)
    order;
  let nc = !nc in
  c_start.(nc) <- na;
  let blocks = Array.make (2 * nc) (-1) in
  let uniform = Array.make nc true in
  Array.iteri
    (fun k i ->
       let _, _, kl, b = atoms.(i) in
       let c = cell_of.(i) in
       two_add blocks c b;
       let _, _, k0, _ = atoms.(order.(c_start.(c))) in
       if k <> c_start.(c) && not (klass_equal kl k0) then uniform.(c) <- false)
    order;
  (* a later cell starting before [c] ends overlaps it: it cannot end
     at or before [c]'s start, being a different cell that starts no
     earlier *)
  let cross = Array.make (2 * nc) (-1) in
  for c = 0 to nc - 1 do
    let d = ref (c + 1) in
    while !d < nc && c_lo.(!d) < c_hi.(c) do
      for s = 0 to 1 do
        let bc = blocks.((2 * c) + s) and bd = blocks.((2 * !d) + s) in
        if bd >= 0 then two_add cross c bd;
        if bc >= 0 then two_add cross !d bc
      done;
      incr d
    done
  done;
  (* a same-cell partner conflicts unless it is of the same commuting
     class; cells mixing classes are rare and scanned *)
  let same_cell i =
    let _, sz, k, b = atoms.(i) in
    let c = cell_of.(i) in
    sz > 0
    &&
    match k with
    | Kother -> two_other blocks c b
    | _ when uniform.(c) -> false
    | _ ->
      let rec scan q =
        q < c_start.(c + 1)
        && (let _, _, k', b' = atoms.(order.(q)) in
            (b' <> b && not (klass_equal k k')) || scan (q + 1))
      in
      scan c_start.(c)
  in
  let rec go i =
    if i >= na then None
    else
      let lo, sz, _, b = atoms.(i) in
      if hits w ~blk:b lo (lo + sz) || hits r ~blk:b lo (lo + sz) then
        Some "atomic overlaps ordinary access across blocks"
      else if same_cell i || two_other cross cell_of.(i) b then
        Some "non-commuting atomics on one cell across blocks"
      else go (i + 1)
  in
  go 0

(* [check logs ~atomics_clean] returns [Some reason] if running the
   logged blocks concurrently could be observed — a cross-block overlap
   involving a write, or atomics that do not provably commute.
   [atomics_clean = false] means some reachable code uses an atomic's
   return value, so atomics are treated as ordinary read-writes.

   The reason is decided in a fixed order: the writes in (lo, hi, blk)
   order, each first against later writes, then against reads; then the
   atomics in reverse log order. *)
let check (logs : block_log list) ~atomics_clean : string option =
  (* row bounds: logged intervals, plus atomics demoted to accesses *)
  let cap_w = ref 0 and cap_r = ref 0 in
  List.iter
    (fun b ->
       let a = if atomics_clean then 0 else Hashtbl.length b.lb_atomics in
       cap_w := !cap_w + (b.lb_writes.len / 2) + a;
       cap_r := !cap_r + (b.lb_reads.len / 2) + a)
    logs;
  let w = tab_create !cap_w and r = tab_create !cap_r in
  let cap = Int.max !cap_w !cap_r in
  let sc = { perm = Array.make cap 0; tmp = Array.make cap 0 } in
  let atoms = ref [] in
  List.iter
    (fun b ->
       push_merged sc w b.lb_writes b.lb_block;
       push_merged sc r b.lb_reads b.lb_block;
       Hashtbl.iter
         (fun (addr, size, k) () ->
            if atomics_clean then
              atoms := (addr, size, k, b.lb_block) :: !atoms
            else begin
              (* a used atomic result is an ordinary read-modify-write *)
              tab_push w addr (addr + size) b.lb_block;
              tab_push r addr (addr + size) b.lb_block
            end)
         b.lb_atomics)
    logs;
  tab_finish sc w;
  tab_finish sc r;
  (* write/write: the writes overlapping row i from later rows form a
     run starting at i + 1, so the first later row of another block
     decides *)
  let n = w.n in
  let nxt = Array.make n n in
  for i = n - 2 downto 0 do
    nxt.(i) <- (if w.blk.(i + 1) <> w.blk.(i) then i + 1 else nxt.(i + 1))
  done;
  let rec writes i =
    if i >= n then None
    else
      let lo = w.lo.(i) and hi = w.hi.(i) and blk = w.blk.(i) in
      if nxt.(i) < n && w.lo.(nxt.(i)) < hi then
        Some "write/write overlap across blocks"
      else if hits r ~blk lo hi then Some "read/write overlap across blocks"
      else writes (i + 1)
  in
  match writes 0 with
  | Some _ as v -> v
  | None ->
    if !atoms = [] then None else atomic_verdict ~w ~r (Array.of_list !atoms)

(* --- static scan: is any atomic's return value used? ----------------- *)

exception Used

(* [atomic_result_used prog kernel] walks the kernel and every function
   reachable from it.  An atomic call is "discarded" only as the root of
   an expression statement (or a for-loop update); anywhere else its
   value feeds the computation, which makes the interleaving observable
   and forces the sequential-replay path for overlapping atomics.
   Conservative: any consumed position counts, whole-launch granularity. *)
let atomic_result_used (prog : program) (kernel : func) : bool =
  let is_atomic = Xlat_analysis.Footprint.is_atomic_name in
  let seen = Hashtbl.create 8 in
  let todo = ref [ kernel ] in
  let note n =
    if not (Hashtbl.mem seen n) then begin
      Hashtbl.add seen n ();
      match find_function prog n with
      | Some f when f.fn_body <> None -> todo := f :: !todo
      | _ -> ()
    end
  in
  (* [used] refers to this node's own value *)
  let rec expr used e =
    match e with
    | Call (n, _, args) ->
      if used && is_atomic n then raise Used;
      if not (is_atomic n) then note n;
      List.iter (expr true) args
    | Launch l ->
      note l.l_kernel;
      expr true l.l_grid;
      expr true l.l_block;
      Option.iter (expr true) l.l_shmem;
      Option.iter (expr true) l.l_stream;
      List.iter (expr true) l.l_args
    | Unary (_, a) | Cast (_, a) | StaticCast (_, a)
    | ReinterpretCast (_, a) | Member (a, _) | SizeofE a -> expr true a
    | Binary (_, a, b) | Index (a, b) | Assign (_, a, b) ->
      expr true a; expr true b
    | Cond (c, a, b) -> expr true c; expr true a; expr true b
    | VecLit (_, l) -> List.iter (expr true) l
    | IntLit _ | FloatLit _ | StrLit _ | Ident _ | SizeofT _ -> ()
  in
  let rec init = function
    | IExpr e -> expr true e
    | IList l -> List.iter init l
  in
  let rec stmt = function
    | SExpr e -> expr false e
    | SDecl d -> Option.iter init d.d_init
    | SIf (c, a, b) -> expr true c; stmt a; Option.iter stmt b
    | SWhile (c, b) -> expr true c; stmt b
    | SDoWhile (b, c) -> stmt b; expr true c
    | SFor (i, c, u, b) ->
      Option.iter stmt i;
      Option.iter (expr true) c;
      Option.iter (expr false) u;
      stmt b
    | SReturn e -> Option.iter (expr true) e
    | SBreak | SContinue -> ()
    | SBlock l -> List.iter stmt l
    | SSite (_, s) -> stmt s
  in
  Hashtbl.add seen kernel.fn_name ();
  match
    while !todo <> [] do
      match !todo with
      | [] -> ()
      | f :: rest ->
        todo := rest;
        (match f.fn_body with
         | Some body -> List.iter stmt body
         | None -> ())
    done
  with
  | () -> false
  | exception Used -> true
