(* Equivalence of the block engine's bookkeeping with its reference
   implementations.

   The cross-block conflict check ([Gpusim.Conflict.check]) and the warp
   access costing ([Gpusim.Counters.finish_group]) run on unboxed
   scratch arrays.  The straightforward list/tuple/set versions they
   replaced are kept below as references, and qcheck properties pin the
   fast versions to them: the same [string option] verdict (reason
   included) for every block log, the same [Counters.t] and the same
   per-site [Attr] rows for every access stream. *)

open Minic.Ast
module C = Gpusim.Conflict
module K = Gpusim.Counters

(* --- reference conflict check ------------------------------------------ *)

module Ref_conflict = struct
  (* appends that extend or repeat the previous interval merge in place *)
  let ilog_push (l : C.ilog) lo hi =
    if l.len >= 2 && l.buf.(l.len - 2) <= lo && lo <= l.buf.(l.len - 1) then begin
      if hi > l.buf.(l.len - 1) then l.buf.(l.len - 1) <- hi
    end
    else begin
      if l.len + 2 > Array.length l.buf then begin
        let bigger = Array.make (2 * Array.length l.buf) 0 in
        Array.blit l.buf 0 bigger 0 l.len;
        l.buf <- bigger
      end;
      l.buf.(l.len) <- lo;
      l.buf.(l.len + 1) <- hi;
      l.len <- l.len + 2
    end

  let ilog_finalize (l : C.ilog) =
    let n = l.len / 2 in
    let iv = Array.init n (fun i -> (l.buf.(2 * i), l.buf.(2 * i + 1))) in
    Array.sort compare iv;
    let out = ref [] in
    Array.iter
      (fun (lo, hi) ->
         match !out with
         | (plo, phi) :: rest when lo <= phi -> out := (plo, max phi hi) :: rest
         | _ -> out := (lo, hi) :: !out)
      iv;
    Array.of_list (List.rev !out)

  type itab = {
    it_lo : int array;
    it_hi : int array;
    it_blk : int array;
  }

  let itab_of (entries : (int * int * int) list) =
    let a = Array.of_list entries in
    Array.sort compare a;
    { it_lo = Array.map (fun (lo, _, _) -> lo) a;
      it_hi = Array.map (fun (_, hi, _) -> hi) a;
      it_blk = Array.map (fun (_, _, b) -> b) a }

  let itab_hits t ~blk lo hi =
    let n = Array.length t.it_lo in
    let rec bsearch a b =
      if a >= b then a
      else
        let m = (a + b) / 2 in
        if t.it_lo.(m) < hi then bsearch (m + 1) b else bsearch a m
    in
    let stop = bsearch 0 n in
    let rec scan i =
      if i < 0 then false
      else if t.it_hi.(i) > lo && t.it_blk.(i) <> blk then true
      else scan (i - 1)
    in
    scan (stop - 1)

  let check (logs : C.block_log list) ~atomics_clean : string option =
    let writes = ref [] and reads = ref [] and atomics = ref [] in
    List.iter
      (fun (b : C.block_log) ->
         Array.iter
           (fun (lo, hi) -> writes := (lo, hi, b.lb_block) :: !writes)
           (ilog_finalize b.lb_writes);
         Array.iter
           (fun (lo, hi) -> reads := (lo, hi, b.lb_block) :: !reads)
           (ilog_finalize b.lb_reads);
         Hashtbl.iter
           (fun (addr, size, k) () ->
              if atomics_clean then
                atomics := (addr, size, k, b.lb_block) :: !atomics
              else begin
                writes := (addr, addr + size, b.lb_block) :: !writes;
                reads := (addr, addr + size, b.lb_block) :: !reads
              end)
           b.lb_atomics)
      logs;
    let wt = itab_of !writes in
    let rt = itab_of !reads in
    let conflict = ref None in
    let set reason = if !conflict = None then conflict := Some reason in
    let n = Array.length wt.it_lo in
    let i = ref 0 in
    while !conflict = None && !i < n do
      let lo = wt.it_lo.(!i) and hi = wt.it_hi.(!i) and blk = wt.it_blk.(!i) in
      let j = ref (!i + 1) in
      while !conflict = None && !j < n && wt.it_lo.(!j) < hi do
        if wt.it_blk.(!j) <> blk then set "write/write overlap across blocks";
        incr j
      done;
      if !conflict = None && itab_hits rt ~blk lo hi then
        set "read/write overlap across blocks";
      incr i
    done;
    let atoms = !atomics in
    List.iter
      (fun (addr, size, k, blk) ->
         if !conflict = None then begin
           if itab_hits wt ~blk addr (addr + size)
           || itab_hits rt ~blk addr (addr + size) then
             set "atomic overlaps ordinary access across blocks"
           else
             List.iter
               (fun (addr', size', k', blk') ->
                  if !conflict = None && blk' <> blk
                  && addr < addr' + size' && addr' < addr + size then
                    if not (addr = addr' && size = size' && k = k' && k <> C.Kother)
                    then set "non-commuting atomics on one cell across blocks")
               atoms
         end)
      atoms;
    !conflict
end

(* --- generated block logs ---------------------------------------------- *)

type op =
  | R of int * int                (* addr, size *)
  | W of int * int
  | A of int * int * C.klass

type log_case = {
  blocks : (int * op list) list;  (* block id, its accesses in order *)
  clean : bool;                   (* atomics_clean *)
}

let klass_name = function
  | C.Kadd -> "add"
  | C.Kmin -> "min"
  | C.Kmax -> "max"
  | C.Kinc b -> Printf.sprintf "inc%Ld" b
  | C.Kdec b -> Printf.sprintf "dec%Ld" b
  | C.Kother -> "other"

let print_log_case c =
  let op = function
    | R (a, s) -> Printf.sprintf "R%d+%d" a s
    | W (a, s) -> Printf.sprintf "W%d+%d" a s
    | A (a, s, k) -> Printf.sprintf "A%d+%d:%s" a s (klass_name k)
  in
  Printf.sprintf "clean=%b %s" c.clean
    (String.concat " | "
       (List.map
          (fun (b, ops) ->
             Printf.sprintf "b%d: %s" b (String.concat " " (List.map op ops)))
          c.blocks))

(* Small address ranges make duplicate, nested, touching and equal-start
   intervals common.  Half the cases give each block its own stretch of
   ordinary memory, so the atomics stage is reached often.  Atomics
   mostly hit a few shared element-sized cells, sometimes land in some
   block's ordinary stretch, and draw their classes from a per-case
   palette of one or two, so single-class cells (including all-[Kother]
   ones) are common. *)
let gen_log_case =
  let open QCheck.Gen in
  let klass =
    frequency
      [ (3, return C.Kadd); (1, return C.Kmin); (1, return C.Kmax);
        (1, map (fun b -> C.Kinc (Int64.of_int b)) (int_bound 1));
        (1, map (fun b -> C.Kdec (Int64.of_int b)) (int_bound 1));
        (2, return C.Kother) ]
  in
  let size =
    frequency [ (1, return 0); (6, int_range 1 8); (1, int_range 9 24) ]
  in
  let op base palette =
    let klass = oneofl palette in
    frequency
      [ (4, map2 (fun a s -> R (base + a, s)) (int_bound 40) size);
        (4, map2 (fun a s -> W (base + a, s)) (int_bound 40) size);
        (3,
         map3
           (fun cell s k -> A (512 + (4 * cell), s, k))
           (int_bound 3) (oneofl [ 4; 4; 4; 8; 2; 1 ]) klass);
        (1,
         map3 (fun a s k -> A (512 + a, s, k)) (int_bound 8)
           (oneofl [ 0; 0; 1; 4 ]) klass);
        (1,
         map3
           (fun (blk, a) s k -> A ((64 * blk) + a, s, k))
           (pair (int_bound 5) (int_bound 40)) (oneofl [ 1; 4 ]) klass) ]
  in
  int_range 1 5 >>= fun nb ->
  shuffle_l (List.init 10 Fun.id) >>= fun ids ->
  bool >>= fun disjoint ->
  bool >>= fun clean ->
  list_size (int_range 1 2) klass >>= fun palette ->
  let ids = List.filteri (fun i _ -> i < nb) ids in
  flatten_l
    (List.mapi
       (fun j b ->
          let base = if disjoint then 64 * j else 0 in
          map (fun ops -> (b, ops)) (list_size (int_bound 12) (op base palette)))
       ids)
  >|= fun blocks -> { blocks; clean }

let build_logs ~read ~write c =
  List.map
    (fun (blk, ops) ->
       let b = C.block_log blk in
       List.iter
         (function
           | R (a, s) -> read b a s
           | W (a, s) -> write b a s
           | A (a, s, k) -> C.record_atomic b a s k)
         ops;
       b)
    c.blocks

let verdict_of c =
  C.check
    (build_logs ~read:C.record_read ~write:C.record_write c)
    ~atomics_clean:c.clean

let reference_verdict_of c =
  Ref_conflict.check
    (build_logs
       ~read:(fun b a s -> Ref_conflict.ilog_push b.C.lb_reads a (a + s))
       ~write:(fun b a s -> Ref_conflict.ilog_push b.C.lb_writes a (a + s))
       c)
    ~atomics_clean:c.clean

let conflict_property =
  QCheck.Test.make ~count:3000
    ~name:"conflict check gives the reference verdict and reason"
    (QCheck.make ~print:print_log_case gen_log_case)
    (fun c -> verdict_of c = reference_verdict_of c)

(* Zero-width edges the generator rarely lines up: empty atom cells,
   empty intervals inside or at the start of another block's. *)
let conflict_edges =
  Alcotest.test_case "zero-width edge cases match the reference" `Quick
    (fun () ->
       List.iter
         (fun c ->
            Alcotest.(check (option string)) (print_log_case c)
              (reference_verdict_of c) (verdict_of c))
         [ { clean = true;
             blocks = [ (0, [ A (8, 0, C.Kother) ]); (1, [ A (8, 0, C.Kother) ]) ] };
           { clean = true;
             blocks = [ (0, [ A (8, 0, C.Kadd) ]); (1, [ A (8, 4, C.Kadd) ]) ] };
           { clean = true;
             blocks = [ (0, [ A (8, 4, C.Kadd) ]); (1, [ A (8, 0, C.Kadd) ]) ] };
           { clean = true;
             blocks = [ (0, [ A (8, 0, C.Kadd) ]); (1, [ A (6, 4, C.Kadd) ]) ] };
           { clean = false;
             blocks = [ (0, [ W (5, 0) ]); (1, [ R (0, 10) ]) ] };
           { clean = false;
             blocks = [ (0, [ W (5, 0) ]); (1, [ W (5, 4); R (0, 4) ]) ] };
           { clean = false;
             blocks = [ (1, [ W (5, 0); R (0, 9) ]); (0, [ W (5, 4) ]) ] } ])

let conflict_coverage =
  Alcotest.test_case "generated logs reach every verdict" `Quick (fun () ->
      let rand = Random.State.make [| 12 |] in
      let seen = Hashtbl.create 8 in
      for _ = 1 to 3000 do
        let v = reference_verdict_of (gen_log_case rand) in
        Hashtbl.replace seen (Option.value v ~default:"accepted") ()
      done;
      List.iter
        (fun v -> Alcotest.(check bool) v true (Hashtbl.mem seen v))
        [ "accepted"; "write/write overlap across blocks";
          "read/write overlap across blocks";
          "atomic overlaps ordinary access across blocks";
          "non-commuting atomics on one cell across blocks" ])

(* --- reference warp-access costing ------------------------------------- *)

module Ref_costing = struct
  module Iset = Set.Make (Int)

  let cost_row (c : K.t) ?attr ~smem_word ~banks ~model_conflicts
      (row : K.access list) =
    match row with
    | [] -> ()
    | first :: _ ->
      let site =
        match attr with None -> None | Some a -> Some (Gpusim.Attr.get a first.a_site)
      in
      (match first.a_space with
       | AS_global | AS_constant ->
         let segments =
           List.fold_left
             (fun acc (a : K.access) ->
                let s0 = a.a_addr / K.segment_size in
                let s1 = (a.a_addr + a.a_size - 1) / K.segment_size in
                let rec add acc s =
                  if s > s1 then acc else add (Iset.add s acc) (s + 1)
                in
                add acc s0)
             Iset.empty row
         in
         let txns = Iset.cardinal segments in
         let bytes = List.fold_left (fun n (a : K.access) -> n + a.a_size) 0 row in
         c.gmem_transactions <- c.gmem_transactions + txns;
         c.gmem_accesses <- c.gmem_accesses + List.length row;
         c.gmem_bytes <- c.gmem_bytes + bytes;
         (match site with
          | None -> ()
          | Some s ->
            s.gmem_transactions <- s.gmem_transactions + txns;
            s.gmem_bytes <- s.gmem_bytes + bytes)
       | AS_local ->
         c.smem_accesses <- c.smem_accesses + List.length row;
         let ways =
           if not model_conflicts then 1
           else begin
             let per_bank = Array.make banks Iset.empty in
             List.iter
               (fun (a : K.access) ->
                  let w0 = a.a_addr / smem_word in
                  let w1 = (a.a_addr + a.a_size - 1) / smem_word in
                  for w = w0 to w1 do
                    let b = w mod banks in
                    per_bank.(b) <- Iset.add w per_bank.(b)
                  done)
               row;
             Array.fold_left (fun m s -> max m (Iset.cardinal s)) 1 per_bank
           end
         in
         c.smem_transactions <- c.smem_transactions + ways;
         c.smem_bank_conflict_extra <- c.smem_bank_conflict_extra + (ways - 1);
         (match site with
          | None -> ()
          | Some s ->
            s.smem_transactions <- s.smem_transactions + ways;
            s.smem_conflict_extra <- s.smem_conflict_extra + (ways - 1))
       | AS_private | AS_none ->
         c.private_accesses <- c.private_accesses + List.length row)

  let finish_group (c : K.t) ?attr ?branches ~warp_size ~smem_word ~banks
      ~model_conflicts (streams : K.stream array) =
    c.n_groups <- c.n_groups + 1;
    let n = Array.length streams in
    c.n_items <- c.n_items + n;
    let nwarps = (n + warp_size - 1) / warp_size in
    for w = 0 to nwarps - 1 do
      let lo = w * warp_size in
      let hi = min n (lo + warp_size) - 1 in
      let max_len = ref 0 in
      for i = lo to hi do
        max_len := max !max_len streams.(i).len
      done;
      for pos = 0 to !max_len - 1 do
        let row = ref [] in
        for i = hi downto lo do
          if pos < streams.(i).len then row := streams.(i).items.(pos) :: !row
        done;
        let by_space sp = List.filter (fun (a : K.access) -> a.a_space = sp) !row in
        List.iter
          (fun sp ->
             match by_space sp with
             | [] -> ()
             | r -> cost_row c ?attr ~smem_word ~banks ~model_conflicts r)
          [ AS_global; AS_constant; AS_local; AS_private; AS_none ]
      done;
      (match branches with
       | None -> ()
       | Some (bs : K.bstream array) ->
         let max_blen = ref 0 in
         for i = lo to hi do
           max_blen := max !max_blen bs.(i).b_len
         done;
         for pos = 0 to !max_blen - 1 do
           let first = ref (-1) and divergent = ref false in
           for i = lo to hi do
             if pos < bs.(i).b_len then begin
               let v = bs.(i).b_items.(pos) in
               if !first < 0 then first := v
               else if v land 1 <> !first land 1 then divergent := true
             end
           done;
           if !divergent then begin
             c.warp_div_rows <- c.warp_div_rows + 1;
             match attr with
             | None -> ()
             | Some a ->
               let s = Gpusim.Attr.get a (!first lsr 1) in
               s.div_rows <- s.div_rows + 1
           end
         done)
    done
end

(* --- generated access streams ------------------------------------------ *)

type stream_case = {
  warp : int;
  smem_word : int;
  banks : int;
  model_conflicts : bool;
  attribute : bool;
  items : K.access list array;     (* per item, in push order *)
  decisions : (int * bool) list array;  (* per item branch stream *)
}

let space_name = function
  | AS_global -> "g"
  | AS_constant -> "c"
  | AS_local -> "l"
  | AS_private -> "p"
  | AS_none -> "n"

let print_stream_case c =
  Printf.sprintf "warp=%d word=%d banks=%d conflicts=%b attr=%b\n%s" c.warp
    c.smem_word c.banks c.model_conflicts c.attribute
    (String.concat "\n"
       (Array.to_list
          (Array.mapi
             (fun i l ->
                Printf.sprintf "%d: %s" i
                  (String.concat " "
                     (List.map
                        (fun (a : K.access) ->
                           Printf.sprintf "%s%d+%d@%d" (space_name a.a_space)
                             a.a_addr a.a_size a.a_site)
                        l)))
             c.items)))

(* Item counts that are not a multiple of the warp leave a partial last
   warp; spaces are drawn per access, so one position can mix spaces the
   way diverged items do; sizes straddle 128-byte segments and bank
   words.  Half the cases lay lanes out at a per-position base plus a
   lane stride, like a coalesced kernel. *)
let gen_stream_case =
  let open QCheck.Gen in
  let space =
    frequency
      [ (3, return AS_global); (1, return AS_constant); (3, return AS_local);
        (1, return AS_private); (1, return AS_none) ]
  in
  let size = oneofl [ 0; 1; 2; 3; 4; 4; 8; 8; 12; 16; 130 ] in
  oneofl [ 4; 8; 32 ] >>= fun warp ->
  int_range 1 70 >>= fun n ->
  oneofl [ 4; 8 ] >>= fun smem_word ->
  oneofl [ 16; 32 ] >>= fun banks ->
  bool >>= fun model_conflicts ->
  bool >>= fun attribute ->
  bool >>= fun strided ->
  int_range 1 24 >>= fun stride ->
  let access lane pos =
    map4
      (fun sp sz jitter site ->
         let addr =
           if strided then (pos * 512) + (lane * stride) + jitter
           else jitter * 7
         in
         { K.a_kind = (if site land 1 = 0 then Vm.Memory.Load else Vm.Memory.Store);
           a_space = sp; a_addr = addr; a_size = sz; a_site = site })
      space size (int_bound 100) (int_bound 6)
  in
  let item lane =
    int_bound 6 >>= fun len -> flatten_l (List.init len (access lane))
  in
  let decisions = list_size (int_bound 4) (pair (int_bound 6) bool) in
  flatten_l (List.init n item) >>= fun items ->
  list_repeat n decisions >|= fun ds ->
  { warp; smem_word; banks; model_conflicts; attribute;
    items = Array.of_list items; decisions = Array.of_list ds }

let cost_with finish c =
  let streams =
    Array.map
      (fun l ->
         let s = K.stream_create () in
         List.iter (K.stream_push s) l;
         s)
      c.items
  in
  let branches =
    Array.map
      (fun l ->
         let s = K.bstream_create () in
         List.iter (fun (site, t) -> K.bstream_push s ~site t) l;
         s)
      c.decisions
  in
  let counters = K.create () in
  let attr = if c.attribute then Some (Gpusim.Attr.create ()) else None in
  let branches = if c.attribute then Some branches else None in
  finish counters attr branches ~warp_size:c.warp ~smem_word:c.smem_word
    ~banks:c.banks ~model_conflicts:c.model_conflicts streams;
  (counters, Option.map Gpusim.Attr.to_list attr)

let costing_property =
  QCheck.Test.make ~count:1000
    ~name:"warp costing gives the reference counters and site rows"
    (QCheck.make ~print:print_stream_case gen_stream_case)
    (fun c ->
       cost_with
         (fun counters attr branches -> K.finish_group counters ?attr ?branches)
         c
       = cost_with
           (fun counters attr branches ->
              Ref_costing.finish_group counters ?attr ?branches)
           c)

let suites =
  [ ( "bookkeeping.conflict",
      [ QCheck_alcotest.to_alcotest conflict_property; conflict_edges;
        conflict_coverage ] );
    ("bookkeeping.costing", [ QCheck_alcotest.to_alcotest costing_property ]) ]
