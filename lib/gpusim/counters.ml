(* Event counters for one kernel launch, with warp-level grouping of
   memory accesses.

   Work-items of a group run sequentially; each item appends its memory
   accesses to a stream.  After the group finishes, streams of the items
   in each warp are aligned position-by-position (exact under uniform
   control flow, an approximation under divergence) and each aligned row
   is costed as one warp access:

   - global/constant: number of distinct 128-byte segments touched
     (memory coalescing);
   - local/shared: bank conflicts under the framework's addressing mode
     (the 32-bit vs 64-bit distinction of paper §6.2): an access covering
     k bank words replays until every word is served, so the cost is the
     maximum, over banks, of distinct words wanted from that bank. *)

open Minic.Ast

(* A per-item access stream, flat: access [i] is ([addr.(i)],
   [size.(i)], [tag.(i)]), the tag packing the address space and the
   issuing source site.  Recording an access writes three ints, so it
   allocates nothing and promotes nothing; the arrays start small and
   double on demand, and a worker reuses them across its groups. *)
type stream = {
  mutable addr : int array;
  mutable size : int array;
  mutable tag : int array;
  mutable len : int;
}

let space_bits = 3

let space_rank = function
  | AS_global -> 0
  | AS_constant -> 1
  | AS_local -> 2
  | AS_private -> 3
  | AS_none -> 4

let spaces = [| AS_global; AS_constant; AS_local; AS_private; AS_none |]

let pack space site = (site lsl space_bits) lor space_rank space
let tag_rank tag = tag land ((1 lsl space_bits) - 1)
let tag_space tag = spaces.(tag_rank tag)
let tag_site tag = tag asr space_bits

let stream_create () =
  { addr = Array.make 8 0; size = Array.make 8 0; tag = Array.make 8 0; len = 0 }

let grow a n =
  let bigger = Array.make (2 * n) 0 in
  Array.blit a 0 bigger 0 n;
  bigger

let stream_push s space ~addr ~size ~site =
  let n = s.len in
  if n = Array.length s.addr then begin
    s.addr <- grow s.addr n;
    s.size <- grow s.size n;
    s.tag <- grow s.tag n
  end;
  Array.unsafe_set s.addr n addr;
  Array.unsafe_set s.size n size;
  Array.unsafe_set s.tag n (pack space site);
  s.len <- n + 1

(* Branch-decision streams, one per item, recorded only in attribution
   mode: each entry packs (site lsl 1) lor decision.  Aligned per warp
   exactly like access streams; a position where live lanes disagree is
   one divergent warp row. *)
type bstream = {
  mutable b_items : int array;
  mutable b_len : int;
}

let bstream_create () = { b_items = Array.make 64 0; b_len = 0 }

let bstream_push s ~site taken =
  if s.b_len = Array.length s.b_items then begin
    let bigger = Array.make (2 * s.b_len) 0 in
    Array.blit s.b_items 0 bigger 0 s.b_len;
    s.b_items <- bigger
  end;
  s.b_items.(s.b_len) <- (site lsl 1) lor (if taken then 1 else 0);
  s.b_len <- s.b_len + 1

type t = {
  mutable n_items : int;
  mutable n_groups : int;
  mutable ops_int : int;
  mutable ops_float : int;
  mutable ops_double : int;
  mutable ops_special : int;
  mutable ops_branch : int;
  mutable barriers : int;            (* barrier rounds x groups *)
  mutable gmem_transactions : int;
  mutable gmem_accesses : int;
  mutable gmem_bytes : int;
  mutable smem_transactions : int;
  mutable smem_accesses : int;
  mutable smem_bank_conflict_extra : int;  (* replays beyond 1 per access *)
  mutable private_accesses : int;
  mutable warp_div_rows : int;       (* non-uniform branch rows per warp *)
}

let create () = {
  n_items = 0; n_groups = 0;
  ops_int = 0; ops_float = 0; ops_double = 0; ops_special = 0; ops_branch = 0;
  barriers = 0;
  gmem_transactions = 0; gmem_accesses = 0; gmem_bytes = 0;
  smem_transactions = 0; smem_accesses = 0; smem_bank_conflict_extra = 0;
  private_accesses = 0; warp_div_rows = 0;
}

(* Fold [src] into [dst].  Every field is an additive event count, so
   per-domain accumulators merged in any order equal the sequential
   totals exactly — the property the parallel executor's determinism
   rests on. *)
let merge dst src =
  dst.n_items <- dst.n_items + src.n_items;
  dst.n_groups <- dst.n_groups + src.n_groups;
  dst.ops_int <- dst.ops_int + src.ops_int;
  dst.ops_float <- dst.ops_float + src.ops_float;
  dst.ops_double <- dst.ops_double + src.ops_double;
  dst.ops_special <- dst.ops_special + src.ops_special;
  dst.ops_branch <- dst.ops_branch + src.ops_branch;
  dst.barriers <- dst.barriers + src.barriers;
  dst.gmem_transactions <- dst.gmem_transactions + src.gmem_transactions;
  dst.gmem_accesses <- dst.gmem_accesses + src.gmem_accesses;
  dst.gmem_bytes <- dst.gmem_bytes + src.gmem_bytes;
  dst.smem_transactions <- dst.smem_transactions + src.smem_transactions;
  dst.smem_accesses <- dst.smem_accesses + src.smem_accesses;
  dst.smem_bank_conflict_extra <-
    dst.smem_bank_conflict_extra + src.smem_bank_conflict_extra;
  dst.private_accesses <- dst.private_accesses + src.private_accesses;
  dst.warp_div_rows <- dst.warp_div_rows + src.warp_div_rows

let record_op c (cls : Vm.Interp.op_class) =
  match cls with
  | Op_int -> c.ops_int <- c.ops_int + 1
  | Op_float -> c.ops_float <- c.ops_float + 1
  | Op_double -> c.ops_double <- c.ops_double + 1
  | Op_special -> c.ops_special <- c.ops_special + 1
  | Op_branch -> c.ops_branch <- c.ops_branch + 1

(* Batched variant for the lockstep engine's fused regions: a region
   charges (instructions x active lanes) in one call, with the same
   totals a per-lane [record_op] loop would produce. *)
let record_ops c (cls : Vm.Interp.op_class) n =
  match cls with
  | Op_int -> c.ops_int <- c.ops_int + n
  | Op_float -> c.ops_float <- c.ops_float + n
  | Op_double -> c.ops_double <- c.ops_double + n
  | Op_special -> c.ops_special <- c.ops_special + n
  | Op_branch -> c.ops_branch <- c.ops_branch + n

let total_ops c =
  c.ops_int + c.ops_float + c.ops_double + c.ops_special + c.ops_branch

(* --- warp-access costing ------------------------------------------- *)

let segment_size = 128

(* Per-domain scratch for costing a row: the row's segment or bank-word
   ids (sorted to count the distinct ones) and a per-bank counter.
   Reused across rows and launches, so costing allocates nothing. *)
type scratch = {
  mutable ids : int array;
  mutable bank_words : int array;
}

let scratch_key =
  Domain.DLS.new_key (fun () -> { ids = Array.make 256 0; bank_words = [||] })

let push_id sc n id =
  if n = Array.length sc.ids then begin
    let bigger = Array.make (2 * n) 0 in
    Array.blit sc.ids 0 bigger 0 n;
    sc.ids <- bigger
  end;
  sc.ids.(n) <- id

(* Sort [a.(0 .. n-1)].  A row's ids arrive nearly sorted, since the
   lanes of a warp mostly access ascending addresses, so rows of up to
   a few words per lane are insertion-sorted in place; longer ones
   (very wide accesses) take the library sort rather than risk a
   quadratic insertion sort. *)
let sort_ids a n =
  if n > 256 then begin
    let b = Array.sub a 0 n in
    Array.sort Int.compare b;
    Array.blit b 0 a 0 n
  end
  else
    for i = 1 to n - 1 do
      let x = a.(i) in
      let j = ref (i - 1) in
      while !j >= 0 && a.(!j) > x do
        a.(!j + 1) <- a.(!j);
        decr j
      done;
      a.(!j + 1) <- x
    done

(* Cost the accesses at position [pos] of items [lo..hi] of [streams]
   that are in space [sp], as one warp access.  When [attr] is given,
   the whole row's cost is charged to the site of its first access —
   each transaction lands on exactly one site, so summing sites
   reproduces the aggregates byte-exactly. *)
let cost_space c ?attr ~smem_word ~banks ~model_conflicts sc streams lo hi pos
    sp =
  let first = ref (-1) and count = ref 0 and bytes = ref 0 and nids = ref 0 in
  let rank = space_rank sp in
  for i = lo to hi do
    let s = streams.(i) in
    if pos < s.len && tag_rank s.tag.(pos) = rank then begin
      let a_addr = s.addr.(pos) and a_size = s.size.(pos) in
      if !first < 0 then first := tag_site s.tag.(pos);
      incr count;
      bytes := !bytes + a_size;
      match sp with
      | AS_global | AS_constant ->
        let s0 = a_addr / segment_size in
        let s1 = (a_addr + a_size - 1) / segment_size in
        for seg = s0 to s1 do
          push_id sc !nids seg;
          incr nids
        done
      | AS_local when model_conflicts ->
        let w0 = a_addr / smem_word in
        let w1 = (a_addr + a_size - 1) / smem_word in
        for w = w0 to w1 do
          push_id sc !nids w;
          incr nids
        done
      | AS_local | AS_private | AS_none -> ()
    end
  done;
  let site =
    match attr with None -> None | Some a -> Some (Attr.get a !first)
  in
  let ids = sc.ids and nids = !nids in
  sort_ids ids nids;
  match sp with
  | AS_global | AS_constant ->
    let txns = ref 0 in
    for i = 0 to nids - 1 do
      if i = 0 || ids.(i) <> ids.(i - 1) then incr txns
    done;
    let txns = !txns in
    c.gmem_transactions <- c.gmem_transactions + txns;
    c.gmem_accesses <- c.gmem_accesses + !count;
    c.gmem_bytes <- c.gmem_bytes + !bytes;
    (match site with
     | None -> ()
     | Some s ->
       s.Attr.gmem_transactions <- s.Attr.gmem_transactions + txns;
       s.Attr.gmem_bytes <- s.Attr.gmem_bytes + !bytes)
  | AS_local ->
    c.smem_accesses <- c.smem_accesses + !count;
    let ways =
      if not model_conflicts then 1
      else begin
        (* the most distinct words wanted from any one bank *)
        if Array.length sc.bank_words < banks then
          sc.bank_words <- Array.make banks 0;
        let per_bank = sc.bank_words in
        let ways = ref 1 in
        for i = 0 to nids - 1 do
          if i = 0 || ids.(i) <> ids.(i - 1) then begin
            let b = ids.(i) mod banks in
            per_bank.(b) <- per_bank.(b) + 1;
            if per_bank.(b) > !ways then ways := per_bank.(b)
          end
        done;
        for i = 0 to nids - 1 do
          per_bank.(ids.(i) mod banks) <- 0
        done;
        !ways
      end
    in
    c.smem_transactions <- c.smem_transactions + ways;
    c.smem_bank_conflict_extra <- c.smem_bank_conflict_extra + (ways - 1);
    (match site with
     | None -> ()
     | Some s ->
       s.Attr.smem_transactions <- s.Attr.smem_transactions + ways;
       s.Attr.smem_conflict_extra <- s.Attr.smem_conflict_extra + (ways - 1))
  | AS_private | AS_none -> c.private_accesses <- c.private_accesses + !count

(* After a group completes: fold the per-item streams warp by warp.
   [branches], when present, holds the per-item branch-decision streams;
   aligned rows where live lanes disagree count as divergent warp rows
   (charged to the first lane's site when [attr] is also given). *)
let finish_group c ?attr ?branches ~warp_size ~smem_word ~banks
    ~model_conflicts (streams : stream array) =
  c.n_groups <- c.n_groups + 1;
  let sc = Domain.DLS.get scratch_key in
  let n = Array.length streams in
  c.n_items <- c.n_items + n;
  let nwarps = (n + warp_size - 1) / warp_size in
  for w = 0 to nwarps - 1 do
    let lo = w * warp_size in
    let hi = Int.min n (lo + warp_size) - 1 in
    let max_len = ref 0 in
    for i = lo to hi do
      max_len := Int.max !max_len streams.(i).len
    done;
    for pos = 0 to !max_len - 1 do
      (* split the row by address space: under divergence streams of
         different items can interleave spaces at the same position *)
      let present = ref 0 in
      for i = lo to hi do
        if pos < streams.(i).len then
          present := !present lor (1 lsl tag_rank streams.(i).tag.(pos))
      done;
      for r = 0 to Array.length spaces - 1 do
        if !present land (1 lsl r) <> 0 then
          cost_space c ?attr ~smem_word ~banks ~model_conflicts sc streams lo
            hi pos spaces.(r)
      done
    done;
    (match branches with
     | None -> ()
     | Some (bs : bstream array) ->
       let max_blen = ref 0 in
       for i = lo to hi do
         max_blen := Int.max !max_blen bs.(i).b_len
       done;
       for pos = 0 to !max_blen - 1 do
         (* one decision row: first live lane fixes the reference;
            any live lane disagreeing makes the row divergent *)
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
             let s = Attr.get a (!first lsr 1) in
             s.Attr.div_rows <- s.Attr.div_rows + 1
         end
       done)
  done
