(** Event counters for one kernel launch, with warp-level grouping of
    memory accesses.

    Work-items of a group run sequentially; each appends its memory
    accesses to a {!stream}.  When the group finishes, streams of the
    items in each warp are aligned position by position (exact under
    uniform control flow, an approximation under divergence) and each
    aligned row is costed as one warp access: distinct 128-byte segments
    for global/constant memory (coalescing), bank-conflict replays for
    local memory under the framework's addressing mode (§6.2). *)

(** A per-item access stream in three parallel arrays: access [i]
    touched [size.(i)] bytes at byte [addr.(i)] of its arena, and
    [tag.(i)] packs its address space with the source site (Minic.Site)
    issuing it — 0 when attribution is off or the code is unannotated.
    Recording an access allocates nothing. *)
type stream = {
  mutable addr : int array;
  mutable size : int array;
  mutable tag : int array;
  mutable len : int;
}

(** An empty stream (8 slots, doubled on demand). *)
val stream_create : unit -> stream

val stream_push : stream -> Minic.Ast.addr_space -> addr:int -> size:int ->
  site:int -> unit

(** [pack space site] is the tag word of an access; [tag_space] and
    [tag_site] invert it for every address space and any site id. *)
val pack : Minic.Ast.addr_space -> int -> int

val tag_space : int -> Minic.Ast.addr_space
val tag_site : int -> int

(** Per-item branch-decision stream, recorded only in attribution mode;
    each entry packs [(site lsl 1) lor decision]. *)
type bstream = {
  mutable b_items : int array;
  mutable b_len : int;
}

val bstream_create : unit -> bstream
val bstream_push : bstream -> site:int -> bool -> unit

type t = {
  mutable n_items : int;
  mutable n_groups : int;
  mutable ops_int : int;
  mutable ops_float : int;
  mutable ops_double : int;
  mutable ops_special : int;
  mutable ops_branch : int;
  mutable barriers : int;          (** barrier rounds summed over groups *)
  mutable gmem_transactions : int; (** 128-byte segments touched *)
  mutable gmem_accesses : int;
  mutable gmem_bytes : int;
  mutable smem_transactions : int; (** includes conflict replays *)
  mutable smem_accesses : int;
  mutable smem_bank_conflict_extra : int; (** replays beyond 1 per access *)
  mutable private_accesses : int;
  mutable warp_div_rows : int;
      (** aligned branch rows where lanes of one warp disagree *)
}

val create : unit -> t

(** Fold [src] into [dst] field-wise.  All fields are additive event
    counts, so per-domain accumulators merged in any order reproduce
    the sequential totals exactly. *)
val merge : t -> t -> unit

val record_op : t -> Vm.Interp.op_class -> unit

(** [record_ops c cls n] adds [n] operations of class [cls] in one
    call — the lockstep engine's fused regions batch their per-lane
    charges through this with exact-sum equivalence to [n] calls of
    [record_op]. *)
val record_ops : t -> Vm.Interp.op_class -> int -> unit

val total_ops : t -> int

(** Global-memory coalescing granularity in bytes. *)
val segment_size : int

(** Fold a finished group's per-item streams into the counters, warp by
    warp.  [?branches] supplies per-item branch-decision streams for
    warp-divergence counting; [?attr] charges every row to the site of
    its first access. *)
val finish_group :
  t -> ?attr:Attr.t -> ?branches:bstream array -> warp_size:int ->
  smem_word:int -> banks:int -> model_conflicts:bool -> stream array -> unit
