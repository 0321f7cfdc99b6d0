(** Event counters for one kernel launch, with warp-level grouping of
    memory accesses.

    Work-items of a group run sequentially; each appends its memory
    accesses to a {!stream}.  When the group finishes, streams of the
    items in each warp are aligned position by position (exact under
    uniform control flow, an approximation under divergence) and each
    aligned row is costed as one warp access: distinct 128-byte segments
    for global/constant memory (coalescing), bank-conflict replays for
    local memory under the framework's addressing mode (§6.2). *)

type access = {
  a_kind : Vm.Memory.access_kind;
  a_space : Minic.Ast.addr_space;
  a_addr : int;
  a_size : int;
  a_site : int;
      (** source site (Minic.Site) issuing the access; 0 when
          attribution is off or the code is unannotated *)
}

type stream = {
  mutable items : access array;
  mutable len : int;
}

val stream_create : unit -> stream
val stream_push : stream -> access -> unit

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
