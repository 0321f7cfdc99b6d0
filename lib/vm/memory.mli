(** Byte-addressable growable memory arenas with a bump allocator.

    Each simulated address space (host, device global, constant, one
    local arena per live work-group, one private arena per live
    work-item) is an {!arena}.  Offset 0 is reserved so that a zero
    offset is never a valid address. *)

type access_kind = Load | Store

type arena = {
  mutable data : Bytes.t;
  mutable brk : int;         (** bump pointer *)
  mutable floor : int;       (** {!release} never rewinds below this *)
  mutable high_water : int;
  mutable frozen : bool;     (** allocations forbidden; see {!freeze} *)
  mutable snap_buf : Bytes.t;  (** storage of the live {!snapshot} *)
  name : string;             (** used in fault messages *)
}

exception Out_of_memory of string

(** Raised on out-of-bounds access: arena name and offending address. *)
exception Fault of string * int

(** Raised by {!alloc} on a frozen arena. *)
exception Frozen of string

val create : ?initial:int -> string -> arena

(** Current allocation frontier (bytes in use). *)
val size : arena -> int

(** Reset the bump pointer and the floor and zero the arena (used per
    work-group for local memory and per work-item for private memory). *)
val reset : arena -> unit

val align_up : int -> int -> int

(** [alloc a ~align bytes] bump-allocates and returns the offset. *)
val alloc : arena -> ?align:int -> int -> int

(** [alloc_heap a ~align bytes] allocates like {!alloc}, for storage
    that outlives the call frame it is allocated in (host [malloc],
    string literals): it raises the arena's floor to the new frontier. *)
val alloc_heap : arena -> ?align:int -> int -> int

(** Stack-style deallocation used for call frames: [release a (mark a)]
    frees everything allocated in between, except heap storage: the
    frontier never drops below the floor {!alloc_heap} raised. *)
val mark : arena -> int

val release : arena -> int -> unit

(** While frozen, {!alloc} raises {!Frozen}; loads and stores still work.
    The domain-parallel executor freezes the shared arenas during a
    concurrent run — a bump allocation from two domains could hand out
    overlapping addresses, so it must abort the optimistic attempt. *)
val freeze : arena -> unit

val thaw : arena -> unit

(** Copy-out/copy-back of an arena's used prefix, frontier and floor,
    for optimistic execution: {!restore} also re-zeroes bytes the
    aborted run wrote above the snapshot's frontier. *)
type snapshot

(** [snapshot a] copies [a]'s used prefix into [a]'s own snapshot
    buffer, which is grown on demand and reused across snapshots, so an
    arena has at most one live snapshot: taking a new one invalidates
    the previous one, whose {!restore} would then bring back the newer
    contents.  The executor keeps to this — each launch takes one
    snapshot per shared arena and either restores it or drops it before
    the next. *)
val snapshot : arena -> snapshot

val restore : arena -> snapshot -> unit

val load_bytes : arena -> int -> int -> Bytes.t
val store_bytes : arena -> int -> Bytes.t -> unit

(** Copy between arenas (grows the destination if needed). *)
val blit :
  src:arena -> src_addr:int -> dst:arena -> dst_addr:int -> len:int -> unit

(** Fixed-width little-endian accessors; width is 1, 2, 4 or 8 bytes for
    integers and 4 or 8 for floats. *)

val load_int : arena -> int -> int -> int64
val store_int : arena -> int -> int -> int64 -> unit
val load_float : arena -> int -> int -> float
val store_float : arena -> int -> int -> float -> unit
