(* Byte-addressable growable memory arenas with a bump allocator.

   Each simulated address space (host, device global, constant, one local
   arena per live work-group, one private arena per live work-item) is an
   [arena].  Loads and stores go through an optional access hook so the
   GPU timing model can observe traffic without the interpreter knowing
   about it. *)

type access_kind = Load | Store

type arena = {
  mutable data : Bytes.t;
  mutable brk : int;                       (* bump pointer *)
  mutable floor : int;                     (* frame releases stop here *)
  mutable high_water : int;
  mutable frozen : bool;                   (* allocations forbidden *)
  mutable snap_buf : Bytes.t;              (* storage of the live snapshot *)
  name : string;
}

exception Out_of_memory of string
exception Fault of string * int
exception Frozen of string

let create ?(initial = 4096) name =
  { data = Bytes.make initial '\000'; brk = 16; floor = 16; high_water = 16;
    frozen = false; snap_buf = Bytes.empty; name }
  (* offset 0 is reserved so that a zero offset is never a valid address *)

let size a = a.brk

(* Stores never land beyond the allocation frontier, so bytes past
   [high_water] are still zero from [create]/[ensure]; clearing just the
   used prefix is equivalent to clearing the whole buffer. *)
let reset a =
  Bytes.fill a.data 0 (Int.min a.high_water (Bytes.length a.data)) '\000';
  a.brk <- 16;
  a.floor <- 16;
  a.high_water <- 16

let ensure a n =
  if n > Bytes.length a.data then begin
    let cap = ref (Bytes.length a.data) in
    while !cap < n do
      cap := !cap * 2
    done;
    let data = Bytes.make !cap '\000' in
    Bytes.blit a.data 0 data 0 (Bytes.length a.data);
    a.data <- data
  end

let align_up n a = (n + a - 1) land lnot (a - 1)

let alloc a ?(align = 16) bytes =
  if a.frozen then raise (Frozen a.name);
  let bytes = Int.max bytes 1 in
  let addr = align_up a.brk align in
  ensure a (addr + bytes);
  a.brk <- addr + bytes;
  a.high_water <- Int.max a.high_water a.brk;
  addr

(* Heap storage (host malloc, string literals) shares the arena with
   call frames but outlives them: it raises the floor that a frame
   release never rewinds below. *)
let alloc_heap a ?align bytes =
  let addr = alloc a ?align bytes in
  a.floor <- a.brk;
  addr

(* Stack-style deallocation used for call frames. *)
let mark a = a.brk
let release a m = a.brk <- Int.max m a.floor

(* Freezing an arena turns any allocation into a [Frozen] fault.  The
   parallel executor freezes the shared arenas (global, constant, host)
   for the duration of a concurrent run: loads and stores are logged and
   checked after the fact, but a concurrent bump allocation could hand
   two blocks the same address, so it must abort the attempt instead. *)
let freeze a = a.frozen <- true
let thaw a = a.frozen <- false

(* Whole-arena snapshots back the optimistic parallel run: copy the used
   prefix, and on restore also zero whatever the aborted run wrote above
   it so the "bytes past [high_water] are zero" invariant holds.  The
   copy goes to the arena's own buffer, grown to the used prefix on
   demand (arenas grow between launches, rarely during a launch loop)
   and reused by the next snapshot, so at most one snapshot per arena
   is live. *)
type snapshot = {
  snap_brk : int;
  snap_floor : int;
  snap_high_water : int;
}

let snapshot a =
  let n = a.high_water in
  if Bytes.length a.snap_buf < n then a.snap_buf <- Bytes.create n;
  Bytes.blit a.data 0 a.snap_buf 0 n;
  { snap_brk = a.brk; snap_floor = a.floor; snap_high_water = n }

let restore a s =
  let touched = Int.min a.high_water (Bytes.length a.data) in
  Bytes.blit a.snap_buf 0 a.data 0 s.snap_high_water;
  if touched > s.snap_high_water then
    Bytes.fill a.data s.snap_high_water (touched - s.snap_high_water) '\000';
  a.brk <- s.snap_brk;
  a.floor <- s.snap_floor;
  a.high_water <- s.snap_high_water

(* Any address outside [0, brk) is a fault: the allocator's frontier is
   the boundary of valid memory, so wild stores cannot silently grow an
   arena. *)
let check a addr bytes =
  if addr < 0 || addr + bytes > a.brk then raise (Fault (a.name, addr))

let load_bytes a addr n =
  check a addr n;
  Bytes.sub a.data addr n

let store_bytes a addr b =
  let n = Bytes.length b in
  check a addr n;
  Bytes.blit b 0 a.data addr n

let blit ~src ~src_addr ~dst ~dst_addr ~len =
  check src src_addr len;
  check dst dst_addr len;
  Bytes.blit src.data src_addr dst.data dst_addr len

(* Fixed-width integer loads/stores, little-endian. *)
let load_int a addr bytes =
  check a addr bytes;
  match bytes with
  | 1 -> Int64.of_int (Char.code (Bytes.get a.data addr))
  | 2 -> Int64.of_int (Bytes.get_uint16_le a.data addr)
  | 4 -> Int64.of_int32 (Bytes.get_int32_le a.data addr)
  | 8 -> Bytes.get_int64_le a.data addr
  | n -> invalid_arg (Printf.sprintf "load_int: width %d" n)

let store_int a addr bytes v =
  check a addr bytes;
  match bytes with
  | 1 -> Bytes.set a.data addr (Char.chr (Int64.to_int (Int64.logand v 0xFFL)))
  | 2 -> Bytes.set_uint16_le a.data addr (Int64.to_int (Int64.logand v 0xFFFFL))
  | 4 -> Bytes.set_int32_le a.data addr (Int64.to_int32 v)
  | 8 -> Bytes.set_int64_le a.data addr v
  | n -> invalid_arg (Printf.sprintf "store_int: width %d" n)

let load_float a addr bytes =
  check a addr bytes;
  match bytes with
  | 4 -> Int32.float_of_bits (Bytes.get_int32_le a.data addr)
  | 8 -> Int64.float_of_bits (Bytes.get_int64_le a.data addr)
  | n -> invalid_arg (Printf.sprintf "load_float: width %d" n)

let store_float a addr bytes v =
  check a addr bytes;
  match bytes with
  | 4 -> Bytes.set_int32_le a.data addr (Int32.bits_of_float v)
  | 8 -> Bytes.set_int64_le a.data addr (Int64.bits_of_float v)
  | n -> invalid_arg (Printf.sprintf "store_float: width %d" n)
