(* The CUDA runtime surface host programs call, and its one binding.

   A translated host program makes the same cuda* calls as the original
   one: the translator rewrites only kernel launches,
   cudaMemcpy{To,From}Symbol and the texture argument of the three
   binding calls (§3, Figure 3).  So the 31 calls both directions share
   are decoded here, once: [Make] reads their arguments, stores their
   out-parameters and rejects a malformed call as [Hostrun.Host_error]
   naming it, over a runtime [S] with two instances -- the simulated
   CUDA runtime (Cuda_native, original programs) and the wrappers over
   OpenCL (Cuda_on_cl, translated ones).  This is the CUDA-side
   counterpart of [Cl_api.S]. *)

open Minic.Ast
open Vm
open Vm.Interp

type external_fn = ctx -> tval list -> tval

module type S = sig
  type t
  type event
  type array

  (* the reference argument of cudaBindTexture, cudaBindTextureToArray
     and cudaUnbindTexture, which each runtime resolves itself: a
     texture handle natively, the name string the translator writes
     otherwise *)
  type texref

  val malloc : t -> int -> int64
  val free : t -> int64 -> unit
  val memcpy : t -> dst:int64 -> src:int64 -> bytes:int -> unit
  val memset : t -> dst:int64 -> byte:int -> bytes:int -> unit

  (* cudaHostAlloc and cudaMallocHost / cudaFreeHost *)
  val host_alloc : t -> int -> int64
  val free_host : t -> int64 -> unit

  (* (free, total) bytes *)
  val mem_get_info : t -> int * int

  (* cudaDeviceProp fields and values, in the order they are stored *)
  val device_properties : t -> (string * int64) list

  (* cudaDeviceSynchronize and cudaThreadSynchronize *)
  val synchronize : t -> unit

  val event_create : t -> event
  val event_record : t -> event -> unit
  val event_elapsed_ms : t -> event -> event -> float

  (* a new 2D array of one-channel texels; returns its handle *)
  val malloc_array : t -> scalar -> width:int -> height:int -> int
  val array : t -> int -> array option
  val memcpy_to_array : t -> array -> src:int64 -> bytes:int -> unit

  val texture : t -> ctx -> tval -> texref
  val bind_texture : t -> texref -> ptr:int64 -> bytes:int -> unit
  val bind_texture_to_array : t -> texref -> array -> unit
  val unbind_texture : t -> texref -> unit
end

let int_of (a : tval) = Int64.to_int (Value.to_int a.v)
let ptr_of (a : tval) = Value.to_int a.v

(* Store through an out-pointer argument (e.g. cudaMalloc's first). *)
let store_out ctx (p : tval) ty v =
  let ptr = ptr_of p in
  Vm.Interp.store ctx (Value.ptr_space ptr) (Value.ptr_offset ptr) ty v

(* Raised by a decoder whose arguments do not match; [checked] reports
   it as the call's Host_error. *)
exception Arity

let checked (externals : (string * external_fn) list) =
  List.map
    (fun (name, f) ->
       ( name,
         fun ctx args ->
           try f ctx args
           with Arity -> raise (Hostrun.Host_error (name ^ " arity")) ))
    externals

(* Decode an int-or-dim3 launch configuration value. *)
let decode_dim3 ctx (a : tval) =
  match Layout.resolve ctx.layout a.ty with
  | TNamed "dim3" ->
    let p = ptr_of a in
    let arena = ctx.arena_of (Value.ptr_space p) in
    let base = Value.ptr_offset p in
    let g i = Int64.to_int (Memory.load_int arena (base + (4 * i)) 4) in
    (max 1 (g 0), max 1 (g 1), max 1 (g 2))
  | _ -> (max 1 (int_of a), 1, 1)

(* cudaChannelFormatDesc { x bits; y; z; w; f kind } *)
let scalar_of_channel_desc ctx (desc : tval) =
  let p = ptr_of desc in
  let arena = ctx.arena_of (Value.ptr_space p) in
  let base = Value.ptr_offset p in
  let bits = Int64.to_int (Memory.load_int arena base 4) in
  let kind = Int64.to_int (Memory.load_int arena (base + 16) 4) in
  match kind, bits with
  | 2, _ -> Float
  | 1, 8 -> UChar
  | 1, 32 -> UInt
  | 0, 8 -> Char
  | _, _ -> Int

(* The descriptor of [cudaCreateChannelDesc<T>()], on the host stack. *)
let channel_desc_of_scalar ctx sc =
  let addr = Memory.alloc (ctx.arena_of AS_none) ~align:4 20 in
  let arena = ctx.arena_of AS_none in
  let bits = 8 * scalar_size sc in
  Memory.store_int arena addr 4 (Int64.of_int bits);
  Memory.store_int arena (addr + 16) 4
    (Int64.of_int
       (if is_float_scalar sc then 2 else if is_unsigned sc then 1 else 0));
  tv (VInt (Value.make_ptr AS_none addr)) (TNamed "cudaChannelFormatDesc")

module Make (R : S) = struct
  let externals (rt : R.t) : (string * external_fn) list =
    let ok = tint 0 and void_ptr = TPtr (TScalar Void) in
    let fail fmt = Printf.ksprintf (fun s -> raise (Hostrun.Host_error s)) fmt in
    let events : (int, R.event) Hashtbl.t = Hashtbl.create 4 in
    let next_event = ref 1 in
    let event name e =
      match Hashtbl.find_opt events (int_of e) with
      | Some ev -> ev
      | None -> fail "%s: not a created event" name
    in
    let array name a =
      match R.array rt (int_of a) with
      | Some arr -> arr
      | None -> fail "%s: invalid array handle %d" name (int_of a)
    in
    let host_alloc ctx = function
      | pp :: size :: _ ->
        store_out ctx pp void_ptr (VInt (R.host_alloc rt (int_of size)));
        ok
      | _ -> raise Arity
    in
    let nothing _ _ = ok in
    let synchronize _ _ = R.synchronize rt; ok in
    checked
      [ ("cudaMalloc",
         fun ctx -> function
           | [ pp; size ] ->
             store_out ctx pp void_ptr (VInt (R.malloc rt (int_of size)));
             ok
           | _ -> raise Arity);
        ("cudaFree",
         fun _ -> function [ p ] -> R.free rt (ptr_of p); ok | _ -> raise Arity);
        (* the direction comes from the pointers' address spaces *)
        ("cudaMemcpy",
         fun _ -> function
           | [ dst; src; n ] | [ dst; src; n; _ ] ->
             R.memcpy rt ~dst:(ptr_of dst) ~src:(ptr_of src) ~bytes:(int_of n);
             ok
           | _ -> raise Arity);
        ("cudaMemset",
         fun _ -> function
           | [ dst; v; n ] ->
             R.memset rt ~dst:(ptr_of dst) ~byte:(int_of v) ~bytes:(int_of n);
             ok
           | _ -> raise Arity);
        ("cudaHostAlloc", host_alloc);
        ("cudaMallocHost", host_alloc);
        (* one address space: the device pointer is the host one *)
        ("cudaHostGetDevicePointer",
         fun ctx -> function
           | dpp :: hp :: _ -> store_out ctx dpp void_ptr (VInt (ptr_of hp)); ok
           | _ -> raise Arity);
        ("cudaFreeHost",
         fun _ -> function
           | [ p ] -> R.free_host rt (ptr_of p); ok
           | _ -> raise Arity);
        ("cudaMemGetInfo",
         fun ctx -> function
           | [ pfree; ptotal ] ->
             let free, total = R.mem_get_info rt in
             store_out ctx pfree (TScalar SizeT) (VInt (Int64.of_int free));
             store_out ctx ptotal (TScalar SizeT) (VInt (Int64.of_int total));
             ok
           | _ -> raise Arity);
        ("cudaGetDeviceProperties",
         fun ctx -> function
           | pp :: _ ->
             let base = ptr_of pp in
             let sp = Value.ptr_space base and off = Value.ptr_offset base in
             List.iter
               (fun (field, v) ->
                  match Layout.field_offset ctx.layout "cudaDeviceProp" field with
                  | Some (fo, fty) -> Vm.Interp.store ctx sp (off + fo) fty (VInt v)
                  | None -> ())
               (R.device_properties rt);
             ok
           | _ -> raise Arity);
        ("cudaGetDeviceCount",
         fun ctx -> function
           | [ pn ] -> store_out ctx pn (TScalar Int) (VInt 1L); ok
           | _ -> raise Arity);
        ("cudaSetDevice", nothing);
        ("cudaGetLastError", nothing);
        ("cudaGetErrorString",
         fun ctx _ -> tv (VInt (string_ptr ctx "no error")) (TPtr (TScalar Char)));
        ("cudaDeviceSynchronize", synchronize);
        ("cudaThreadSynchronize", synchronize);
        ("cudaDeviceReset", nothing);
        ("cudaEventCreate",
         fun ctx -> function
           | [ pe ] ->
             let e = R.event_create rt in
             let id = !next_event in
             incr next_event;
             Hashtbl.replace events id e;
             store_out ctx pe (TNamed "cudaEvent_t") (VInt (Int64.of_int id));
             ok
           | _ -> raise Arity);
        ("cudaEventRecord",
         fun _ -> function
           | e :: _ -> R.event_record rt (event "cudaEventRecord" e); ok
           | _ -> raise Arity);
        ("cudaEventSynchronize", nothing);
        ("cudaEventDestroy", nothing);
        ("cudaEventElapsedTime",
         fun ctx -> function
           | [ pms; e0; e1 ] ->
             let e0 = event "cudaEventElapsedTime" e0 in
             let e1 = event "cudaEventElapsedTime" e1 in
             store_out ctx pms (TScalar Float) (VFloat (R.event_elapsed_ms rt e0 e1));
             ok
           | _ -> raise Arity);
        ("cudaStreamCreate",
         fun ctx -> function
           | [ ps ] -> store_out ctx ps (TNamed "cudaStream_t") (VInt 0L); ok
           | _ -> raise Arity);
        ("cudaStreamSynchronize", nothing);
        (* textures *)
        ("cudaCreateChannelDesc", fun ctx _ -> channel_desc_of_scalar ctx Float);
        ("cudaMallocArray",
         fun ctx -> function
           | parr :: desc :: w :: rest ->
             let height = match rest with h :: _ -> max 1 (int_of h) | [] -> 1 in
             let sc =
               if Value.to_int desc.v = 0L then Float
               else scalar_of_channel_desc ctx desc
             in
             let id = R.malloc_array rt sc ~width:(int_of w) ~height in
             store_out ctx parr (TPtr (TNamed "cudaArray")) (VInt (Int64.of_int id));
             ok
           | _ -> raise Arity);
        ("cudaMemcpyToArray",
         fun _ -> function
           | [ arr; _; _; src; bytes ] | [ arr; _; _; src; bytes; _ ] ->
             R.memcpy_to_array rt (array "cudaMemcpyToArray" arr) ~src:(ptr_of src)
               ~bytes:(int_of bytes);
             ok
           | _ -> raise Arity);
        ("cudaBindTexture",
         fun ctx -> function
           | [ _offset; tex; p; size ] ->
             R.bind_texture rt (R.texture rt ctx tex) ~ptr:(ptr_of p)
               ~bytes:(int_of size);
             ok
           | _ -> raise Arity);
        ("cudaBindTextureToArray",
         fun ctx -> function
           | tex :: arr :: _ ->
             let tref = R.texture rt ctx tex in
             R.bind_texture_to_array rt tref (array "cudaBindTextureToArray" arr);
             ok
           | _ -> raise Arity);
        ("cudaUnbindTexture",
         fun ctx -> function
           | [ tex ] -> R.unbind_texture rt (R.texture rt ctx tex); ok
           | _ -> raise Arity);
        ("cudaFreeArray", nothing) ]
end
