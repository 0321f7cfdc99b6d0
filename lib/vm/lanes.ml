(* Contiguous unboxed lane storage for the warp-lockstep engine.

   A lane file is a flat Bigarray holding one slot per (virtual
   register, lane) pair, laid out register-major with a fixed warp
   stride so a warp's lanes for one register are contiguous — the
   memory shape SIMD execution wants.  Int slots hold the raw
   [Value.VInt] payload (wrapped or unwrapped exactly as the scalar
   backend would hold it); float slots hold the [VFloat] payload. *)

type i64 = (int64, Bigarray.int64_elt, Bigarray.c_layout) Bigarray.Array1.t
type f64 = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

let ints (n : int) : i64 =
  let a = Bigarray.Array1.create Bigarray.int64 Bigarray.c_layout (max n 1) in
  Bigarray.Array1.fill a 0L;
  a

let floats (n : int) : f64 =
  let a = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout (max n 1) in
  Bigarray.Array1.fill a 0.0;
  a

(* Primitives, not functions: an external's definition travels in the
   .cmi, so callers compile it inline to an unboxed element access even
   when this module is compiled opaquely (dune's dev profile); a
   function call here would box every int64 and float it passes. *)
external get_i : i64 -> int -> int64 = "%caml_ba_unsafe_ref_1"
external set_i : i64 -> int -> int64 -> unit = "%caml_ba_unsafe_set_1"
external get_f : f64 -> int -> float = "%caml_ba_unsafe_ref_1"
external set_f : f64 -> int -> float -> unit = "%caml_ba_unsafe_set_1"
