(** Contiguous unboxed lane storage (register-major, fixed warp stride)
    for the warp-lockstep engine. *)

type i64 = (int64, Bigarray.int64_elt, Bigarray.c_layout) Bigarray.Array1.t
type f64 = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

val ints : int -> i64
(** Zero-filled int64 lane file of at least one slot. *)

val floats : int -> f64
(** Zero-filled float lane file of at least one slot. *)

(** Unchecked element access, declared as primitives so every caller
    compiles them to an inline, unboxed access. *)

external get_i : i64 -> int -> int64 = "%caml_ba_unsafe_ref_1"
external set_i : i64 -> int -> int64 -> unit = "%caml_ba_unsafe_set_1"
external get_f : f64 -> int -> float = "%caml_ba_unsafe_ref_1"
external set_f : f64 -> int -> float -> unit = "%caml_ba_unsafe_set_1"
