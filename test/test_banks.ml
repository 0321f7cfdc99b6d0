(* Directed differential tests for the IR backend's register banks.

   The scalar IR engine keeps narrow int and float registers unboxed in
   native-int and float banks, and runs native shapes as typed closures
   over them.  A native int has 63 bits and the interpreter computes in
   int64, so each kernel below aims at one place where the two could
   part: uint values negated or complemented (they are not wrapped, so
   a uint register can hold a negative int64) and then compared unsigned
   or shifted right by 0..63 or a negative count; int shifts by 31, 32
   and 63 and INT_MIN * -1; float-to-int casts of NaN, infinities, 2^40
   and -0.5; int-to-float conversions above 2^24 and chained fp32
   arithmetic; indexing through a null pointer and through a value that
   is not an encoded pointer.

   Each kernel runs under Vm.Interp and under the IR backend at 1 and 4
   domains, with attribution on.  Buffers, Counters.t and Attr rows must
   be equal, and a failing kernel must fail with the same message.  The
   residency census of each kernel is checked too, so the typed closures
   are known to be the ones under test. *)

open Minic.Ast

let with_ref r v f =
  let saved = !r in
  r := v;
  Fun.protect ~finally:(fun () -> r := saved) f

type outcome =
  | Done of string * Gpusim.Counters.t * (int * Gpusim.Attr.site) list option
  | Failed of string

(* Input buffers are filled by [fill arena addr]; the kernel takes the
   output buffer first, then the inputs, all as global pointers. *)
type buf = { bytes : int; fill : Vm.Memory.arena -> int -> unit }

let ints l =
  { bytes = 4 * List.length l;
    fill =
      (fun a addr ->
         List.iteri
           (fun i v -> Vm.Memory.store_int a (addr + (4 * i)) 4 (Int64.of_int v))
           l) }

let floats l =
  { bytes = 4 * List.length l;
    fill =
      (fun a addr ->
         List.iteri (fun i v -> Vm.Memory.store_float a (addr + (4 * i)) 4 v) l) }

let gws = 16
let lws = 8

let launch ~backend ~passes ~domains prog ~out_bytes ~inputs =
  with_ref Gpusim.Exec.backend backend @@ fun () ->
  with_ref Gpusim.Exec.domains domains @@ fun () ->
  with_ref Gpusim.Exec.attribute true @@ fun () ->
  Ir.Pipeline.with_passes passes @@ fun () ->
  let dev =
    Gpusim.Device.create Gpusim.Device.titan Gpusim.Device.opencl_on_nvidia
  in
  let g = dev.Gpusim.Device.global in
  let alloc n = Vm.Memory.alloc g ~align:256 (max n 4) in
  let out = alloc out_bytes in
  let ptr addr =
    Gpusim.Exec.Arg_val
      (Vm.Interp.tv
         (Vm.Value.VInt (Vm.Value.make_ptr AS_global addr))
         (TPtr (TScalar Int)))
  in
  let args =
    List.map
      (fun b ->
         let addr = alloc b.bytes in
         b.fill g addr;
         ptr addr)
      inputs
  in
  let k = Option.get (find_function prog "k") in
  match
    Gpusim.Exec.launch ~dev ~prog ~globals:(Hashtbl.create 4)
      ~host_arena:(Vm.Memory.create "host") ~kernel:k
      ~cfg:
        { global_size = [| gws; 1; 1 |];
          local_size = [| lws; 1; 1 |];
          dyn_shared = 0 }
      ~args:(ptr out :: args) ()
  with
  | stats ->
    Done
      ( Bytes.to_string (Vm.Memory.load_bytes g out out_bytes),
        stats.Gpusim.Exec.counters,
        Option.map Gpusim.Attr.to_list stats.Gpusim.Exec.attr )
  | exception e -> Failed (Printexc.to_string e)

let show = function
  | Done (b, _, _) ->
    let n = String.length b / 4 in
    "done: "
    ^ String.concat " "
        (List.init n (fun i -> Int32.to_string (String.get_int32_le b (4 * i))))
  | Failed m -> "failed: " ^ m

(* Values in IR registers have no simulated memory traffic, so the
   interpreter's private accesses for scalar locals are the one counter
   the IR backend does not reproduce. *)
let comparable = function
  | Done (b, c, a) -> Done (b, { c with Gpusim.Counters.private_accesses = 0 }, a)
  | Failed _ as f -> f

let same_buffers a b =
  match a, b with
  | Done (x, _, _), Done (y, _, _) -> x = y
  | Failed x, Failed y -> x = y
  | _ -> false

(* Interpreter vs IR backend at 1 and 4 domains; returns the reference.
   With only barrier elimination on (none of these kernels has a
   barrier) the IR charges what the interpreter charges, so counters and
   attribution rows must match too; with every pass on, ops are
   eliminated, and buffers and failures must still match. *)
let differential ~src ~out_bytes ~inputs =
  with_ref Minic.Site.enabled true @@ fun () ->
  Minic.Site.reset ();
  let prog =
    Minic.Site.annotate (Minic.Parser.program ~dialect:Minic.Parser.OpenCL src)
  in
  let reference =
    comparable
      (launch ~backend:Gpusim.Exec.Interp ~passes:Ir.Pipeline.all ~domains:1
         prog ~out_bytes ~inputs)
  in
  List.iter
    (fun (passes, domains) ->
       let got =
         comparable
           (launch ~backend:Gpusim.Exec.Compiled ~passes ~domains prog
              ~out_bytes ~inputs)
       in
       let exact = passes <> Ir.Pipeline.all in
       let part =
         match reference, got with
         | Done (b, _, _), Done (b', _, _) when b <> b' -> "buffers"
         | Done (_, c, _), Done (_, c', _) when c <> c' -> "counters"
         | Done (_, _, a), Done (_, _, a') when a <> a' -> "attribution rows"
         | _ -> "outcomes"
       in
       if (exact && got <> reference) || not (same_buffers got reference) then
         Alcotest.failf
           "IR backend (%s passes) at %d domains: %s differ from the \
            interpreter\ninterp: %s\nir:     %s"
           (if exact then "barrier" else "all") domains part (show reference)
           (show got))
    [ ({ Ir.Pipeline.none with barrier = true }, 1);
      ({ Ir.Pipeline.none with barrier = true }, 4);
      (Ir.Pipeline.all, 1);
      (Ir.Pipeline.all, 4) ];
  (prog, reference)

(* The kernel is IR-compiled and banks at least [ints] int and [flts]
   float registers. *)
let banked prog ~ints ~flts =
  let est =
    Ir.Emit.make ~special_ty:Gpusim.Exec.special_ty ~cfg:Ir.Pipeline.all prog
  in
  match Ir.Emit.ir est "k" with
  | Some (Ok fn) ->
    let ni, nf, _ = Ir.Emit.census (Vm.Layout.make_env prog) fn in
    if ni < ints || nf < flts then
      Alcotest.failf "expected >= %d int and >= %d float banked, got %d/%d"
        ints flts ni nf
  | Some (Error e) -> Alcotest.failf "kernel not IR-compiled: %s" e
  | None -> Alcotest.fail "no kernel k"

let expect_done = function
  | Done _ -> ()
  | Failed m -> Alcotest.failf "kernel failed: %s" m

let counts = ints [ 0; 31; 32; 33; 63; -1; -33; 64 ]

let uint_src = {|
__kernel void k(__global uint* out, __global int* cnt, __global uint* in) {
  int i = get_global_id(0);
  uint a = in[i];
  uint c = (uint)cnt[i % 8];
  uint n = -a;
  out[i * 10 + 0] = (-a) >> c;
  out[i * 10 + 1] = (~a) >> c;
  out[i * 10 + 2] = (-a) >> (-c);
  out[i * 10 + 3] = ((-a) < a) + ((~a) >= (-a)) * 2u + ((-a) > in[(i + 1) % 16]) * 4u;
  out[i * 10 + 4] = (-a) << c;
  out[i * 10 + 5] = ((-a) >> 0u) + ((~a) >> 31u);
  out[i * 10 + 6] = ((-a) >> 32u) + ((~a) >> 33u);
  out[i * 10 + 7] = ((-a) >> 63u) + ((~a) >> 63u) * 2u;
  out[i * 10 + 8] = ((~(-a)) <= (-(~a))) + n;
  out[i * 10 + 9] = (-a) == (~a) + 1u;
}
|}

let uint_inputs =
  [ 0; 1; 2; 3; 0x7fffffff; 0x80000000; 0xffffffff; 0xfffffffe; 12345;
    0x40000000; 0xc0000000; 7; 65536; 0x1234abcd; 0x80000001; 100 ]

let uint_case () =
  let prog, r =
    differential ~src:uint_src ~out_bytes:(gws * 40)
      ~inputs:[ counts; ints uint_inputs ]
  in
  expect_done r;
  banked prog ~ints:4 ~flts:0

let int_src = {|
__kernel void k(__global int* out, __global int* cnt, __global int* in) {
  int i = get_global_id(0);
  int x = in[i];
  int c = cnt[i % 8];
  out[i * 10 + 0] = x << c;
  out[i * 10 + 1] = x >> c;
  out[i * 10 + 2] = (x << 31) + (x >> 31);
  out[i * 10 + 3] = (x << 32) + (x >> 32);
  out[i * 10 + 4] = (x << 63) + (x >> 63);
  out[i * 10 + 5] = x * -1;
  out[i * 10 + 6] = (-x) >> 31;
  out[i * 10 + 7] = ((-x) > x) + (~x < 0) * 2 + ((-x) == x) * 4;
  out[i * 10 + 8] = (-x) * (-x) + (~x) * c;
  out[i * 10 + 9] = (x >> (-c)) ^ (x << (c - 64));
}
|}

let int_inputs =
  [ -0x80000000; 0x7fffffff; -1; 0; 1; 12345; -98765; 0x40000000;
    -0x40000000; 7; -7; 65535; -65536; 0x12345678; -0x7fffffff; 3 ]

let int_case () =
  let prog, r =
    differential ~src:int_src ~out_bytes:(gws * 40)
      ~inputs:[ counts; ints int_inputs ]
  in
  expect_done r;
  banked prog ~ints:4 ~flts:0

let f2i_src = {|
__kernel void k(__global int* out, __global float* in) {
  int i = get_global_id(0);
  float f = in[i];
  double d = f;
  out[i * 8 + 0] = (int)f;
  out[i * 8 + 1] = (int)(uint)f;
  out[i * 8 + 2] = (char)f;
  out[i * 8 + 3] = (short)(f * 0.5f);
  out[i * 8 + 4] = (int)(-f);
  out[i * 8 + 5] = (int)(d * 3.0);
  out[i * 8 + 6] = (uint)(d - 1.0) + (uchar)(-f);
  out[i * 8 + 7] = f != f;
}
|}

let f2i_inputs =
  [ Float.nan; Float.infinity; Float.neg_infinity; 1099511627776.;
    -1099511627776.; -0.5; 0.5; 3e9; -3e9; 1.5e10; 2147483647.; -2147483648.;
    255.75; -129.5; 65535.5; 0. ]

let f2i_case () =
  let prog, r =
    differential ~src:f2i_src ~out_bytes:(gws * 32) ~inputs:[ floats f2i_inputs ]
  in
  expect_done r;
  banked prog ~ints:1 ~flts:1

let i2f_src = {|
__kernel void k(__global float* out, __global int* in) {
  int i = get_global_id(0);
  int big = in[i] + 16777217;
  float f = (float)big;
  float g = f * 1.1f + 0.3f;
  g = g * g - f;
  uint u = (uint)big * 3u;
  float h = (float)u + g;
  double dd = (double)big * 1.0000001;
  float acc = 0.1f;
  for (int j = 0; j < 4; j++) { acc = acc * 1.5f + h - g; }
  out[i * 5 + 0] = f;
  out[i * 5 + 1] = g;
  out[i * 5 + 2] = h;
  out[i * 5 + 3] = (float)dd;
  out[i * 5 + 4] = (acc < h) ? acc : -acc;
}
|}

let i2f_case () =
  let prog, r =
    differential ~src:i2f_src ~out_bytes:(gws * 20)
      ~inputs:[ ints (List.init 16 (fun j -> (j * 7919) - 40000 + (j land 1))) ]
  in
  expect_done r;
  banked prog ~ints:1 ~flts:3

let null_src = {|
__kernel void k(__global int* out, __global int* in) {
  int i = get_global_id(0);
  __global int* p = 0;
  int v = in[i];
  if (i == 11) { v = v + p[i]; }
  out[i] = v * 2;
}
|}

let bad_ptr_src = {|
__kernel void k(__global int* out, __global int* in) {
  int i = get_global_id(0);
  __global int* q = (__global int*)(in[i] + 12345);
  int v = in[i];
  if (i == 5) { v = v + q[1]; }
  out[i] = v * 2;
}
|}

let failure_case src expect () =
  let _, r =
    differential ~src ~out_bytes:(gws * 4)
      ~inputs:[ ints (List.init 16 (fun j -> j * 3)) ]
  in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  match r with
  | Failed m ->
    if not (contains m expect) then Alcotest.failf "unexpected failure %S" m
  | Done _ -> Alcotest.fail "expected the kernel to fail"

(* --- residency census ------------------------------------------------ *)

(* The census line `oclcu translate --ir-dump` prints, pinned for two
   small kernels, so a change that silently boxes more registers shows
   up here rather than only as a slower benchmark. *)
let census_of src kernel =
  let prog = Minic.Parser.program ~dialect:Minic.Parser.OpenCL src in
  let est =
    Ir.Emit.make ~special_ty:Gpusim.Exec.special_ty ~cfg:Ir.Pipeline.all prog
  in
  match Ir.Emit.ir est kernel with
  | Some (Ok fn) -> Ir.Emit.census est.Ir.Emit.e_layout fn
  | Some (Error e) -> Alcotest.failf "%s not IR-compiled: %s" kernel e
  | None -> Alcotest.failf "no kernel %s" kernel

let vadd_source () =
  let app =
    List.find
      (fun (a : Bridge.Framework.ocl_app) -> a.Bridge.Framework.oa_name = "oclVectorAdd")
      Suite.Registry.all_opencl
  in
  match Suite.Capture.kernel_sources app with
  | [ src ] -> src
  | l -> Alcotest.failf "oclVectorAdd: %d kernel sources" (List.length l)

(* integer-heavy: index arithmetic, a loop-carried hash, shifts, masks
   and unsigned compares, one float result *)
let hash_src = {|
__kernel void hash(__global uint* out, __global float* fout, __global int* in, int n) {
  int i = get_global_id(0);
  uint h = 2166136261u;
  for (int j = 0; j < 8; j++) {
    int v = in[(i * 8 + j) % n];
    h = (h ^ (uint)v) * 16777619u;
    h = h ^ (h >> 13u);
  }
  int lo = (int)(h & 65535u);
  int hi = (int)(h >> 16u);
  out[i] = (h > 2147483648u) ? h : ~h;
  fout[i] = (float)(lo - hi) * 0.5f;
}
|}

let census_pinned () =
  let pin what (ni, nf, nb) (ni', nf', nb') =
    Alcotest.(check (triple int int int))
      (what ^ ": int-banked, float-banked, boxed") (ni, nf, nb) (ni', nf', nb')
  in
  (* the loads are typed `__global float`, which Region.bin_case does
     not class, so vadd's float arithmetic and its store stay boxed *)
  pin "vadd" (4, 0, 7) (census_of (vadd_source ()) "vadd");
  pin "hash" (24, 2, 12) (census_of hash_src "hash")

let suites =
  [ ( "banks.census",
      [ Alcotest.test_case "residency census of vadd and an int kernel" `Quick
          census_pinned ] );
    ( "banks.differential",
      [ Alcotest.test_case "uint negate/complement, unsigned compare and >>"
          `Quick uint_case;
        Alcotest.test_case "int shifts by 31/32/63, INT_MIN * -1" `Quick
          int_case;
        Alcotest.test_case "float->int casts of NaN, inf, 2^40, -0.5" `Quick
          f2i_case;
        Alcotest.test_case "int->float above 2^24, chained fp32" `Quick
          i2f_case;
        Alcotest.test_case "null pointer indexed" `Quick
          (failure_case null_src "null pointer indexed");
        Alcotest.test_case "index through a non-pointer" `Quick
          (failure_case bad_ptr_src "not a pointer") ] ) ]
