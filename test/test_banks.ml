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
   is not an encoded pointer; CUDA kernels, written so or translated
   from OpenCL, that read every uint3 component, wrap threadIdx.x - 1
   through unsigned, and index dynamic __local buffers cast out of the
   extern __shared__ pool.

   Each kernel runs under Vm.Interp and under the IR backend at 1 and 4
   domains, with attribution on.  Buffers, Counters.t (under
   Fuzz.Pyramid.counter_refinement) and Attr rows must agree, and a
   failing kernel must fail with the same message.  The
   residency census of each kernel is checked too, so the typed closures
   are known to be the ones under test. *)

open Minic.Ast

(* The bytes are global memory from the output buffer to the end of the
   inputs, so a failing launch is compared on its partial buffers too. *)
type outcome =
  | Done of string * Gpusim.Counters.t * (int * Gpusim.Attr.site) list option
  | Failed of string * string

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

let doubles l =
  { bytes = 8 * List.length l;
    fill =
      (fun a addr ->
         List.iteri (fun i v -> Vm.Memory.store_float a (addr + (8 * i)) 8 v) l) }

let gws = 16
let lws = 8

(* A launch is 1-D over [gws] items in groups of [lws] unless [geometry]
   gives the global and local sizes; [scalars] follow the buffers. *)
let launch ?(extra_externals = []) ?(geometry = ([| gws; 1; 1 |], [| lws; 1; 1 |]))
    ?(dyn_shared = 0) ?(scalars = []) ~backend ~passes ~domains prog ~out_bytes
    ~inputs =
  let config = { (Gpusim.Config.default ()) with backend; passes; domains } in
  let dev =
    Gpusim.Device.create ~config Gpusim.Device.titan
      Gpusim.Device.opencl_on_nvidia
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
  let memory () =
    Bytes.to_string (Vm.Memory.load_bytes g out (g.Vm.Memory.brk - out))
  in
  match
    Gpusim.Exec.launch ~dev ~modul:(Gpusim.Exec.load prog)
      ~globals:(Hashtbl.create 4)
      ~host_arena:(Vm.Memory.create "host") ~extra_externals ~kernel:k
      ~cfg:{ global_size = fst geometry; local_size = snd geometry; dyn_shared }
      ~args:((ptr out :: args) @ scalars) ()
  with
  | stats ->
    Done
      ( memory (),
        stats.Gpusim.Exec.counters,
        Option.map Gpusim.Attr.to_list stats.Gpusim.Exec.attr )
  | exception e -> Failed (Printexc.to_string e, memory ())

let words b =
  let n = min 48 (String.length b / 4) in
  String.concat " "
    (List.init n (fun i -> Int32.to_string (String.get_int32_le b (4 * i))))

let show = function
  | Done (b, _, _) -> "done: " ^ words b
  | Failed (m, b) -> "failed: " ^ m ^ "; memory: " ^ words b

(* What part of the IR's outcome [got] differs from the interpreter's
   [reference], or None when they agree.  With [exact], counters (under
   Fuzz.Pyramid.counter_refinement: values in IR registers have no
   simulated memory traffic) and attribution rows count too. *)
let comparable ~exact reference got =
  match reference, got with
  | Done (b, c, a), Done (b', c', a') ->
    let broken =
      if exact then
        Fuzz.Pyramid.(
          counter_refinement ~ir:(counter_fields c')
            ~interp:(counter_fields c))
      else []
    in
    if b <> b' then Some "buffers"
    else if broken <> [] then
      Some ("counters (" ^ String.concat ", " broken ^ ")")
    else if exact && a <> a' then Some "attribution rows"
    else None
  | Failed (x, b), Failed (y, b') when x = y ->
    if b <> b' then Some "partial buffers" else None
  | _ -> Some "outcomes"

(* How a test source becomes the launched program: parsed as OpenCL C
   or as CUDA, or parsed as OpenCL C and translated to CUDA as
   clBuildProgram on the CUDA wrappers does (a dynamic __local becomes a
   size_t parameter and a cast out of the extern __shared__ pool).
   With [attribute], sites are on the source as written. *)
type source = OpenCL | Cuda | Translated

let program_of ?(attribute = false) source src =
  let parse dialect = Minic.Parser.program ~dialect src in
  let sited prog = if attribute then Minic.Site.annotate prog else prog in
  match source with
  | OpenCL -> sited (parse Minic.Parser.OpenCL)
  | Cuda -> sited (parse Minic.Parser.Cuda)
  | Translated ->
    (Xlat.Ocl_to_cuda.translate ~attribute (parse Minic.Parser.OpenCL))
      .Xlat.Ocl_to_cuda.cuda_prog

(* Interpreter vs IR backend at 1 and 4 domains; returns the reference.
   With no passes the IR charges what the interpreter charges (up to
   promoted private traffic), so counters and attribution rows must
   match too; with every pass on, ops are eliminated, and buffers and
   failures must still match, and the run at 4 domains must read
   exactly as the one at 1. *)
let differential ?extra_externals ?(source = OpenCL) ?geometry ?dyn_shared
    ?scalars ~src ~out_bytes ~inputs () =
  let prog = program_of ~attribute:true source src in
  let run backend passes domains =
    launch ?extra_externals ?geometry ?dyn_shared ?scalars ~backend ~passes
      ~domains prog ~out_bytes ~inputs
  in
  let reference = run Gpusim.Exec.Interp Ir.Pipeline.all 1 in
  let ir passes domains =
    let got = run Gpusim.Exec.Compiled passes domains in
    let exact = passes = Ir.Pipeline.none in
    (match comparable ~exact reference got with
     | None -> ()
     | Some part ->
       Alcotest.failf
         "IR backend (%s passes) at %d domains: %s differ from the \
          interpreter\ninterp: %s\nir:     %s"
         (if exact then "no" else "all") domains part (show reference)
         (show got));
    got
  in
  ignore (ir Ir.Pipeline.none 1);
  ignore (ir Ir.Pipeline.none 4);
  let all1 = ir Ir.Pipeline.all 1 in
  let all4 = ir Ir.Pipeline.all 4 in
  if all1 <> all4 then
    Alcotest.failf "IR backend (all passes): 4 domains differ from 1\n1: %s\n4: %s"
      (show all1) (show all4);
  (prog, reference)

(* The kernel is IR-compiled and banks at least [ints] int and [flts]
   float registers. *)
let census prog =
  let est =
    Ir.Emit.make ~special_ty:Gpusim.Exec.special_ty ~cfg:Ir.Pipeline.all prog
  in
  match Ir.Emit.ir est "k" with
  | Some (Ok fn) -> Ir.Emit.census est fn
  | Some (Error e) -> Alcotest.failf "kernel not IR-compiled: %s" e
  | None -> Alcotest.fail "no kernel k"

let banked prog ~ints ~flts =
  let c = census prog in
  if c.c_ints < ints || c.c_flts < flts then
    Alcotest.failf "expected >= %d int and >= %d float banked, got %d/%d"
      ints flts c.c_ints c.c_flts

let expect_done = function
  | Done _ -> ()
  | Failed (m, _) -> Alcotest.failf "kernel failed: %s" m

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

(* C wraps a uint negation or complement to 32 bits before it widens *)
let uint_wide_src = {|
__kernel void k(__global ulong* out, __global uint* in) {
  int i = get_global_id(0);
  uint a = in[i];
  out[i * 2] = (ulong)~a;
  out[i * 2 + 1] = (ulong)-a;
}
|}

let uint_case () =
  let prog, r =
    differential ~src:uint_src ~out_bytes:(gws * 40)
      ~inputs:[ counts; ints uint_inputs ] ()
  in
  expect_done r;
  banked prog ~ints:4 ~flts:0;
  let wide = Minic.Parser.program ~dialect:Minic.Parser.OpenCL uint_wide_src in
  let expected =
    List.concat_map (fun a -> [ lnot a land 0xFFFFFFFF; -a land 0xFFFFFFFF ]) uint_inputs
  in
  List.iter
    (fun (name, backend, passes) ->
       match
         launch ~backend ~passes ~domains:1 wide ~out_bytes:(gws * 16)
           ~inputs:[ ints uint_inputs ]
       with
       | Done (b, _, _) ->
         Alcotest.(check (list int)) ("(ulong)~a, (ulong)-a: " ^ name) expected
           (List.init (2 * gws) (fun i -> Int64.to_int (String.get_int64_le b (8 * i))))
       | Failed (m, _) -> Alcotest.failf "%s: kernel failed: %s" name m)
    [ ("interpreter", Gpusim.Exec.Interp, Ir.Pipeline.none);
      ("IR, passes none", Gpusim.Exec.Compiled, Ir.Pipeline.none);
      ("IR, passes all", Gpusim.Exec.Compiled, Ir.Pipeline.all) ]

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
      ~inputs:[ counts; ints int_inputs ] ()
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
    differential ~src:f2i_src ~out_bytes:(gws * 32) ~inputs:[ floats f2i_inputs ] ()
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
      ~inputs:[ ints (List.init 16 (fun j -> (j * 7919) - 40000 + (j land 1))) ] ()
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
      ~inputs:[ ints (List.init 16 (fun j -> j * 3)) ] ()
  in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  match r with
  | Failed (m, _) ->
    if not (contains m expect) then Alcotest.failf "unexpected failure %S" m
  | Done _ -> Alcotest.fail "expected the kernel to fail"

(* --- CUDA index components and pointer casts --------------------------- *)

(* Every component of the four uint3 specials on a 3-D grid (2x2x3
   groups of 4x2x2 items), raw and in the unsigned and int arithmetic
   built on them. *)
let uint3_src = {|
__global__ void k(unsigned int* out, int* in) {
  unsigned int bs = blockDim.x * blockDim.y * blockDim.z;
  unsigned int b = (blockIdx.z * gridDim.y + blockIdx.y) * gridDim.x + blockIdx.x;
  unsigned int t = (threadIdx.z * blockDim.y + threadIdx.y) * blockDim.x + threadIdx.x;
  unsigned int i = b * bs + t;
  out[i * 14 + 0] = threadIdx.x;
  out[i * 14 + 1] = threadIdx.y;
  out[i * 14 + 2] = threadIdx.z;
  out[i * 14 + 3] = blockIdx.x;
  out[i * 14 + 4] = blockIdx.y;
  out[i * 14 + 5] = blockIdx.z;
  out[i * 14 + 6] = blockDim.x;
  out[i * 14 + 7] = blockDim.y;
  out[i * 14 + 8] = blockDim.z;
  out[i * 14 + 9] = gridDim.x;
  out[i * 14 + 10] = gridDim.y;
  out[i * 14 + 11] = gridDim.z;
  int gx = blockIdx.x * blockDim.x + threadIdx.x;
  int gz = blockIdx.z * blockDim.z + threadIdx.z;
  out[i * 14 + 12] = in[(gx + gz * 3) % 16] + (int)(threadIdx.y ^ gridDim.z);
  out[i * 14 + 13] = (gridDim.x * blockDim.x) * gz + (int)(blockIdx.y << threadIdx.x);
}
|}

let uint3_case () =
  let geometry = ([| 8; 4; 6 |], [| 4; 2; 2 |]) in
  let prog, r =
    differential ~source:Cuda ~geometry ~src:uint3_src ~out_bytes:(192 * 56)
      ~inputs:[ ints (List.init 16 (fun j -> (j * 37) - 100)) ] ()
  in
  (match r with
   | Done (b, _, _) ->
     (* item 191: thread (3,1,1) of block (1,1,2) *)
     Alcotest.(check (list int32)) "item 191's components"
       [ 3l; 1l; 1l; 1l; 1l; 2l; 4l; 2l; 2l; 2l; 2l; 3l ]
       (List.init 12 (fun c -> String.get_int32_le b (4 * ((191 * 14) + c))))
   | Failed (m, _) -> Alcotest.failf "kernel failed: %s" m);
  banked prog ~ints:56 ~flts:0

(* threadIdx.x - 1 wraps through unsigned int at thread 0: compared,
   shifted, divided, converted to int, float and unsigned long. *)
let wrap_src = {|
__global__ void k(unsigned int* out, float* fout, unsigned long* wout) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  unsigned int t = threadIdx.x - 1;
  out[i * 8 + 0] = t;
  out[i * 8 + 1] = threadIdx.x - 1 > 5u;
  out[i * 8 + 2] = (threadIdx.x - 1) >> 28;
  out[i * 8 + 3] = (threadIdx.x - 1) * 3u + blockIdx.x;
  int s = threadIdx.x - 1;
  out[i * 8 + 4] = (s < 0) + (t == 4294967295u) * 2;
  out[i * 8 + 5] = (threadIdx.x - blockDim.x) / 2u;
  out[i * 8 + 6] = (int)(threadIdx.x - 1) >> 1;
  out[i * 8 + 7] = -threadIdx.x;
  fout[i] = threadIdx.x - 1;
  wout[i] = threadIdx.x - 1;
}
|}

let zeros bytes = { bytes; fill = (fun _ _ -> ()) }

let wrap_case () =
  let prog, r =
    differential ~source:Cuda ~src:wrap_src ~out_bytes:(gws * 32)
      ~inputs:[ zeros (gws * 4); zeros (gws * 8) ] ()
  in
  (match r with
   | Done (b, _, _) ->
     (* item 8 is thread 0 of group 1; wout starts 512 bytes after out *)
     Alcotest.(check (list int32)) "thread 0 of group 1"
       [ -1l; 1l; 15l; -2l; 3l; 2147483644l; -1l; 0l ]
       (List.init 8 (fun c -> String.get_int32_le b (4 * ((8 * 8) + c))));
     Alcotest.(check int64) "(unsigned long)(threadIdx.x - 1)" 4294967295L
       (String.get_int64_le b (512 + 256 + 64))
   | Failed (m, _) -> Alcotest.failf "kernel failed: %s" m);
  banked prog ~ints:32 ~flts:0

(* An OpenCL kernel with two dynamic __local arguments, translated: the
   CUDA kernel takes their sizes and casts each out of the extern
   __shared__ pool, and its get_* helpers inline to index components.
   A large [n] indexes past the pool. *)
let pool_src = {|
__kernel void k(__global int* out, __global int* in, __local int* a,
                __local float* b, int n) {
  int lid = get_local_id(0);
  int gid = get_global_id(0);
  int m = get_local_size(0);
  a[lid] = in[gid] * 3 + lid;
  b[lid] = (float)gid * 0.5f;
  barrier(CLK_LOCAL_MEM_FENCE);
  out[gid] = a[(lid + 1) % m + n] + (int)b[(lid + m - 1) % m]
           + get_group_id(0) * 100 + get_num_groups(0) * get_global_size(0);
}
|}

let pool_case ~n () =
  let size b =
    Gpusim.Exec.Arg_val (Vm.Interp.tv (Vm.Value.VInt (Int64.of_int b)) (TScalar SizeT))
  in
  let prog, r =
    differential ~source:Translated ~src:pool_src ~out_bytes:(gws * 4)
      ~dyn_shared:(2 * lws * 4)
      ~scalars:[ size (lws * 4); size (lws * 4); Gpusim.Exec.Arg_val (Vm.Interp.tint n) ]
      ~inputs:[ ints (List.init 16 (fun j -> (j * 11) - 30)) ] ()
  in
  (match r with
   | Done _ when n = 0 -> ()
   | Failed (m, _) when n > 0 ->
     (* a[1 + n] of thread 0: the arena's 16 reserved bytes, then 4 per int *)
     Alcotest.(check string) "fault" "Vm.Memory.Fault(\"local\", 16404)" m
   | _ -> Alcotest.failf "unexpected outcome: %s" (show r));
  banked prog ~ints:22 ~flts:2

(* --- resolved-type and double arithmetic ------------------------------ *)

let counters_of = function
  | Done (_, c, _) -> c
  | Failed (m, _) -> Alcotest.failf "kernel failed: %s" m

let doubles_of = function
  | Done (b, _, _) -> List.init (gws * 4) (fun i -> Int64.float_of_bits (String.get_int64_le b (8 * i)))
  | Failed (m, _) -> Alcotest.failf "kernel failed: %s" m

(* float + double is double (Op_double), float * int is float (Op_float,
   fp32 rounding), either `/` is Op_special; compares charge their
   promoted type *)
let mixed_src = {|
__kernel void k(__global double* out, __global float* fin, __global double* din,
                __global int* iin) {
  int i = get_global_id(0);
  float f = fin[i];
  double d = din[i];
  int n = iin[i];
  out[i * 8 + 0] = f + d;
  out[i * 8 + 1] = d * n - f;
  out[i * 8 + 2] = f * n - 0.5f;
  out[i * 8 + 3] = d / f;
  out[i * 8 + 4] = f / (float)n + f / 3.0f;
  out[i * 8 + 5] = (f < d) + (n > f) * 2 + (d == n) * 4 + (f != d) * 8;
  out[i * 8 + 6] = (double)(f * 3.1f) - d * 1e-3;
  out[i * 8 + 7] = n - d + (float)d;
}
|}

let real_inputs =
  [ 0.1; -2.5; 3.75; 1e-7; 16777217.; -0.; 1e30; 0.3; 7.; -7.; 2.5e-3; 100.;
    1.0000001; -1e10; 65504.; 0.5 ]

let mixed_case () =
  let prog, r =
    differential ~src:mixed_src ~out_bytes:(gws * 64)
      ~inputs:
        [ floats real_inputs;
          doubles (List.map (fun x -> (x *. 1.7) +. 0.1) real_inputs);
          ints (List.init 16 (fun j -> (j * 3) - 20)) ] ()
  in
  let c = counters_of r in
  if c.ops_float = 0 || c.ops_double = 0 || c.ops_special = 0 then
    Alcotest.failf "expected float, double and special charges, got %d/%d/%d"
      c.ops_float c.ops_double c.ops_special;
  banked prog ~ints:1 ~flts:12

(* IEEE division by zero, and every compare on NaN, in both precisions *)
let nan_src = {|
__kernel void k(__global int* out, __global float* fin, __global double* din) {
  int i = get_global_id(0);
  float f = fin[i];
  double d = din[i];
  float q = f / (f - f);
  double e = d / (d - d);
  float z = f / 0.0f;
  out[i * 8 + 0] = (q < 1.0f) + (q > 1.0f) * 2 + (q <= q) * 4 + (q >= 1.0f) * 8;
  out[i * 8 + 1] = (q == q) + (q != q) * 2;
  out[i * 8 + 2] = (e < d) + (e > d) * 2 + (e == e) * 4 + (e != e) * 8;
  out[i * 8 + 3] = (z == z) + (z != z) * 2 + (z > 0.0f) * 4 + (z < 0.0f) * 8;
  out[i * 8 + 4] = (z > f) + (q < d) * 2;
  out[i * 8 + 5] = (f / 0.0f) == (d / 0.0);
  out[i * 8 + 6] = (f - f) == 0.0f;
  out[i * 8 + 7] = (f * d) != (f * d);
}
|}

let specials =
  [ 0.; -0.; Float.nan; Float.infinity; Float.neg_infinity; 1.5; -2.25; 1e30;
    3e38; 1e-40; -1e-45; 7.; Float.nan; -0.5; 2.; -3. ]

let nan_case () =
  let prog, r =
    differential ~src:nan_src ~out_bytes:(gws * 32)
      ~inputs:[ floats specials; doubles specials ] ()
  in
  expect_done r;
  banked prog ~ints:8 ~flts:4

(* --- short-vector slots ----------------------------------------------- *)

(* float2 and short2 component stores normalize to the element type
   (fp32 rounding, a 16-bit wrap) where a double2 one keeps the value;
   all three locals live in slots *)
let round_src = {|
__kernel void k(__global double* out, __global double* din) {
  int i = get_global_id(0);
  double x = din[i] * 1.0000001;
  float2 a;
  double2 b;
  short2 s;
  a.x = x;
  a.y = x * 3.0;
  b.x = x;
  b.y = x * 3.0;
  s.x = i * 40000 + (int)x;
  s.y = s.x + 1;
  out[i * 4 + 0] = a.x;
  out[i * 4 + 1] = b.x;
  out[i * 4 + 2] = a.y + b.y;
  out[i * 4 + 3] = s.y;
}
|}

let round_case () =
  let prog, r =
    differential ~src:round_src ~out_bytes:(gws * 32)
      ~inputs:[ doubles real_inputs ] ()
  in
  let out = doubles_of r in
  if not (List.exists (fun i -> List.nth out (4 * i) <> List.nth out ((4 * i) + 1))
            (List.init gws Fun.id))
  then Alcotest.fail "no float2 component rounded";
  let c = census prog in
  Alcotest.(check int) "vector locals in slots" 3 c.c_vlocals

(* vector loads and stores through slots: global -> local -> local ->
   global, a component update, and a whole load into a boxed register
   (vector arithmetic); each access charges one private access *)
let copy_src = {|
__kernel void k(__global float4* out, __global float4* in) {
  int i = get_global_id(0);
  float4 v = in[i];
  float4 w = v;
  w.z = w.x + w.y;
  out[i] = w;
  out[i + 16] = (float4)(v.x, 1.0f, 2.0f, 3.0f) + v;
}
|}

let copy_case () =
  let prog, r =
    differential ~src:copy_src ~out_bytes:(gws * 32)
      ~inputs:[ floats (List.init 64 (fun j -> (float_of_int j *. 0.37) -. 9.)) ] ()
  in
  expect_done r;
  let c = census prog in
  Alcotest.(check (pair int int)) "vector registers and locals in slots" (3, 2)
    (c.c_vregs, c.c_vlocals);
  (* store v, load v, store w, load w.x, load w.y, store w.z, load w,
     load v.x, load v *)
  let ir =
    launch ~backend:Gpusim.Exec.Compiled ~passes:Ir.Pipeline.none ~domains:1 prog
      ~out_bytes:(gws * 32)
      ~inputs:[ floats (List.init 64 float_of_int) ]
  in
  Alcotest.(check int) "private accesses" (9 * gws)
    (counters_of ir).Gpusim.Counters.private_accesses

(* Vector locals that stay in private memory: each kernel breaks one
   rule, and must still agree with the interpreter. *)
let in_memory =
  [ ( "read before written",
      {|
__kernel void k(__global float* out, __global float* fin, __global int* iin) {
  int i = get_global_id(0);
  float2 v;
  v.x = fin[i];
  out[i] = v.x + v.y;
}
|} );
    ( "declared outside a loop, first written inside it",
      {|
__kernel void k(__global float* out, __global float* fin, __global int* iin) {
  int i = get_global_id(0);
  float2 v;
  for (int j = 0; j < iin[i] % 3; j++) { v.x = fin[j]; v.y = 2.0f * j; }
  out[i] = v.x - v.y;
}
|} );
    ( "address taken",
      {|
__kernel void k(__global float* out, __global float* fin, __global int* iin) {
  int i = get_global_id(0);
  float2 v;
  v.x = fin[i];
  v.y = 1.0f;
  float* p = &v.y;
  *p = *p + v.x;
  out[i] = v.y;
}
|} );
    ( "indexed",
      {|
__kernel void k(__global float* out, __global float* fin, __global int* iin) {
  int i = get_global_id(0);
  float4 v = (float4)(1.0f, 2.0f, 3.0f, fin[i]);
  out[i] = v[i & 3];
}
|} );
    ( ".xy swizzle",
      {|
__kernel void k(__global float* out, __global float* fin, __global int* iin) {
  int i = get_global_id(0);
  float4 v = (float4)(1.0f, 2.0f, 3.0f, fin[i]);
  v.xy = (float2)(fin[i], 0.5f);
  out[i] = v.x + v.y + v.w;
}
|} );
    ( "brace initializer",
      {|
__kernel void k(__global float* out, __global float* fin, __global int* iin) {
  int i = get_global_id(0);
  float2 v = { fin[i], 2.0f };
  out[i] = v.x * v.y;
}
|} ) ]

let in_memory_case src () =
  let prog, r =
    differential ~src ~out_bytes:(gws * 4)
      ~inputs:[ floats real_inputs; ints (List.init 16 (fun j -> (j * 5) - 7)) ] ()
  in
  expect_done r;
  Alcotest.(check int) "vector locals in slots" 0 (census prog).c_vlocals

(* [tail] holds six floats and ends global memory, so tail[1] straddles
   its end: components 0 and 1 lie inside, 2 does not.  The slotted load
   and store fault on component 2, the store after writing 0 and 1. *)
let oob_load_src = {|
__kernel void k(__global int* out, __global float4* tail) {
  int i = get_global_id(0);
  out[i] = i;
  if (i == 5) {
    float4 v = tail[1];
    out[i] = (int)v.x;
  }
}
|}

let oob_store_src = {|
__kernel void k(__global int* out, __global float4* tail) {
  int i = get_global_id(0);
  float4 v = (float4)(1.5f, 2.5f, 3.5f, 4.5f);
  out[i] = i;
  if (i == 5) tail[1] = v;
}
|}

let oob_case ~stores src () =
  let prog, r =
    differential ~src ~out_bytes:(gws * 4) ~inputs:[ floats (List.init 6 float_of_int) ] ()
  in
  (match r with
   | Failed (_, b) ->
     (* tail starts 256 bytes after out; tail[1] at 16 bytes into it *)
     let at o = Int32.float_of_bits (String.get_int32_le b (256 + 16 + o)) in
     let expect = if stores then (1.5, 2.5) else (4., 5.) in
     Alcotest.(check (pair (float 0.) (float 0.))) "tail[1].x, .y" expect (at 0, at 4)
   | Done _ -> Alcotest.fail "expected a fault");
  if (census prog).c_vregs = 0 then Alcotest.fail "no vector register in slots"

(* --- external calls ---------------------------------------------------- *)

(* The memo resolves through the launch's table, so an extra external
   that overrides a built-in is still the one called. *)
let override_src = {|
__kernel void k(__global int* out) {
  int i = get_global_id(0);
  out[i] = i + 100 + get_global_id(1) * 1000;
}
|}

let override_case () =
  let extra_externals =
    [ ( "get_global_id",
        fun _ (args : Vm.Interp.tval list) ->
          match args with
          | [ a ] -> Vm.Interp.tint (3 + Int64.to_int (Vm.Value.to_int a.Vm.Interp.v))
          | _ -> Vm.Interp.tint 0 ) ]
  in
  let _, r =
    differential ~extra_externals ~src:override_src ~out_bytes:(gws * 4)
      ~inputs:[] ()
  in
  match r with
  | Done (b, _, _) ->
    Alcotest.(check (pair int32 int32)) "out[0], out[3]" (0l, 4103l)
      (String.get_int32_le b 0, String.get_int32_le b 12)
  | Failed (m, _) -> Alcotest.failf "kernel failed: %s" m

(* --- residency census ------------------------------------------------ *)

(* The census line `oclcu translate --ir-dump` prints, pinned for two
   small kernels, FT's first butterfly and both matrix multiplies of the
   paper's figures, so a change that silently boxes more registers or
   moves a vector back to memory shows up here rather than only as a
   slower benchmark. *)
let census_of ?(source = OpenCL) src kernel =
  let prog = program_of source src in
  let est =
    Ir.Emit.make ~special_ty:Gpusim.Exec.special_ty ~cfg:Ir.Pipeline.all prog
  in
  match Ir.Emit.ir est kernel with
  | Some (Ok fn) ->
    let c = Ir.Emit.census est fn in
    [ c.c_ints; c.c_flts; c.c_boxed; c.c_vregs; c.c_vlocals ]
  | Some (Error e) -> Alcotest.failf "%s not IR-compiled: %s" kernel e
  | None -> Alcotest.failf "no kernel %s" kernel

(* The one kernel source a suite OpenCL app builds. *)
let ocl_source name =
  let app =
    List.find
      (fun (a : Bridge.Framework.ocl_app) -> a.Bridge.Framework.oa_name = name)
      Suite.Registry.all_opencl
  in
  match Suite.Capture.kernel_sources app with
  | [ src ] -> src
  | l -> Alcotest.failf "%s: %d kernel sources" name (List.length l)

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
  let pin what expected got =
    Alcotest.(check (list int))
      (what ^ ": int-banked, float-banked, boxed; vector registers and locals in slots")
      expected got
  in
  (* the `__global float` loads class on their resolved type, so vadd's
     float arithmetic and its store run banked; the pointers and the
     bounds check's merge stay boxed *)
  pin "vadd" [ 5; 3; 3; 0; 0 ] (census_of (ocl_source "oclVectorAdd") "vadd");
  pin "hash" [ 24; 2; 12; 0; 0 ] (census_of hash_src "hash");
  (* double2 tile elements move through slots, their components through
     the float bank *)
  pin "cffts1" [ 23; 16; 3; 7; 5 ] (census_of Suite.Npb.ft_src "cffts1");
  (* CUDA kernels bank their index components (the translated get_*
     helpers inline to them) and index the tiles cast out of the shared
     pool typed; the pool pointers, the pool and the uint3 specials
     themselves stay boxed, and so do matrixMul's 2-D tile rows *)
  pin "matmul, translated to CUDA" [ 37; 9; 17; 0; 0 ]
    (census_of ~source:Translated (ocl_source "oclMatrixMul") "matmul");
  pin "matrixMul (Figure 8)" [ 33; 1; 29; 0; 0 ]
    (census_of ~source:Cuda Suite.Toolkit_cuda.matrixmul.Suite.Registry.cu_src "matrixMul")

let suites =
  [ ( "banks.census",
      [ Alcotest.test_case "residency census of vadd and an int kernel" `Quick
          census_pinned ] );
    ( "banks.doubles",
      [ Alcotest.test_case "mixed float/double/int operands and charges" `Quick
          mixed_case;
        Alcotest.test_case "float division by zero and NaN compares" `Quick
          nan_case ] );
    ( "banks.vectors",
      [ Alcotest.test_case "component stores round, wrap or keep" `Quick round_case;
        Alcotest.test_case "vector copies through slots" `Quick copy_case;
        Alcotest.test_case "out-of-bounds vector load" `Quick (oob_case ~stores:false oob_load_src);
        Alcotest.test_case "out-of-bounds vector store" `Quick (oob_case ~stores:true oob_store_src) ]
      @ List.map
          (fun (what, src) ->
             Alcotest.test_case ("stays in memory: " ^ what) `Quick (in_memory_case src))
          in_memory );
    ( "banks.cuda",
      [ Alcotest.test_case "every uint3 component on a 3-D grid" `Quick uint3_case;
        Alcotest.test_case "threadIdx.x - 1 wraps through unsigned" `Quick wrap_case;
        Alcotest.test_case "two __local arguments cast out of the shared pool"
          `Quick (pool_case ~n:0);
        Alcotest.test_case "an index past the shared pool" `Quick (pool_case ~n:4096) ] );
    ( "banks.externals",
      [ Alcotest.test_case "extra external overrides get_global_id" `Quick
          override_case ] );
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
