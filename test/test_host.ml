(* Host code through the IR.

   Under the Compiled backend `Hostrun.run_main` runs a program's
   `main()` through its host compile (`Hostrun.compile`), which lowers
   the two host-only constructs: string literals and `<<<...>>>` kernel
   calls.  These tests pin that path to the interpreter: the Figure 8
   programs print the same under both host engines, the host compile
   lowers every `main` but three (while the device compile still
   rejects them all), a kernel call evaluates its operands in one order,
   heap storage outlives the frame that allocated it, and `exit()` ends
   the program. *)

open Bridge.Framework

let config backend = { (Gpusim.Config.default ()) with Gpusim.Config.backend }

let engines = [ ("interp", Gpusim.Config.Interp); ("compiled", Gpusim.Config.Compiled) ]

let translatable =
  List.filter
    (fun (c : Suite.Registry.cuda_app) -> c.cu_expect_translatable)
    Suite.Registry.all_cuda

let translated (c : Suite.Registry.cuda_app) =
  match translate_cuda ~tex1d_texels:c.cu_tex1d_texels c.cu_src with
  | Translated r -> r
  | Failed _ -> Alcotest.failf "%s did not translate" c.cu_name

(* ------------------------------------------------------------------ *)
(* Differential: the Figure 8 programs, native and translated          *)
(* ------------------------------------------------------------------ *)

let differential () =
  Alcotest.(check int) "translatable programs" 39 (List.length translatable);
  List.iter
    (fun (c : Suite.Registry.cuda_app) ->
       let res = translated c in
       let native backend =
         (run_cuda_native ~dev:(device_of ~config:(config backend) Titan_cuda)
            c.cu_src)
           .r_output
       in
       let on_ocl backend =
         (run_translated_cuda
            ~dev:(device_of ~config:(config backend) Titan_opencl) res)
           .r_output
       in
       Alcotest.(check string) (c.cu_name ^ " native")
         (native Gpusim.Config.Interp) (native Gpusim.Config.Compiled);
       Alcotest.(check string) (c.cu_name ^ " translated")
         (on_ocl Gpusim.Config.Interp) (on_ocl Gpusim.Config.Compiled))
    translatable

(* ------------------------------------------------------------------ *)
(* Census: which mains the host compile lowers                         *)
(* ------------------------------------------------------------------ *)

let verdict est =
  match Ir.Emit.ir est "main" with
  | Some (Ok _) -> None
  | Some (Error why) -> Some why
  | None -> Some "no main"

let host_verdict prog =
  verdict
    (Bridge.Hostrun.compile ~passes:(Gpusim.Config.default ()).passes
       ~special_ident:Bridge.Hostrun.host_constants prog)

(* The three mains that stay on the interpreter, in both directions:
   two read members of a cudaDeviceProp, one makes a template call. *)
let interpreted_mains =
  [ ("deviceQuery", "member lvalue .major of cudaDeviceProp");
    ("deviceQueryDrv", "member lvalue .totalGlobalMem of cudaDeviceProp");
    ("simpleTexture", "template call") ]

let census () =
  let rejected prog_of =
    List.filter_map
      (fun (c : Suite.Registry.cuda_app) ->
         Option.map (fun why -> (c.cu_name, why)) (host_verdict (prog_of c)))
      translatable
    |> List.sort compare
  in
  Alcotest.(check (list (pair string string)))
    "native mains the host compile rejects" interpreted_mains
    (rejected (fun c ->
         Minic.Parser.program ~dialect:Minic.Parser.Cuda c.cu_src));
  Alcotest.(check (list (pair string string)))
    "translated mains the host compile rejects" interpreted_mains
    (rejected (fun c -> (translated c).Xlat.Cuda_to_ocl.host_prog));
  (* the device compile (Exec's, on first launch) is unchanged: it
     rejects the string literal or kernel call in every main *)
  List.iter
    (fun (c : Suite.Registry.cuda_app) ->
       let prog = Minic.Parser.program ~dialect:Minic.Parser.Cuda c.cu_src in
       let est =
         Ir.Emit.make ~special_ty:Gpusim.Exec.special_ty
           ~cfg:(Gpusim.Config.default ()).passes prog
       in
       Alcotest.(check bool) (c.cu_name ^ ": device compile rejects main") true
         (verdict est <> None))
    translatable

(* ------------------------------------------------------------------ *)
(* Directed host programs, under both host engines                     *)
(* ------------------------------------------------------------------ *)

(* [src]'s output when run natively under each host engine, after
   checking that the host compile lowers its main (so the compiled
   engine really runs it through the IR). *)
let expect_output name src expected () =
  Alcotest.(check (option string)) (name ^ ": main lowers") None
    (host_verdict (Minic.Parser.program ~dialect:Minic.Parser.Cuda src));
  List.iter
    (fun (engine, backend) ->
       let out =
         (run_cuda_native ~dev:(device_of ~config:(config backend) Titan_cuda) src)
           .r_output
       in
       Alcotest.(check string) (Printf.sprintf "%s (%s)" name engine) expected out)
    engines

(* grid, block, shared bytes, then the arguments left to right *)
let operand_order_src = {|
int trail = 0;

int tick(int v) {
  trail = trail * 10 + v;
  return v;
}

__global__ void record(int* out, int a, int b) {
  if (blockIdx.x == 0 && threadIdx.x == 0) out[0] = a * 10 + b;
}

int main(void) {
  int* d;
  cudaMalloc((void**)&d, sizeof(int));
  record<<<tick(1), tick(2), tick(3) * 0>>>(d, tick(4), tick(5));
  int h = 0;
  cudaMemcpy(&h, d, sizeof(int), cudaMemcpyDeviceToHost);
  printf("%d %d\n", trail, h);
  return 0;
}
|}

(* a buffer malloc'd in a helper is still there when the helper returns *)
let malloc_in_helper_src = {|
float* make(int n) {
  float* p = (float*)malloc(n * sizeof(float));
  for (int i = 0; i < n; i++) p[i] = i * 1.5f;
  return p;
}

int main(void) {
  float* a = make(4);
  printf("%.2f\n", a[3]);
  return 0;
}
|}

(* a literal first evaluated in a helper's frame is not reused as the
   heap storage of a later malloc *)
let literal_in_helper_src = {|
void hello(void) {
  printf("hello\n");
}

int main(void) {
  hello();
  char* buf = (char*)malloc(16);
  memset(buf, 0, 16);
  hello();
  return 0;
}
|}

(* copy propagation forwards values converted, as the stores of [x],
   [big], [v] and [n] convert them *)
let forwarded_values_src = {|
int main(void) {
  float x = 0.1f;
  double d = x;
  int big = 4294967297;
  long l = big;
  unsigned int* p = (unsigned int*)malloc(2 * sizeof(unsigned int));
  p[0] = 0u;
  p[1] = 3u;
  unsigned int u = p[0];
  unsigned int v = ~u;
  unsigned long w = v;
  unsigned int t = p[1];
  unsigned int n = -t;
  unsigned long m = n;
  printf("%.17g %ld %lu %u %lu\n", d, l, w, v >> 4, m);
  return 0;
}
|}

(* %e %E %g %G with no flag, width or precision keep their conversion *)
let printf_floats_src = {|
int main(void) {
  printf("%g %e %G %E\n", 4.5, 4.5, 0.00001234, 1234567.0);
  return 0;
}
|}

(* C wraps an unsigned int negation or complement to 32 bits, and
   promotes narrower operands to int *)
let unsigned_unary_src = {|
int main(void) {
  unsigned int* p = (unsigned int*)malloc(2 * sizeof(unsigned int));
  p[0] = 0u;
  p[1] = 1u;
  unsigned int u = p[0];
  unsigned long w = ~u;
  unsigned long v = -p[1];
  unsigned char c = (unsigned char)p[0];
  int x = ~c;
  short s = (short)-32768;
  int y = -s;
  printf("%lu %lu %d %d\n", w, v, x, y);
  return 0;
}
|}

let exit_in_helper_src = {|
void fatal(void) {
  printf("fatal\n");
  exit(1);
}

int main(void) {
  fatal();
  printf("still running after exit\n");
  return 0;
}
|}

let suites =
  [ ( "host.differential",
      [ Alcotest.test_case "Figure 8 programs print the same on both host engines"
          `Slow differential ] );
    ( "host.census",
      [ Alcotest.test_case "host compile lowers all mains but three" `Quick
          census ] );
    ( "host.directed",
      [ Alcotest.test_case "kernel-call operands evaluate in order" `Quick
          (expect_output "operand order" operand_order_src "12345 45\n");
        Alcotest.test_case "malloc in a helper outlives its frame" `Quick
          (expect_output "malloc in helper" malloc_in_helper_src "4.50\n");
        Alcotest.test_case "string literal outlives its frame" `Quick
          (expect_output "literal in helper" literal_in_helper_src
             "hello\nhello\n");
        Alcotest.test_case "forwarded values keep their store conversion"
          `Quick
          (expect_output "forwarded values" forwarded_values_src
             "0.10000000149011612 1 4294967295 268435455 4294967293\n");
        Alcotest.test_case "exit() in a helper ends the program" `Quick
          (expect_output "exit in helper" exit_in_helper_src "fatal\n");
        Alcotest.test_case "printf %g %e %G %E keep their conversion" `Quick
          (expect_output "printf floats" printf_floats_src
             "4.5 4.500000e+00 1.234E-05 1.234567E+06\n");
        Alcotest.test_case "unsigned int negation and complement wrap" `Quick
          (expect_output "unsigned unary" unsigned_unary_src
             "4294967295 4294967295 -1 32768\n") ] ) ]
