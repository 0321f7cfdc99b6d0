(* Interpreter and memory-model tests: values, arenas, layout, host-style
   program execution. *)

open Minic.Ast

let host_arena () = Vm.Memory.create "host"

(* Run a Mini-C program's main() on a host arena with printf captured,
   interpreted and compiled: the two must print the same output or raise
   the same exception, which is then raised. *)
let run_host ?(externals = []) src =
  let prog = Minic.Parser.program ~dialect:Minic.Parser.Cuda src in
  let run backend =
    let session = Bridge.Hostrun.make_session () in
    let arena_of : addr_space -> Vm.Memory.arena = function
      | AS_none -> session.Bridge.Hostrun.arena
      | _ -> failwith "host-only test touched device space"
    in
    let config = { (Gpusim.Config.default ()) with backend } in
    match
      Bridge.Hostrun.run_main ~config ~session ~prog ~arena_of ~externals
        ~special_ident:Bridge.Hostrun.host_constants ()
    with
    | out -> Ok out
    | exception e -> Error e
  in
  let interp = run Gpusim.Config.Interp in
  let compiled = run Gpusim.Config.Compiled in
  let show = function Ok out -> out | Error e -> Printexc.to_string e in
  Alcotest.(check string) "compiled host agrees with the interpreter"
    (show interp) (show compiled);
  match interp with Ok out -> out | Error e -> raise e

let expect name src out () =
  Alcotest.(check string) name out (run_host src)

(* --- values ------------------------------------------------------------ *)

let value_tests =
  [ Alcotest.test_case "pointer encoding round trip" `Quick (fun () ->
        List.iter
          (fun sp ->
             let p = Vm.Value.make_ptr sp 12345 in
             Alcotest.(check bool) "space" true (Vm.Value.ptr_space p = sp);
             Alcotest.(check int) "offset" 12345 (Vm.Value.ptr_offset p))
          [ AS_none; AS_global; AS_constant; AS_local; AS_private ]);
    Alcotest.test_case "int wrapping by width" `Quick (fun () ->
        Alcotest.(check int64) "char wrap" (-1L) (Vm.Value.wrap_int Char 255L);
        Alcotest.(check int64) "uchar wrap" 255L (Vm.Value.wrap_int UChar 255L);
        Alcotest.(check int64) "int wrap" (-2147483648L)
          (Vm.Value.wrap_int Int 2147483648L);
        Alcotest.(check int64) "uint wrap" 4294967295L
          (Vm.Value.wrap_int UInt (-1L)));
    Alcotest.test_case "float rounds to fp32 on store" `Quick (fun () ->
        let a = host_arena () in
        let p = Vm.Memory.alloc a 4 in
        Vm.Memory.store_float a p 4 1.0000001;
        let v = Vm.Memory.load_float a p 4 in
        Alcotest.(check bool) "single precision" true (v <> 1.0000001 || v = 1.0)) ]

(* --- memory ------------------------------------------------------------ *)

let memory_tests =
  [ Alcotest.test_case "alloc alignment and growth" `Quick (fun () ->
        let a = Vm.Memory.create ~initial:32 "t" in
        let p1 = Vm.Memory.alloc a ~align:16 10 in
        let p2 = Vm.Memory.alloc a ~align:16 100 in
        Alcotest.(check int) "aligned" 0 (p1 mod 16);
        Alcotest.(check int) "aligned2" 0 (p2 mod 16);
        Alcotest.(check bool) "disjoint" true (p2 >= p1 + 10);
        Vm.Memory.store_int a (p2 + 96) 4 7L;
        Alcotest.(check int64) "grown region readable" 7L
          (Vm.Memory.load_int a (p2 + 96) 4));
    Alcotest.test_case "mark and release reuse" `Quick (fun () ->
        let a = Vm.Memory.create "t" in
        let m = Vm.Memory.mark a in
        let p1 = Vm.Memory.alloc a 64 in
        Vm.Memory.release a m;
        let p2 = Vm.Memory.alloc a 64 in
        Alcotest.(check int) "reused" p1 p2);
    Alcotest.test_case "blit between arenas" `Quick (fun () ->
        let a = Vm.Memory.create "a" and b = Vm.Memory.create "b" in
        let pa = Vm.Memory.alloc a 16 and pb = Vm.Memory.alloc b 16 in
        Vm.Memory.store_int a pa 8 0x1122334455667788L;
        Vm.Memory.blit ~src:a ~src_addr:pa ~dst:b ~dst_addr:pb ~len:8;
        Alcotest.(check int64) "copied" 0x1122334455667788L
          (Vm.Memory.load_int b pb 8));
    Alcotest.test_case "fault on negative address" `Quick (fun () ->
        let a = Vm.Memory.create "t" in
        Alcotest.check_raises "fault" (Vm.Memory.Fault ("t", -4)) (fun () ->
            ignore (Vm.Memory.load_int a (-4) 4))) ]

(* --- layout ------------------------------------------------------------ *)

let layout_tests =
  [ Alcotest.test_case "scalar and vector sizes" `Quick (fun () ->
        let env = Vm.Layout.empty_env () in
        Alcotest.(check int) "int" 4 (Vm.Layout.sizeof env (TScalar Int));
        Alcotest.(check int) "double" 8 (Vm.Layout.sizeof env (TScalar Double));
        Alcotest.(check int) "float4" 16 (Vm.Layout.sizeof env (TVec (Float, 4)));
        Alcotest.(check int) "double2" 16 (Vm.Layout.sizeof env (TVec (Double, 2)));
        Alcotest.(check int) "ptr" 8 (Vm.Layout.sizeof env (TPtr (TScalar Char)));
        Alcotest.(check int) "int[10]" 40
          (Vm.Layout.sizeof env (TArr (TScalar Int, Some 10))));
    Alcotest.test_case "struct layout with padding" `Quick (fun () ->
        let prog =
          Minic.Parser.program ~dialect:Minic.Parser.Cuda
            "typedef struct { char c; double d; int i; } S;"
        in
        let env = Vm.Layout.make_env prog in
        Alcotest.(check int) "sizeof S" 24 (Vm.Layout.sizeof env (TNamed "S"));
        (match Vm.Layout.field_offset env "S" "d" with
         | Some (off, TScalar Double) -> Alcotest.(check int) "d at 8" 8 off
         | _ -> Alcotest.fail "field d");
        match Vm.Layout.field_offset env "S" "i" with
        | Some (off, _) -> Alcotest.(check int) "i at 16" 16 off
        | None -> Alcotest.fail "field i");
    Alcotest.test_case "dim3 builtin struct" `Quick (fun () ->
        let env = Vm.Layout.empty_env () in
        Alcotest.(check int) "dim3 size" 12 (Vm.Layout.sizeof env (TNamed "dim3"))) ]

(* --- interpretation of host programs ----------------------------------- *)

let interp_tests =
  [ Alcotest.test_case "arithmetic and printf" `Quick
      (expect "arith"
         "int main(void) { int a = 7; int b = 3; \
          printf(\"%d %d %d %d\\n\", a + b, a / b, a % b, a << 2); return 0; }"
         "10 2 1 28\n");
    Alcotest.test_case "float formatting" `Quick
      (expect "floats"
         "int main(void) { float x = 1.5f; printf(\"%.2f %.3e\\n\", x, 0.5); return 0; }"
         "1.50 5.000e-01\n");
    Alcotest.test_case "pointers and address-of" `Quick
      (expect "ptr"
         "int main(void) { int x = 5; int* p = &x; *p = 9; \
          printf(\"%d\\n\", x); return 0; }"
         "9\n");
    Alcotest.test_case "arrays and loops" `Quick
      (expect "arrays"
         "int main(void) { int a[8]; int s = 0; \
          for (int i = 0; i < 8; i++) a[i] = i * i; \
          for (int i = 0; i < 8; i++) s += a[i]; \
          printf(\"%d\\n\", s); return 0; }"
         "140\n");
    Alcotest.test_case "struct field access and copy" `Quick
      (expect "struct"
         "typedef struct { int x; int y; } P;\n\
          int main(void) { P a; a.x = 3; a.y = 4; P b = a; b.x = 10; \
          printf(\"%d %d %d\\n\", a.x, b.x, b.y); return 0; }"
         "3 10 4\n");
    Alcotest.test_case "function calls and recursion" `Quick
      (expect "fib"
         "int fib(int n) { if (n < 2) return n; return fib(n - 1) + fib(n - 2); }\n\
          int main(void) { printf(\"%d\\n\", fib(12)); return 0; }"
         "144\n");
    Alcotest.test_case "reference parameters" `Quick
      (expect "refs"
         "void bump(int& x, int by) { x = x + by; }\n\
          int main(void) { int v = 10; bump(v, 5); bump(v, 1); \
          printf(\"%d\\n\", v); return 0; }"
         "16\n");
    Alcotest.test_case "malloc and memset" `Quick
      (expect "malloc"
         "int main(void) { int* p = (int*)malloc(16); memset(p, 0, 16); \
          p[2] = 42; printf(\"%d %d\\n\", p[0], p[2]); return 0; }"
         "0 42\n");
    Alcotest.test_case "break continue do-while" `Quick
      (expect "cflow"
         "int main(void) { int s = 0; \
          for (int i = 0; i < 10; i++) { if (i == 3) continue; if (i == 7) break; s += i; } \
          int j = 0; do { j++; } while (j < 5); \
          printf(\"%d %d\\n\", s, j); return 0; }"
         "18 5\n");
    Alcotest.test_case "unsigned arithmetic" `Quick
      (expect "unsigned"
         "int main(void) { unsigned int a = 0; a = a - 1; \
          unsigned long b = 1ul << 40; \
          printf(\"%u %d\\n\", a, (int)(b >> 35)); return 0; }"
         "4294967295 32\n");
    Alcotest.test_case "sizeof" `Quick
      (expect "sizeof"
         "typedef struct { double d; int i; } S;\n\
          int main(void) { printf(\"%d %d %d\\n\", (int)sizeof(int), \
          (int)sizeof(double), (int)sizeof(S)); return 0; }"
         "4 8 16\n");
    Alcotest.test_case "ternary and short circuit" `Quick
      (expect "ternary"
         "int div0(void) { return 1 / 0; }\n\
          int main(void) { int x = 5; \
          int ok = x > 0 || div0() > 0; \
          int y = x > 3 ? 100 : div0(); \
          printf(\"%d %d\\n\", ok, y); return 0; }"
         "1 100\n");
    Alcotest.test_case "static_cast in host code" `Quick
      (expect "cast"
         "int main(void) { float f = 3.9f; int i = static_cast<int>(f); \
          printf(\"%d\\n\", i); return 0; }"
         "3\n");
    Alcotest.test_case "deterministic rand" `Quick (fun () ->
        let out1 =
          run_host
            "int main(void) { printf(\"%d %d\\n\", rand() % 100, rand() % 100); return 0; }"
        in
        let out2 =
          run_host
            "int main(void) { printf(\"%d %d\\n\", rand() % 100, rand() % 100); return 0; }"
        in
        Alcotest.(check string) "reproducible" out1 out2);
    Alcotest.test_case "division by zero raises" `Quick (fun () ->
        Alcotest.check_raises "div0"
          (Vm.Interp.Error "integer division by zero") (fun () ->
            ignore (run_host "int main(void) { int z = 0; printf(\"%d\", 1 / z); return 0; }"))) ]

let suites =
  [ ("values", value_tests);
    ("memory", memory_tests);
    ("layout", layout_tests);
    ("interp", interp_tests) ]

(* --- qcheck: interpreter arithmetic vs an OCaml oracle ------------------ *)

(* Random integer expressions over fixed variables are evaluated by the
   Mini-C interpreter and by a direct OCaml evaluator; 32-bit C semantics
   must match. *)
let rec oracle env (e : Minic.Ast.expr) : int32 =
  let open Minic.Ast in
  match e with
  | IntLit (n, _) -> Int64.to_int32 n
  | Ident v -> List.assoc v env
  | Unary (Neg, a) -> Int32.neg (oracle env a)
  | Unary (Bnot, a) -> Int32.lognot (oracle env a)
  | Binary (op, a, b) ->
    let x = oracle env a and y = oracle env b in
    (match op with
     | Add -> Int32.add x y
     | Sub -> Int32.sub x y
     | Mul -> Int32.mul x y
     | Band -> Int32.logand x y
     | Bor -> Int32.logor x y
     | Bxor -> Int32.logxor x y
     | Shl -> Int32.shift_left x (Int32.to_int y land 31)
     | Lt -> if x < y then 1l else 0l
     | Gt -> if x > y then 1l else 0l
     | Eq -> if x = y then 1l else 0l
     | _ -> 0l)
  | Cond (c, a, b) -> if oracle env c <> 0l then oracle env a else oracle env b
  | _ -> 0l

let gen_int_expr : Minic.Ast.expr QCheck.Gen.t =
  let open QCheck.Gen in
  let open Minic.Ast in
  let leaf =
    oneof
      [ map (fun n -> IntLit (Int64.of_int n, Int)) (int_range (-50) 50);
        oneofl [ Ident "a"; Ident "b" ] ]
  in
  fix
    (fun self depth ->
       if depth = 0 then leaf
       else
         frequency
           [ (2, leaf);
             (5,
              map3
                (fun op l r -> Binary (op, l, r))
                (oneofl [ Add; Sub; Mul; Band; Bor; Bxor; Lt; Gt; Eq ])
                (self (depth - 1)) (self (depth - 1)));
             (1, map (fun e -> Unary (Neg, e)) (self (depth - 1)));
             (1,
              map3 (fun c x y -> Cond (c, x, y)) (self (depth - 1))
                (self (depth - 1)) (self (depth - 1))) ])
    5

let interp_matches_oracle e =
  let src =
    Printf.sprintf
      "int main(void) { int a = 17; int b = -4; printf(\"%%d\", %s); return 0; }"
      (Minic.Pretty.expr_str Minic.Pretty.Cuda e)
  in
  let expected = Int32.to_string (oracle [ ("a", 17l); ("b", -4l) ] e) in
  run_host src = expected

let interp_oracle_qcheck =
  List.map QCheck_alcotest.to_alcotest
    [ QCheck.Test.make ~count:300
        ~name:"interpreter matches 32-bit C oracle on int expressions"
        (QCheck.make ~print:(Minic.Pretty.expr_str Minic.Pretty.Cuda)
           gen_int_expr)
        interp_matches_oracle ]

let suites = suites @ [ ("interp-qcheck", interp_oracle_qcheck) ]
