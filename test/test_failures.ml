(* Failure injection: the simulator must fail loudly (with a useful
   exception) on memory faults, runaway recursion, malformed programs and
   misused APIs, rather than corrupting state. *)

open Minic.Ast

let run_kernel ~src ~kernel ~args =
  let prog = Minic.Parser.program ~dialect:Minic.Parser.OpenCL src in
  let dev =
    Gpusim.Device.create Gpusim.Device.titan Gpusim.Device.opencl_on_nvidia
  in
  let host = Vm.Memory.create "host" in
  let k = Option.get (find_function prog kernel) in
  ignore
    (Gpusim.Exec.launch ~dev ~modul:(Gpusim.Exec.load prog)
       ~globals:(Hashtbl.create 4) ~host_arena:host ~kernel:k
       ~cfg:{ global_size = [| 32; 1; 1 |]; local_size = [| 32; 1; 1 |];
              dyn_shared = 0 }
       ~args:(args dev) ())

let gptr dev bytes =
  Gpusim.Exec.Arg_val
    (Vm.Interp.tv
       (VInt (Vm.Value.make_ptr AS_global
                (Vm.Memory.alloc dev.Gpusim.Device.global ~align:256 bytes)))
       (TPtr (TScalar Int)))

let raises_any name f =
  Alcotest.test_case name `Quick (fun () ->
      Alcotest.(check bool) name true
        (try
           f ();
           false
         with
         | Vm.Memory.Fault _ | Vm.Interp.Error _ | Gpusim.Exec.Launch_error _
         | Opencl.Cl.Cl_error _ | Cuda.Cudart.Cuda_error _
         | Bridge.Cuda_on_cl.Wrapper_error _ | Bridge.Hostrun.Host_error _ ->
           true))

let failure_tests =
  [ raises_any "wildly out-of-bounds kernel store faults" (fun () ->
        run_kernel
          ~src:{|
__kernel void smash(__global int* p) { p[100000000] = 1; }
|}
          ~kernel:"smash"
          ~args:(fun dev -> [ gptr dev 64 ]));
    raises_any "negative index faults" (fun () ->
        run_kernel
          ~src:{|
__kernel void neg(__global int* p) { p[-900000] = 1; }
|}
          ~kernel:"neg"
          ~args:(fun dev -> [ gptr dev 64 ]));
    raises_any "null pointer dereference faults" (fun () ->
        run_kernel
          ~src:{|
__kernel void nullw(__global int* p) {
  __global int* q = 0;
  q[0] = p[0];
}
|}
          ~kernel:"nullw"
          ~args:(fun dev -> [ gptr dev 64 ]));
    raises_any "runaway recursion is cut off" (fun () ->
        let session = Bridge.Hostrun.make_session () in
        let prog =
          Minic.Parser.program ~dialect:Minic.Parser.Cuda
            "int f(int n) { return f(n + 1); }\n\
             int main(void) { return f(0); }"
        in
        ignore
          (Bridge.Hostrun.run_main ~config:(Gpusim.Config.default ())
             ~session ~prog
             ~arena_of:(fun _ -> session.Bridge.Hostrun.arena)
             ~externals:[] ~special_ident:Bridge.Hostrun.host_constants ()));
    raises_any "calling an undefined function is an error" (fun () ->
        let session = Bridge.Hostrun.make_session () in
        let prog =
          Minic.Parser.program ~dialect:Minic.Parser.Cuda
            "int main(void) { mystery(1); return 0; }"
        in
        ignore
          (Bridge.Hostrun.run_main ~config:(Gpusim.Config.default ())
             ~session ~prog
             ~arena_of:(fun _ -> session.Bridge.Hostrun.arena)
             ~externals:[] ~special_ident:Bridge.Hostrun.host_constants ()));
    raises_any "cudaMalloc of a negative size is rejected" (fun () ->
        let cu =
          Cuda.Cudart.create
            (Gpusim.Device.create Gpusim.Device.titan
               Gpusim.Device.cuda_on_nvidia)
        in
        ignore (Cuda.Cudart.malloc cu (-8)));
    raises_any "kernel name lookup failure is a CL error" (fun () ->
        let cl =
          Opencl.Cl.create
            (Gpusim.Device.create Gpusim.Device.titan
               Gpusim.Device.opencl_on_nvidia)
        in
        let p =
          Opencl.Cl.create_program_with_source cl
            "__kernel void real(__global int* p) { p[0] = 1; }"
        in
        Opencl.Cl.build_program cl p;
        ignore (Opencl.Cl.create_kernel cl p "imaginary"));
    raises_any "launching a host function as a kernel fails" (fun () ->
        let cu =
          Cuda.Cudart.create
            (Gpusim.Device.create Gpusim.Device.titan
               Gpusim.Device.cuda_on_nvidia)
        in
        let m =
          Cuda.Cudart.load_module cu
            (Minic.Parser.program ~dialect:Minic.Parser.Cuda
               "void helper(void) {}")
        in
        ignore (Cuda.Cudart.module_get_function m "helper"));
    Alcotest.test_case "device state survives a failed launch" `Quick
      (fun () ->
         let dev =
           Gpusim.Device.create Gpusim.Device.titan
             Gpusim.Device.opencl_on_nvidia
         in
         let cl = Opencl.Cl.create dev in
         let p =
           Opencl.Cl.create_program_with_source cl
             {|
__kernel void maybe_smash(__global int* p, int evil) {
  if (evil == 1) p[100000000] = 1;
  else p[get_global_id(0)] = 7;
}
|}
         in
         Opencl.Cl.build_program cl p;
         let k = Opencl.Cl.create_kernel cl p "maybe_smash" in
         let b = Opencl.Cl.create_buffer cl (32 * 4) in
         Opencl.Cl.set_arg_buffer cl k 0 b;
         Opencl.Cl.set_arg_int cl k 1 1;
         (try
            ignore
              (Opencl.Cl.enqueue_nd_range cl k ~gws:[| 32; 1; 1 |]
                 ~lws:[| 32; 1; 1 |] ())
          with Vm.Memory.Fault _ -> ());
         (* the same kernel object still works with good arguments *)
         Opencl.Cl.set_arg_int cl k 1 0;
         ignore
           (Opencl.Cl.enqueue_nd_range cl k ~gws:[| 32; 1; 1 |]
              ~lws:[| 32; 1; 1 |] ());
         let v =
           Vm.Memory.load_int dev.Gpusim.Device.global
             (b.Opencl.Cl.b_addr + 4) 4
         in
         Alcotest.(check int64) "recovered" 7L v) ]

let suites = [ ("failure-injection", failure_tests) ]
