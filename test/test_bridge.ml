(* End-to-end framework tests: the four run configurations, wrapper
   behaviours, symbol plumbing, textures, and failure modes. *)

open Bridge.Framework

let saxpy_cuda = {|
__constant__ float coeffs[4];
__device__ float bias[1];

__global__ void saxpy(float* x, float* y, int n, float a) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  extern __shared__ float tile[];
  tile[threadIdx.x] = x[i];
  __syncthreads();
  if (i < n) y[i] = a * tile[threadIdx.x] + y[i] * coeffs[1] + bias[0];
}

int main(void) {
  int n = 128;
  float* hx = (float*)malloc(n * sizeof(float));
  float* hy = (float*)malloc(n * sizeof(float));
  for (int i = 0; i < n; i++) { hx[i] = (float)i; hy[i] = 1.0f; }
  float hc[4] = {0.0f, 2.0f, 0.0f, 0.0f};
  float hb[1] = {10.0f};
  cudaMemcpyToSymbol(coeffs, hc, 4 * sizeof(float));
  cudaMemcpyToSymbol(bias, hb, sizeof(float));
  float* dx; float* dy;
  cudaMalloc((void**)&dx, n * sizeof(float));
  cudaMalloc((void**)&dy, n * sizeof(float));
  cudaMemcpy(dx, hx, n * sizeof(float), cudaMemcpyHostToDevice);
  cudaMemcpy(dy, hy, n * sizeof(float), cudaMemcpyHostToDevice);
  saxpy<<<n / 64, 64, 64 * sizeof(float)>>>(dx, dy, n, 3.0f);
  cudaMemcpy(hy, dy, n * sizeof(float), cudaMemcpyDeviceToHost);
  float sum = 0.0f;
  for (int i = 0; i < n; i++) sum += hy[i];
  printf("checksum %.2f\n", sum);
  return 0;
}
|}

(* a program whose one misused cuda* call is [call] *)
let misuse_src call = Printf.sprintf {|
__global__ void k(int* p) { p[0] = 1; }

int main(void) {
  int h[2] = {1, 3};
  int* d;
  cudaEvent_t e;
  cudaMalloc((void**)&d, 2 * sizeof(int));
  %s;
  printf("%%d %%d\n", h[0], h[1]);
  return 0;
}
|} call

(* cudaMemcpyToArray of 4 floats, from an 8-float host buffer, into an
   8x1 array: the rest of the array stays zero *)
let partial_array_src = {|
texture<float, 2, cudaReadModeElementType> tex_arr;

__global__ void readback(float* out, int w) {
  int x = threadIdx.x;
  if (x < w) out[x] = tex2D(tex_arr, (float)x, 0.0f);
}

int main(void) {
  int w = 8;
  float* h_img = (float*)malloc(w * sizeof(float));
  for (int i = 0; i < w; i++) h_img[i] = (float)(i + 1);
  cudaArray* arr;
  cudaChannelFormatDesc desc = cudaCreateChannelDesc<float>();
  cudaMallocArray(&arr, &desc, w, 1);
  cudaMemcpyToArray(arr, 0, 0, h_img, 4 * sizeof(float), cudaMemcpyHostToDevice);
  cudaBindTextureToArray(tex_arr, arr);
  float* d_out;
  cudaMalloc((void**)&d_out, w * sizeof(float));
  readback<<<1, w>>>(d_out, w);
  float* h_out = (float*)malloc(w * sizeof(float));
  cudaMemcpy(h_out, d_out, w * sizeof(float), cudaMemcpyDeviceToHost);
  for (int i = 0; i < w; i++) printf("%g ", h_out[i]);
  printf("\n");
  return 0;
}
|}

let translate_ok src =
  match translate_cuda src with
  | Translated r -> r
  | Failed fs ->
    Alcotest.failf "unexpected translation failure: %s"
      (String.concat "; "
         (List.map (fun f -> f.Xlat.Feature.f_construct) fs))

let bridge_tests =
  [ Alcotest.test_case "saxpy agrees across all three devices" `Quick
      (fun () ->
         let native = run_cuda_native saxpy_cuda in
         (* 0.5*127*128*3 + 128*(2 + 10) = 24384 + 1536 *)
         Alcotest.(check string) "native value" "checksum 25920.00\n"
           native.r_output;
         let res = translate_ok saxpy_cuda in
         let titan = run_translated_cuda res in
         let amd = run_translated_cuda ~dev:(device_of Amd_opencl) res in
         Alcotest.(check string) "titan agrees" native.r_output titan.r_output;
         Alcotest.(check string) "amd agrees" native.r_output amd.r_output);
    Alcotest.test_case "translated host keeps cuda* wrappers" `Quick (fun () ->
        let res = translate_ok saxpy_cuda in
        let host = Xlat.Cuda_to_ocl.host_source res in
        let contains hay needle =
          let n = String.length needle and m = String.length hay in
          let rec go i = i + n <= m && (String.sub hay i n = needle || go (i + 1)) in
          go 0
        in
        Alcotest.(check bool) "cudaMalloc stays a wrapper call" true
          (contains host "cudaMalloc((void**)&dx");
        Alcotest.(check bool) "cudaMemcpy stays a wrapper call" true
          (contains host "cudaMemcpy(dx, hx"));
    Alcotest.test_case "texture app end-to-end (§5)" `Quick (fun () ->
        let tex_app =
          List.find
            (fun (c : Suite.Registry.cuda_app) -> c.cu_name = "simpleTexture")
            Suite.Registry.toolkit_cuda_ok
        in
        let native = run_cuda_native tex_app.cu_src in
        let res = translate_ok tex_app.cu_src in
        let xlat = run_translated_cuda res in
        Alcotest.(check bool) "outputs agree" true
          (outputs_agree native.r_output xlat.r_output);
        Alcotest.(check int) "one texture captured" 1
          (List.length res.Xlat.Cuda_to_ocl.textures));
    Alcotest.test_case "cudaMemcpyToArray copies only its byte count" `Quick
      (fun () ->
         let expected = "1 2 3 4 0 0 0 0 \n" in
         Alcotest.(check string) "native" expected
           (run_cuda_native partial_array_src).r_output;
         Alcotest.(check string) "translated" expected
           (run_translated_cuda (translate_ok partial_array_src)).r_output);
    Alcotest.test_case "deviceQuery wrapper amplification (Figure 8)" `Quick
      (fun () ->
         let dq =
           List.find
             (fun (c : Suite.Registry.cuda_app) -> c.cu_name = "deviceQuery")
             Suite.Registry.toolkit_cuda_ok
         in
         let native = run_cuda_native dq.cu_src in
         let xlat = run_translated_cuda (translate_ok dq.cu_src) in
         Alcotest.(check bool) "translated markedly slower" true
           (xlat.r_time_ns > 3.0 *. native.r_time_ns));
    Alcotest.test_case "cudaMemGetInfo wrapper refuses (§3.7)" `Quick (fun () ->
        (* if the feature check were skipped, the wrapper itself raises *)
        let src =
          "int main(void) { size_t f; size_t t; cudaMemGetInfo(&f, &t); return 0; }"
        in
        let prog = Minic.Parser.program ~dialect:Minic.Parser.Cuda src in
        let res = Xlat.Cuda_to_ocl.translate prog in
        Alcotest.(check bool) "raises at run time" true
          (try
             ignore (run_translated_cuda res);
             false
           with Bridge.Cuda_on_cl.Wrapper_error _ -> true));
    Alcotest.test_case "a misused cuda* call fails alike in both directions"
      `Quick (fun () ->
          let host_error f =
            match f () with
            | _ -> None
            | exception Bridge.Hostrun.Host_error m -> Some m
          in
          List.iter
            (fun (call, expected) ->
               let src = misuse_src call in
               Alcotest.(check (option string)) (call ^ " natively") (Some expected)
                 (host_error (fun () -> run_cuda_native src));
               Alcotest.(check (option string)) (call ^ " translated") (Some expected)
                 (host_error (fun () -> run_translated_cuda (translate_ok src))))
            [ ("cudaMemcpy(d, h, 2 * sizeof(int), cudaMemcpyHostToDevice, 0)",
               "cudaMemcpy arity");
              ("cudaEventRecord(e, 0)", "cudaEventRecord: not a created event") ]);
    Alcotest.test_case "OpenCL app runs identically via wrappers (Fig. 2)"
      `Quick (fun () ->
          let app =
            List.find (fun a -> a.oa_name = "oclMatrixMul")
              Suite.Registry.toolkit_opencl
          in
          let native = run_app_native app () in
          let wrapped = run_app_on_cuda app () in
          Alcotest.(check string) "same output" native.r_output
            wrapped.r_output);
    Alcotest.test_case "OpenCL build-time is excluded from Figure 7 times"
      `Quick (fun () ->
          let app =
            List.find (fun a -> a.oa_name = "oclVectorAdd")
              Suite.Registry.toolkit_opencl
          in
          let dev = device_of Titan_opencl in
          let r = run_app_native app ~dev () in
          (* total device time includes the build; the reported time must
             be smaller by at least the per-byte build charge *)
          Alcotest.(check bool) "excluded" true
            (dev.Gpusim.Device.sim_time_ns -. r.r_time_ns > 100_000.0));
    Alcotest.test_case "outputs_agree tolerates fp noise only" `Quick (fun () ->
        Alcotest.(check bool) "close floats agree" true
          (outputs_agree "sum 1.00001" "sum 1.00002");
        Alcotest.(check bool) "different text disagrees" false
          (outputs_agree "sum 1.0 extra" "sum 1.0");
        Alcotest.(check bool) "different value disagrees" false
          (outputs_agree "sum 1.0" "sum 2.0")) ]

let suites = [ ("bridge", bridge_tests) ]
