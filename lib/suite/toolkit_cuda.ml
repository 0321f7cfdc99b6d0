(* NVIDIA CUDA Toolkit 4.2 samples that the framework translates to
   OpenCL (Figure 8(b), the 25 successes).  Together they exercise every
   §3.6 technique: template specialisation (template/simpleTemplates'
   translatable core), reference parameters (cppIntegration), C++ casts,
   one-component vectors, built-in float4 vectors (BlackScholes), 2D
   textures (simpleTexture), runtime-initialised __constant__ memory
   (convolutionSeparable), static __device__ globals, dynamic shared
   memory, and the cudaGetDeviceProperties wrapper amplification
   (deviceQuery / deviceQueryDrv). *)

open Rodinia_cuda

let app ?(tex1d = None) cu_name cu_src =
  { cu_name; cu_suite = "toolkit"; cu_src; cu_tex1d_texels = tex1d;
    cu_expect_translatable = true }

let vectoradd = app "vectorAdd" {|
__global__ void vectorAdd(float* a, float* b, float* c, int n) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i < n) c[i] = a[i] + b[i];
}

int main(void) {
  int n = 4096;
  float* h_a = (float*)malloc(n * sizeof(float));
  float* h_b = (float*)malloc(n * sizeof(float));
  float* h_c = (float*)malloc(n * sizeof(float));
  for (int i = 0; i < n; i++) {
    h_a[i] = 0.001f * (float)(i % 769);
    h_b[i] = 0.002f * (float)(i % 571);
  }
  float* d_a; float* d_b; float* d_c;
  cudaMalloc((void**)&d_a, n * sizeof(float));
  cudaMalloc((void**)&d_b, n * sizeof(float));
  cudaMalloc((void**)&d_c, n * sizeof(float));
  cudaMemcpy(d_a, h_a, n * sizeof(float), cudaMemcpyHostToDevice);
  cudaMemcpy(d_b, h_b, n * sizeof(float), cudaMemcpyHostToDevice);
  vectorAdd<<<n / 64, 64>>>(d_a, d_b, d_c, n);
  cudaMemcpy(h_c, d_c, n * sizeof(float), cudaMemcpyDeviceToHost);
  float sum = 0.0f;
  for (int i = 0; i < n; i++) sum += h_c[i];
  printf("vectorAdd sum %.4g\n", sum);
  return 0;
}
|}

let matrixmul = app "matrixMul" {|
__global__ void matrixMul(float* a, float* b, float* c, int n) {
  int col = blockIdx.x * blockDim.x + threadIdx.x;
  int row = blockIdx.y * blockDim.y + threadIdx.y;
  __shared__ float ta[16][16];
  __shared__ float tb[16][16];
  int lx = threadIdx.x;
  int ly = threadIdx.y;
  float acc = 0.0f;
  for (int tile = 0; tile < n / 16; tile++) {
    ta[ly][lx] = a[row * n + tile * 16 + lx];
    tb[ly][lx] = b[(tile * 16 + ly) * n + col];
    __syncthreads();
    for (int k = 0; k < 16; k++) acc += ta[ly][k] * tb[k][lx];
    __syncthreads();
  }
  c[row * n + col] = acc;
}

int main(void) {
  int n = 64;
  float* h_a = (float*)malloc(n * n * sizeof(float));
  float* h_b = (float*)malloc(n * n * sizeof(float));
  float* h_c = (float*)malloc(n * n * sizeof(float));
  for (int i = 0; i < n * n; i++) {
    h_a[i] = 0.01f * (float)(i % 89);
    h_b[i] = 0.01f * (float)(i % 97);
  }
  float* d_a; float* d_b; float* d_c;
  cudaMalloc((void**)&d_a, n * n * sizeof(float));
  cudaMalloc((void**)&d_b, n * n * sizeof(float));
  cudaMalloc((void**)&d_c, n * n * sizeof(float));
  cudaMemcpy(d_a, h_a, n * n * sizeof(float), cudaMemcpyHostToDevice);
  cudaMemcpy(d_b, h_b, n * n * sizeof(float), cudaMemcpyHostToDevice);
  dim3 grid(n / 16, n / 16);
  dim3 block(16, 16);
  matrixMul<<<grid, block>>>(d_a, d_b, d_c, n);
  cudaMemcpy(h_c, d_c, n * n * sizeof(float), cudaMemcpyDeviceToHost);
  float sum = 0.0f;
  for (int i = 0; i < n * n; i++) sum += h_c[i];
  printf("matrixMul sum %.4g\n", sum);
  return 0;
}
|}

(* template: a templated kernel, specialised by the translator (§3.6) *)
let template = app "template" {|
template <typename T>
__global__ void scale_shift(T* data, T s, T b, int n) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i < n) data[i] = data[i] * s + b;
}

int main(void) {
  int n = 2048;
  float* h_f = (float*)malloc(n * sizeof(float));
  int* h_i = (int*)malloc(n * sizeof(int));
  for (int k = 0; k < n; k++) {
    h_f[k] = 0.25f * (float)(k % 41);
    h_i[k] = k % 37;
  }
  float* d_f;
  int* d_i;
  cudaMalloc((void**)&d_f, n * sizeof(float));
  cudaMalloc((void**)&d_i, n * sizeof(int));
  cudaMemcpy(d_f, h_f, n * sizeof(float), cudaMemcpyHostToDevice);
  cudaMemcpy(d_i, h_i, n * sizeof(int), cudaMemcpyHostToDevice);
  scale_shift<float><<<n / 64, 64>>>(d_f, 2.0f, 1.0f, n);
  scale_shift<int><<<n / 64, 64>>>(d_i, 3, 7, n);
  cudaMemcpy(h_f, d_f, n * sizeof(float), cudaMemcpyDeviceToHost);
  cudaMemcpy(h_i, d_i, n * sizeof(int), cudaMemcpyDeviceToHost);
  float fs = 0.0f;
  int is = 0;
  for (int k = 0; k < n; k++) {
    fs += h_f[k];
    is += h_i[k];
  }
  printf("template fsum %.4g isum %d\n", fs, is);
  return 0;
}
|}

(* cppIntegration: reference parameters and static_cast in device code *)
let cppintegration = app "cppIntegration" {|
__device__ void accumulate(float& acc, float v) {
  acc = acc + v;
}

__global__ void integrate(float* data, float* out, int n, int stride) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i < n) {
    float acc = 0.0f;
    for (int k = 0; k < stride; k++) {
      accumulate(acc, data[i * stride + k]);
    }
    out[i] = acc / static_cast<float>(stride);
  }
}

int main(void) {
  int n = 1024;
  int stride = 8;
  float* h = (float*)malloc(n * stride * sizeof(float));
  for (int i = 0; i < n * stride; i++) h[i] = 0.001f * (float)(i % 641);
  float* d; float* d_o;
  cudaMalloc((void**)&d, n * stride * sizeof(float));
  cudaMalloc((void**)&d_o, n * sizeof(float));
  cudaMemcpy(d, h, n * stride * sizeof(float), cudaMemcpyHostToDevice);
  integrate<<<n / 64, 64>>>(d, d_o, n, stride);
  float* h_o = (float*)malloc(n * sizeof(float));
  cudaMemcpy(h_o, d_o, n * sizeof(float), cudaMemcpyDeviceToHost);
  float sum = 0.0f;
  for (int i = 0; i < n; i++) sum += h_o[i];
  printf("cppIntegration sum %.4g\n", sum);
  return 0;
}
|}

(* BlackScholes with float4 vector loads and one-component float1 (§3.6) *)
let blackscholes = app "BlackScholes" {|
__global__ void bs_quads(float4* price, float4* callv, float strike, int nquads) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i < nquads) {
    float4 s = price[i];
    float4 c;
    c.x = s.x > strike ? s.x - strike : 0.0f;
    c.y = s.y > strike ? s.y - strike : 0.0f;
    c.z = s.z > strike ? s.z - strike : 0.0f;
    c.w = s.w > strike ? s.w - strike : 0.0f;
    callv[i] = c;
  }
}

__global__ void bs_tail(float1* price, float1* callv, float strike, int n) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i < n) {
    float1 s = price[i];
    float1 c = make_float1(s.x > strike ? s.x - strike : 0.0f);
    callv[i] = c;
  }
}

int main(void) {
  int n = 4096;
  float* h_p = (float*)malloc(n * sizeof(float));
  for (int i = 0; i < n; i++) h_p[i] = 20.0f + 0.01f * (float)(i % 4001);
  float* d_p; float* d_c;
  cudaMalloc((void**)&d_p, n * sizeof(float));
  cudaMalloc((void**)&d_c, n * sizeof(float));
  cudaMemcpy(d_p, h_p, n * sizeof(float), cudaMemcpyHostToDevice);
  bs_quads<<<n / 4 / 64, 64>>>((float4*)d_p, (float4*)d_c, 35.0f, n / 4);
  bs_tail<<<n / 64, 64>>>((float1*)d_p, (float1*)d_c, 35.0f, 0);
  float* h_c = (float*)malloc(n * sizeof(float));
  cudaMemcpy(h_c, d_c, n * sizeof(float), cudaMemcpyDeviceToHost);
  float sum = 0.0f;
  for (int i = 0; i < n; i++) sum += h_c[i];
  printf("BlackScholes sum %.4g\n", sum);
  return 0;
}
|}

(* simpleTexture: a 2D texture rotated through tex2D (§5) *)
let simpletexture = app "simpleTexture" {|
texture<float, 2, cudaReadModeElementType> tex_img;

__global__ void transformKernel(float* out, int w, int h) {
  int x = blockIdx.x * blockDim.x + threadIdx.x;
  int y = blockIdx.y * blockDim.y + threadIdx.y;
  if (x < w && y < h) {
    out[y * w + x] = tex2D(tex_img, (float)(h - 1 - y), (float)x);
  }
}

int main(void) {
  int w = 64;
  int h = 64;
  float* h_img = (float*)malloc(w * h * sizeof(float));
  for (int i = 0; i < w * h; i++) h_img[i] = 0.001f * (float)(i % 613);
  cudaArray* arr;
  cudaChannelFormatDesc desc = cudaCreateChannelDesc<float>();
  cudaMallocArray(&arr, &desc, w, h);
  cudaMemcpyToArray(arr, 0, 0, h_img, w * h * sizeof(float), cudaMemcpyHostToDevice);
  cudaBindTextureToArray(tex_img, arr);
  float* d_out;
  cudaMalloc((void**)&d_out, w * h * sizeof(float));
  dim3 grid(w / 16, h / 16);
  dim3 block(16, 16);
  transformKernel<<<grid, block>>>(d_out, w, h);
  float* h_out = (float*)malloc(w * h * sizeof(float));
  cudaMemcpy(h_out, d_out, w * h * sizeof(float), cudaMemcpyDeviceToHost);
  float sum = 0.0f;
  for (int i = 0; i < w * h; i++) sum += h_out[i];
  printf("simpleTexture sum %.4g\n", sum);
  return 0;
}
|}

(* simplePitchLinearTexture: 1D linear texture within the size limit *)
let simplepitchlinear = app ~tex1d:(Some 4096) "simplePitchLinearTexture" {|
texture<float, 1, cudaReadModeElementType> tex_lin;

__global__ void shiftRead(float* out, int n, int shift) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i < n) out[i] = tex1Dfetch(tex_lin, (i + shift) % n);
}

int main(void) {
  int n = 4096;
  float* h = (float*)malloc(n * sizeof(float));
  for (int i = 0; i < n; i++) h[i] = 0.001f * (float)(i % 499);
  float* d_in; float* d_out;
  cudaMalloc((void**)&d_in, n * sizeof(float));
  cudaMalloc((void**)&d_out, n * sizeof(float));
  cudaMemcpy(d_in, h, n * sizeof(float), cudaMemcpyHostToDevice);
  cudaBindTexture(0, tex_lin, d_in, n * sizeof(float));
  shiftRead<<<n / 64, 64>>>(d_out, n, 17);
  cudaMemcpy(h, d_out, n * sizeof(float), cudaMemcpyDeviceToHost);
  float sum = 0.0f;
  for (int i = 0; i < n; i++) sum += h[i];
  printf("simplePitchLinearTexture sum %.4g\n", sum);
  return 0;
}
|}

(* convolutionSeparable: runtime-initialised __constant__ taps (§4.2) *)
let convolutionseparable = app "convolutionSeparable" {|
__constant__ float c_taps[9];

__global__ void conv_rows(float* in, float* out, int w, int h, int radius) {
  int x = blockIdx.x * blockDim.x + threadIdx.x;
  int y = blockIdx.y * blockDim.y + threadIdx.y;
  if (x < w && y < h) {
    float acc = 0.0f;
    for (int k = -radius; k <= radius; k++) {
      int xx = x + k;
      if (xx < 0) xx = 0;
      if (xx >= w) xx = w - 1;
      acc += in[y * w + xx] * c_taps[k + radius];
    }
    out[y * w + x] = acc;
  }
}

int main(void) {
  int w = 96;
  int h = 96;
  int radius = 4;
  float taps[9];
  for (int i = 0; i < 9; i++) taps[i] = 1.0f / (float)(1 + (i > 4 ? i - 4 : 4 - i));
  cudaMemcpyToSymbol(c_taps, taps, 9 * sizeof(float));
  float* h_img = (float*)malloc(w * h * sizeof(float));
  for (int i = 0; i < w * h; i++) h_img[i] = 0.001f * (float)(i % 577);
  float* d_in; float* d_out;
  cudaMalloc((void**)&d_in, w * h * sizeof(float));
  cudaMalloc((void**)&d_out, w * h * sizeof(float));
  cudaMemcpy(d_in, h_img, w * h * sizeof(float), cudaMemcpyHostToDevice);
  dim3 grid(w / 16, h / 16);
  dim3 block(16, 16);
  conv_rows<<<grid, block>>>(d_in, d_out, w, h, radius);
  float* h_out = (float*)malloc(w * h * sizeof(float));
  cudaMemcpy(h_out, d_out, w * h * sizeof(float), cudaMemcpyDeviceToHost);
  float sum = 0.0f;
  for (int i = 0; i < w * h; i++) sum += h_out[i];
  printf("convolutionSeparable sum %.4g\n", sum);
  return 0;
}
|}

(* deviceQuery: one cudaGetDeviceProperties call; the OpenCL wrapper
   expands it into many clGetDeviceInfo round trips (Figure 8's outlier) *)
let devicequery = app "deviceQuery" {|
int main(void) {
  int count = 0;
  cudaGetDeviceCount(&count);
  cudaDeviceProp prop;
  for (int d = 0; d < count; d++) {
    for (int repeat = 0; repeat < 16; repeat++) {
      cudaGetDeviceProperties(&prop, d);
    }
    printf("device %d cc %d.%d sms %d warp %d\n", d, prop.major, prop.minor,
           prop.multiProcessorCount, prop.warpSize);
  }
  return 0;
}
|}

let devicequerydrv = app "deviceQueryDrv" {|
int main(void) {
  cudaDeviceProp prop;
  for (int repeat = 0; repeat < 16; repeat++) {
    cudaGetDeviceProperties(&prop, 0);
  }
  printf("deviceQueryDrv mem %d regs %d\n",
         (int)(prop.totalGlobalMem / 1048576), prop.regsPerBlock);
  return 0;
}
|}

let asyncapi = app "asyncAPI" {|
__global__ void increment_kernel(int* g_data, int inc_value, int n) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i < n) g_data[i] = g_data[i] + inc_value;
}

int main(void) {
  int n = 4096;
  int* h = (int*)malloc(n * sizeof(int));
  for (int i = 0; i < n; i++) h[i] = i % 101;
  int* d;
  cudaMalloc((void**)&d, n * sizeof(int));
  cudaEvent_t start;
  cudaEvent_t stop;
  cudaEventCreate(&start);
  cudaEventCreate(&stop);
  cudaEventRecord(start, 0);
  cudaMemcpy(d, h, n * sizeof(int), cudaMemcpyHostToDevice);
  increment_kernel<<<n / 64, 64>>>(d, 26, n);
  cudaMemcpy(h, d, n * sizeof(int), cudaMemcpyDeviceToHost);
  cudaEventRecord(stop, 0);
  cudaEventSynchronize(stop);
  float ms = 0.0f;
  cudaEventElapsedTime(&ms, start, stop);
  int sum = 0;
  for (int i = 0; i < n; i++) sum += h[i];
  printf("asyncAPI sum %d timed %d\n", sum, (int)(ms >= 0.0f));
  return 0;
}
|}

let bandwidthtest = app "bandwidthTest" {|
int main(void) {
  int n = 65536;
  float* h = (float*)malloc(n * sizeof(float));
  for (int i = 0; i < n; i++) h[i] = (float)(i % 251);
  float* d;
  cudaMalloc((void**)&d, n * sizeof(float));
  float acc = 0.0f;
  for (int rep = 0; rep < 4; rep++) {
    cudaMemcpy(d, h, n * sizeof(float), cudaMemcpyHostToDevice);
    cudaMemcpy(h, d, n * sizeof(float), cudaMemcpyDeviceToHost);
    acc += h[rep];
  }
  printf("bandwidthTest ok %.1f\n", acc);
  return 0;
}
|}

let histogram = app "histogram" {|
__global__ void histogram64(int* data, int* bins, int n) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i < n) atomicAdd(&bins[data[i] & 63], 1);
}

int main(void) {
  int n = 8192;
  int* h = (int*)malloc(n * sizeof(int));
  unsigned long seed = 99ul;
  for (int i = 0; i < n; i++) {
    seed = seed * 6364136223846793005ul + 1442695040888963407ul;
    h[i] = (int)((seed >> 33) % 1024ul);
  }
  int* d; int* d_bins;
  cudaMalloc((void**)&d, n * sizeof(int));
  cudaMalloc((void**)&d_bins, 64 * sizeof(int));
  cudaMemcpy(d, h, n * sizeof(int), cudaMemcpyHostToDevice);
  cudaMemset(d_bins, 0, 64 * sizeof(int));
  histogram64<<<n / 64, 64>>>(d, d_bins, n);
  int* h_bins = (int*)malloc(64 * sizeof(int));
  cudaMemcpy(h_bins, d_bins, 64 * sizeof(int), cudaMemcpyDeviceToHost);
  int sum = 0;
  int xorv = 0;
  for (int i = 0; i < 64; i++) {
    sum += h_bins[i];
    xorv = xorv ^ h_bins[i];
  }
  printf("histogram sum %d xor %d\n", sum, xorv);
  return 0;
}
|}

let scan_sample = app "scan" {|
__global__ void scan_naive(int* in, int* out, int n) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  extern __shared__ int temp[];
  int t = threadIdx.x;
  temp[t] = i < n ? in[i] : 0;
  __syncthreads();
  for (int off = 1; off < blockDim.x; off *= 2) {
    int v = 0;
    if (t >= off) v = temp[t - off];
    __syncthreads();
    temp[t] += v;
    __syncthreads();
  }
  if (i < n) out[i] = temp[t];
}

int main(void) {
  int n = 2048;
  int* h = (int*)malloc(n * sizeof(int));
  for (int i = 0; i < n; i++) h[i] = i % 17;
  int* d_in; int* d_out;
  cudaMalloc((void**)&d_in, n * sizeof(int));
  cudaMalloc((void**)&d_out, n * sizeof(int));
  cudaMemcpy(d_in, h, n * sizeof(int), cudaMemcpyHostToDevice);
  scan_naive<<<n / 64, 64, 64 * sizeof(int)>>>(d_in, d_out, n);
  cudaMemcpy(h, d_out, n * sizeof(int), cudaMemcpyDeviceToHost);
  int sum = 0;
  for (int i = 0; i < n; i++) sum += h[i];
  printf("scan sum %d\n", sum);
  return 0;
}
|}

let scalarprod = app "scalarProd" {|
__global__ void scalarProd(float* a, float* b, float* results, int vlen) {
  int vec = blockIdx.x;
  int t = threadIdx.x;
  __shared__ float acc[64];
  float s = 0.0f;
  for (int i = t; i < vlen; i += blockDim.x) {
    s += a[vec * vlen + i] * b[vec * vlen + i];
  }
  acc[t] = s;
  __syncthreads();
  for (int stride = blockDim.x / 2; stride > 0; stride /= 2) {
    if (t < stride) acc[t] += acc[t + stride];
    __syncthreads();
  }
  if (t == 0) results[vec] = acc[0];
}

int main(void) {
  int nvec = 64;
  int vlen = 256;
  float* h_a = (float*)malloc(nvec * vlen * sizeof(float));
  float* h_b = (float*)malloc(nvec * vlen * sizeof(float));
  for (int i = 0; i < nvec * vlen; i++) {
    h_a[i] = 0.001f * (float)(i % 433);
    h_b[i] = 0.001f * (float)(i % 389);
  }
  float* d_a; float* d_b; float* d_r;
  cudaMalloc((void**)&d_a, nvec * vlen * sizeof(float));
  cudaMalloc((void**)&d_b, nvec * vlen * sizeof(float));
  cudaMalloc((void**)&d_r, nvec * sizeof(float));
  cudaMemcpy(d_a, h_a, nvec * vlen * sizeof(float), cudaMemcpyHostToDevice);
  cudaMemcpy(d_b, h_b, nvec * vlen * sizeof(float), cudaMemcpyHostToDevice);
  scalarProd<<<nvec, 64>>>(d_a, d_b, d_r, vlen);
  float* h_r = (float*)malloc(nvec * sizeof(float));
  cudaMemcpy(h_r, d_r, nvec * sizeof(float), cudaMemcpyDeviceToHost);
  float sum = 0.0f;
  for (int i = 0; i < nvec; i++) sum += h_r[i];
  printf("scalarProd sum %.4g\n", sum);
  return 0;
}
|}

let binomialoptions = app "binomialOptions" {|
__global__ void binomial(float* prices, float* out, int nopts, int steps) {
  int o = blockIdx.x * blockDim.x + threadIdx.x;
  if (o < nopts) {
    float s = prices[o];
    float v = s;
    for (int k = 0; k < steps; k++) {
      float up = v * 1.01f;
      float down = v * 0.99f;
      v = 0.5f * (up + down) * 0.9995f;
    }
    out[o] = v;
  }
}

int main(void) {
  int nopts = 2048;
  float* h = (float*)malloc(nopts * sizeof(float));
  for (int i = 0; i < nopts; i++) h[i] = 10.0f + 0.01f * (float)(i % 901);
  float* d; float* d_o;
  cudaMalloc((void**)&d, nopts * sizeof(float));
  cudaMalloc((void**)&d_o, nopts * sizeof(float));
  cudaMemcpy(d, h, nopts * sizeof(float), cudaMemcpyHostToDevice);
  binomial<<<nopts / 64, 64>>>(d, d_o, nopts, 32);
  cudaMemcpy(h, d_o, nopts * sizeof(float), cudaMemcpyDeviceToHost);
  float sum = 0.0f;
  for (int i = 0; i < nopts; i++) sum += h[i];
  printf("binomialOptions sum %.4g\n", sum);
  return 0;
}
|}

let quasirandom = app "quasirandomGenerator" {|
__global__ void sobol_like(float* out, int dims, int n) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i < n) {
    int g = i ^ (i >> 1);
    float acc = 0.0f;
    for (int d = 0; d < dims; d++) {
      acc += (float)((g >> d) & 1) / (float)(1 << (d + 1));
    }
    out[i] = acc;
  }
}

int main(void) {
  int n = 8192;
  float* d;
  cudaMalloc((void**)&d, n * sizeof(float));
  sobol_like<<<n / 64, 64>>>(d, 8, n);
  float* h = (float*)malloc(n * sizeof(float));
  cudaMemcpy(h, d, n * sizeof(float), cudaMemcpyDeviceToHost);
  float sum = 0.0f;
  for (int i = 0; i < n; i++) sum += h[i];
  printf("quasirandomGenerator sum %.4g\n", sum);
  return 0;
}
|}

let mersennetwister = app "MersenneTwister" {|
__global__ void mt_generate(float* out, int per_item, int n) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i < n) {
    unsigned long s = (unsigned long)(i * 1664525 + 1013904223);
    float acc = 0.0f;
    for (int k = 0; k < per_item; k++) {
      s = s * 6364136223846793005ul + 1442695040888963407ul;
      acc += (float)(s >> 40) / 16777216.0f;
    }
    out[i] = acc / (float)per_item;
  }
}

int main(void) {
  int n = 4096;
  float* d;
  cudaMalloc((void**)&d, n * sizeof(float));
  mt_generate<<<n / 64, 64>>>(d, 8, n);
  float* h = (float*)malloc(n * sizeof(float));
  cudaMemcpy(h, d, n * sizeof(float), cudaMemcpyDeviceToHost);
  float sum = 0.0f;
  for (int i = 0; i < n; i++) sum += h[i];
  printf("MersenneTwister sum %.4g\n", sum);
  return 0;
}
|}

let sortingnetworks = app "sortingNetworks" {|
__global__ void bitonic_step(float* data, int j, int k) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  int ixj = i ^ j;
  if (ixj > i) {
    float a = data[i];
    float b = data[ixj];
    int up = (i & k) == 0;
    if ((up && a > b) || (!up && a < b)) {
      data[i] = b;
      data[ixj] = a;
    }
  }
}

int main(void) {
  int n = 1024;
  float* h = (float*)malloc(n * sizeof(float));
  unsigned long seed = 31ul;
  for (int i = 0; i < n; i++) {
    seed = seed * 6364136223846793005ul + 1442695040888963407ul;
    h[i] = (float)(seed >> 40) / 16777216.0f;
  }
  float* d;
  cudaMalloc((void**)&d, n * sizeof(float));
  cudaMemcpy(d, h, n * sizeof(float), cudaMemcpyHostToDevice);
  for (int k = 2; k <= n; k *= 2) {
    for (int j = k / 2; j > 0; j /= 2) {
      bitonic_step<<<n / 64, 64>>>(d, j, k);
    }
  }
  cudaMemcpy(h, d, n * sizeof(float), cudaMemcpyDeviceToHost);
  int sorted = 1;
  for (int i = 0; i + 1 < n; i++) {
    if (h[i] > h[i + 1]) sorted = 0;
  }
  float sum = 0.0f;
  for (int i = 0; i < n; i++) sum += h[i];
  printf("sortingNetworks sorted %d sum %.4g\n", sorted, sum);
  return 0;
}
|}

let fastwalsh = app "fastWalshTransform" {|
__global__ void fwt_step(float* data, int stride, int n) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  int pos = (i / stride) * stride * 2 + (i % stride);
  if (pos + stride < n) {
    float a = data[pos];
    float b = data[pos + stride];
    data[pos] = a + b;
    data[pos + stride] = a - b;
  }
}

int main(void) {
  int n = 2048;
  float* h = (float*)malloc(n * sizeof(float));
  for (int i = 0; i < n; i++) h[i] = 0.01f * (float)(i % 127);
  float* d;
  cudaMalloc((void**)&d, n * sizeof(float));
  cudaMemcpy(d, h, n * sizeof(float), cudaMemcpyHostToDevice);
  for (int stride = 1; stride < n; stride *= 2) {
    fwt_step<<<n / 2 / 64, 64>>>(d, stride, n);
  }
  cudaMemcpy(h, d, n * sizeof(float), cudaMemcpyDeviceToHost);
  float l1 = 0.0f;
  for (int i = 0; i < n; i++) l1 += h[i] > 0.0f ? h[i] : -h[i];
  printf("fastWalshTransform l1 %.4g\n", l1);
  return 0;
}
|}

let dwthaar1d = app "dwtHaar1D" {|
__global__ void haar_step(float* in, float* out, int half) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i < half) {
    float a = in[2 * i];
    float b = in[2 * i + 1];
    out[i] = 0.70710678f * (a + b);
    out[half + i] = 0.70710678f * (a - b);
  }
}

int main(void) {
  int n = 2048;
  float* h = (float*)malloc(n * sizeof(float));
  for (int i = 0; i < n; i++) h[i] = 0.01f * (float)(i % 211);
  float* d_a; float* d_b;
  cudaMalloc((void**)&d_a, n * sizeof(float));
  cudaMalloc((void**)&d_b, n * sizeof(float));
  cudaMemcpy(d_a, h, n * sizeof(float), cudaMemcpyHostToDevice);
  haar_step<<<n / 2 / 64, 64>>>(d_a, d_b, n / 2);
  cudaMemcpy(h, d_b, n * sizeof(float), cudaMemcpyDeviceToHost);
  float sum = 0.0f;
  for (int i = 0; i < n; i++) sum += h[i];
  printf("dwtHaar1D sum %.4g\n", sum);
  return 0;
}
|}

(* simpleMultiGPU degraded to the single simulated device *)
let simplemultigpu = app "simpleMultiGPU" {|
__global__ void reduceKernel(float* in, float* out, int n) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  __shared__ float acc[64];
  acc[threadIdx.x] = i < n ? in[i] : 0.0f;
  __syncthreads();
  for (int s = blockDim.x / 2; s > 0; s /= 2) {
    if (threadIdx.x < s) acc[threadIdx.x] += acc[threadIdx.x + s];
    __syncthreads();
  }
  if (threadIdx.x == 0) out[blockIdx.x] = acc[0];
}

int main(void) {
  int count = 0;
  cudaGetDeviceCount(&count);
  int n = 4096;
  float* h = (float*)malloc(n * sizeof(float));
  for (int i = 0; i < n; i++) h[i] = 0.001f * (float)(i % 307);
  float* d_in; float* d_out;
  cudaMalloc((void**)&d_in, n * sizeof(float));
  cudaMalloc((void**)&d_out, (n / 64) * sizeof(float));
  cudaMemcpy(d_in, h, n * sizeof(float), cudaMemcpyHostToDevice);
  reduceKernel<<<n / 64, 64>>>(d_in, d_out, n);
  float* h_out = (float*)malloc((n / 64) * sizeof(float));
  cudaMemcpy(h_out, d_out, (n / 64) * sizeof(float), cudaMemcpyDeviceToHost);
  float sum = 0.0f;
  for (int i = 0; i < n / 64; i++) sum += h_out[i];
  printf("simpleMultiGPU devices %d sum %.4g\n", count, sum);
  return 0;
}
|}

let simpleevents = app "simpleEvents" {|
__global__ void busy(float* data, int n) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i < n) {
    float v = data[i];
    for (int k = 0; k < 16; k++) v = v * 1.0001f + 0.0001f;
    data[i] = v;
  }
}

int main(void) {
  int n = 4096;
  float* d;
  cudaMalloc((void**)&d, n * sizeof(float));
  cudaMemset(d, 0, n * sizeof(float));
  cudaEvent_t e0;
  cudaEvent_t e1;
  cudaEventCreate(&e0);
  cudaEventCreate(&e1);
  cudaEventRecord(e0, 0);
  busy<<<n / 64, 64>>>(d, n);
  cudaEventRecord(e1, 0);
  float ms = 0.0f;
  cudaEventElapsedTime(&ms, e0, e1);
  float* h = (float*)malloc(n * sizeof(float));
  cudaMemcpy(h, d, n * sizeof(float), cudaMemcpyDeviceToHost);
  float sum = 0.0f;
  for (int i = 0; i < n; i++) sum += h[i];
  printf("simpleEvents sum %.4g timed %d\n", sum, (int)(ms >= 0.0f));
  return 0;
}
|}

let matvecmul = app "matVecMul" {|
__global__ void matVec(float* m, float* v, float* out, int rows, int cols) {
  int r = blockIdx.x * blockDim.x + threadIdx.x;
  if (r < rows) {
    float acc = 0.0f;
    for (int c = 0; c < cols; c++) acc += m[r * cols + c] * v[c];
    out[r] = acc;
  }
}

int main(void) {
  int rows = 512;
  int cols = 64;
  float* h_m = (float*)malloc(rows * cols * sizeof(float));
  float* h_v = (float*)malloc(cols * sizeof(float));
  for (int i = 0; i < rows * cols; i++) h_m[i] = 0.001f * (float)(i % 353);
  for (int i = 0; i < cols; i++) h_v[i] = 0.01f * (float)(i % 59);
  float* d_m; float* d_v; float* d_o;
  cudaMalloc((void**)&d_m, rows * cols * sizeof(float));
  cudaMalloc((void**)&d_v, cols * sizeof(float));
  cudaMalloc((void**)&d_o, rows * sizeof(float));
  cudaMemcpy(d_m, h_m, rows * cols * sizeof(float), cudaMemcpyHostToDevice);
  cudaMemcpy(d_v, h_v, cols * sizeof(float), cudaMemcpyHostToDevice);
  matVec<<<rows / 64, 64>>>(d_m, d_v, d_o, rows, cols);
  float* h_o = (float*)malloc(rows * sizeof(float));
  cudaMemcpy(h_o, d_o, rows * sizeof(float), cudaMemcpyDeviceToHost);
  float sum = 0.0f;
  for (int i = 0; i < rows; i++) sum += h_o[i];
  printf("matVecMul sum %.4g\n", sum);
  return 0;
}
|}

(* static __device__ global exercised end to end (§4.3) *)
let globalmemsample = app "simpleStaticGlobal" {|
__device__ float g_bias[4];

__global__ void addBias(float* data, int n) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i < n) data[i] += g_bias[i % 4];
}

int main(void) {
  int n = 2048;
  float bias[4] = {0.5f, 1.0f, 1.5f, 2.0f};
  cudaMemcpyToSymbol(g_bias, bias, 4 * sizeof(float));
  float* d;
  cudaMalloc((void**)&d, n * sizeof(float));
  cudaMemset(d, 0, n * sizeof(float));
  addBias<<<n / 64, 64>>>(d, n);
  float back[4] = {0.0f, 0.0f, 0.0f, 0.0f};
  cudaMemcpyFromSymbol(back, g_bias, 4 * sizeof(float));
  float* h = (float*)malloc(n * sizeof(float));
  cudaMemcpy(h, d, n * sizeof(float), cudaMemcpyDeviceToHost);
  float sum = back[0] + back[1] + back[2] + back[3];
  for (int i = 0; i < n; i++) sum += h[i];
  printf("simpleStaticGlobal sum %.4g\n", sum);
  return 0;
}
|}

(* the 25 translatable CUDA samples of Figure 8(b) *)
let apps =
  [ vectoradd; matrixmul; template; cppintegration; blackscholes;
    simpletexture; simplepitchlinear; convolutionseparable; devicequery;
    devicequerydrv; asyncapi; bandwidthtest; histogram; scan_sample;
    scalarprod; binomialoptions; quasirandom; mersennetwister;
    sortingnetworks; fastwalsh; dwthaar1d; simplemultigpu; simpleevents;
    matvecmul; globalmemsample ]
