(* NVIDIA CUDA Toolkit 4.2 OpenCL sample applications, miniaturised
   (Figure 7(c)): 27 samples, every one translated OpenCL-to-CUDA by the
   framework.  Sample inventory reconstructed from the 4.2 SDK. *)

open Bridge.Framework

let app = ocl_app ~suite:"toolkit"

let simple name src kernel ~n ~l ~args ~out_len =
  app name (fun ctx ->
      let o = Dsl.ops ctx in
      o.build src;
      let k = o.kern kernel in
      let args, out = args o in
      o.set_args k args;
      o.run1 k ~g:n ~l;
      Dsl.checksum_floats name (o.read_floats out out_len))

(* ------------------------------------------------------------------ *)

let vectoradd =
  let src = {|
__kernel void vadd(__global float* a, __global float* b, __global float* c, int n) {
  int i = get_global_id(0);
  if (i < n) c[i] = a[i] + b[i];
}
|}
  in
  simple "oclVectorAdd" src "vadd" ~n:4096 ~l:64 ~out_len:4096
    ~args:(fun o ->
        let a = o.Dsl.fbuf (Dsl.randf 4096 301) in
        let b = o.Dsl.fbuf (Dsl.randf 4096 302) in
        let c = o.Dsl.fbuf_empty 4096 in
        ([ Dsl.B a; Dsl.B b; Dsl.B c; Dsl.I 4096 ], c))

let dotproduct =
  let src = {|
__kernel void dotp(__global float* a, __global float* b, __global float* partial,
                   __local float* tmp, int n) {
  int i = get_global_id(0);
  int t = get_local_id(0);
  tmp[t] = i < n ? a[i] * b[i] : 0.0f;
  barrier(CLK_LOCAL_MEM_FENCE);
  for (int s = get_local_size(0) / 2; s > 0; s = s / 2) {
    if (t < s) tmp[t] += tmp[t + s];
    barrier(CLK_LOCAL_MEM_FENCE);
  }
  if (t == 0) partial[get_group_id(0)] = tmp[0];
}
|}
  in
  app "oclDotProduct" (fun ctx ->
      let o = Dsl.ops ctx in
      let n = 4096 and l = 64 in
      o.build src;
      let a = o.fbuf (Dsl.randf n 303) and b = o.fbuf (Dsl.randf n 304) in
      let partial = o.fbuf_empty (n / l) in
      let k = o.kern "dotp" in
      o.set_args k [ B a; B b; B partial; L (l * 4); I n ];
      o.run1 k ~g:n ~l;
      Dsl.checksum_floats "oclDotProduct" (o.read_floats partial (n / l)))

let matvecmul =
  let src = {|
__kernel void matvec(__global float* m, __global float* v, __global float* out,
                     int rows, int cols) {
  int r = get_global_id(0);
  if (r < rows) {
    float acc = 0.0f;
    for (int c = 0; c < cols; c++) acc += m[r * cols + c] * v[c];
    out[r] = acc;
  }
}
|}
  in
  simple "oclMatVecMul" src "matvec" ~n:512 ~l:64 ~out_len:512
    ~args:(fun o ->
        let m = o.Dsl.fbuf (Dsl.randf (512 * 64) 305) in
        let v = o.Dsl.fbuf (Dsl.randf 64 306) in
        let out = o.Dsl.fbuf_empty 512 in
        ([ Dsl.B m; Dsl.B v; Dsl.B out; Dsl.I 512; Dsl.I 64 ], out))

let matrixmul =
  let src = {|
__kernel void matmul(__global float* a, __global float* b, __global float* c,
                     __local float* ta, __local float* tb, int n) {
  int col = get_global_id(0);
  int row = get_global_id(1);
  int lx = get_local_id(0);
  int ly = get_local_id(1);
  float acc = 0.0f;
  for (int tile = 0; tile < n / 16; tile++) {
    ta[ly * 16 + lx] = a[row * n + tile * 16 + lx];
    tb[ly * 16 + lx] = b[(tile * 16 + ly) * n + col];
    barrier(CLK_LOCAL_MEM_FENCE);
    for (int k = 0; k < 16; k++) acc += ta[ly * 16 + k] * tb[k * 16 + lx];
    barrier(CLK_LOCAL_MEM_FENCE);
  }
  c[row * n + col] = acc;
}
|}
  in
  app "oclMatrixMul" (fun ctx ->
      let o = Dsl.ops ctx in
      let n = 64 in
      o.build src;
      let a = o.fbuf (Dsl.randf (n * n) 307) in
      let b = o.fbuf (Dsl.randf (n * n) 308) in
      let c = o.fbuf_empty (n * n) in
      let k = o.kern "matmul" in
      o.set_args k [ B a; B b; B c; L (256 * 4); L (256 * 4); I n ];
      o.run2 k ~gx:n ~gy:n ~lx:16 ~ly:16;
      Dsl.checksum_floats "oclMatrixMul" (o.read_floats c (n * n)))

let transpose =
  let src = {|
__kernel void transpose(__global float* in, __global float* out,
                        __local float* tile, int n) {
  int x = get_global_id(0);
  int y = get_global_id(1);
  int lx = get_local_id(0);
  int ly = get_local_id(1);
  tile[ly * 17 + lx] = in[y * n + x];
  barrier(CLK_LOCAL_MEM_FENCE);
  int ox = get_group_id(1) * 16 + lx;
  int oy = get_group_id(0) * 16 + ly;
  out[oy * n + ox] = tile[lx * 17 + ly];
}
|}
  in
  app "oclTranspose" (fun ctx ->
      let o = Dsl.ops ctx in
      let n = 64 in
      o.build src;
      let a = o.fbuf (Dsl.randf (n * n) 309) in
      let b = o.fbuf_empty (n * n) in
      let k = o.kern "transpose" in
      o.set_args k [ B a; B b; L (16 * 17 * 4); I n ];
      o.run2 k ~gx:n ~gy:n ~lx:16 ~ly:16;
      Dsl.checksum_floats "oclTranspose" (o.read_floats b (n * n)))

let reduction =
  let src = {|
__kernel void reduce(__global float* in, __global float* out,
                     __local float* tmp, int n) {
  int i = get_global_id(0);
  int t = get_local_id(0);
  tmp[t] = i < n ? in[i] : 0.0f;
  barrier(CLK_LOCAL_MEM_FENCE);
  for (int s = get_local_size(0) / 2; s > 0; s = s / 2) {
    if (t < s) tmp[t] += tmp[t + s];
    barrier(CLK_LOCAL_MEM_FENCE);
  }
  if (t == 0) out[get_group_id(0)] = tmp[0];
}
|}
  in
  app "oclReduction" (fun ctx ->
      let o = Dsl.ops ctx in
      let n = 8192 and l = 64 in
      o.build src;
      let a = o.fbuf (Dsl.randf n 310) in
      let out = o.fbuf_empty (n / l) in
      let k = o.kern "reduce" in
      o.set_args k [ B a; B out; L (l * 4); I n ];
      o.run1 k ~g:n ~l;
      Dsl.checksum_floats "oclReduction" (o.read_floats out (n / l)))

let scan =
  let src = {|
__kernel void scan_block(__global int* in, __global int* out,
                         __local int* tmp, int n) {
  int i = get_global_id(0);
  int t = get_local_id(0);
  tmp[t] = i < n ? in[i] : 0;
  barrier(CLK_LOCAL_MEM_FENCE);
  for (int off = 1; off < get_local_size(0); off *= 2) {
    int v = 0;
    if (t >= off) v = tmp[t - off];
    barrier(CLK_LOCAL_MEM_FENCE);
    tmp[t] += v;
    barrier(CLK_LOCAL_MEM_FENCE);
  }
  if (i < n) out[i] = tmp[t];
}
|}
  in
  app "oclScan" (fun ctx ->
      let o = Dsl.ops ctx in
      let n = 2048 and l = 64 in
      o.build src;
      let a = o.intbuf (Dsl.randi n 311 100) in
      let out = o.intbuf_empty n in
      let k = o.kern "scan_block" in
      o.set_args k [ B a; B out; L (l * 4); I n ];
      o.run1 k ~g:n ~l;
      Dsl.checksum_ints "oclScan" (o.read_ints out n))

let histogram =
  let src = {|
__kernel void hist(__global int* data, __global int* bins, int n, int nbins) {
  int i = get_global_id(0);
  if (i < n) atomic_add(&bins[data[i] % nbins], 1);
}
|}
  in
  app "oclHistogram" (fun ctx ->
      let o = Dsl.ops ctx in
      let n = 8192 and nbins = 64 in
      o.build src;
      let data = o.intbuf (Dsl.randi n 312 1024) in
      let bins = o.intbuf (Array.make nbins 0) in
      let k = o.kern "hist" in
      o.set_args k [ B data; B bins; I n; I nbins ];
      o.run1 k ~g:n ~l:64;
      Dsl.checksum_ints "oclHistogram" (o.read_ints bins nbins))

let sortingnetworks =
  let src = {|
__kernel void bitonic_step(__global float* data, int j, int k) {
  int i = get_global_id(0);
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
|}
  in
  app "oclSortingNetworks" (fun ctx ->
      let o = Dsl.ops ctx in
      let n = 1024 in
      o.build src;
      let b = o.fbuf (Dsl.randf n 313) in
      let kn = o.kern "bitonic_step" in
      let k = ref 2 in
      while !k <= n do
        let j = ref (!k / 2) in
        while !j > 0 do
          o.set_args kn [ B b; I !j; I !k ];
          o.run1 kn ~g:n ~l:64;
          j := !j / 2
        done;
        k := !k * 2
      done;
      let out = o.read_floats b n in
      let sorted = Array.for_all2 ( <= ) (Array.sub out 0 (n - 1)) (Array.sub out 1 (n - 1)) in
      Printf.sprintf "oclSortingNetworks sorted=%b %s" sorted
        (Dsl.checksum_floats "data" out))

let radixsort =
  let src = {|
__kernel void radix_count(__global int* keys, __global int* counts, int shift, int n) {
  int i = get_global_id(0);
  if (i < n) atomic_add(&counts[(keys[i] >> shift) & 15], 1);
}
|}
  in
  app "oclRadixSort" (fun ctx ->
      let o = Dsl.ops ctx in
      let n = 4096 in
      o.build src;
      let keys = o.intbuf (Dsl.randi n 314 65536) in
      let kd = o.kern "radix_count" in
      let acc = ref [] in
      for pass = 0 to 3 do
        let counts = o.intbuf (Array.make 16 0) in
        o.set_args kd [ B keys; B counts; I (4 * pass); I n ];
        o.run1 kd ~g:n ~l:64;
        acc := o.read_ints counts 16 :: !acc
      done;
      Dsl.checksum_ints "oclRadixSort" (Array.concat (List.rev !acc)))

let mersennetwister =
  let src = {|
__kernel void mt_generate(__global float* out, int per_item, int n) {
  int i = get_global_id(0);
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
|}
  in
  simple "oclMersenneTwister" src "mt_generate" ~n:4096 ~l:64 ~out_len:4096
    ~args:(fun o ->
        let out = o.Dsl.fbuf_empty 4096 in
        ([ Dsl.B out; Dsl.I 8; Dsl.I 4096 ], out))

let quasirandom =
  let src = {|
__kernel void sobol_like(__global float* out, int dims, int n) {
  int i = get_global_id(0);
  if (i < n) {
    int g = i ^ (i >> 1);
    float acc = 0.0f;
    for (int d = 0; d < dims; d++) {
      acc += (float)((g >> d) & 1) / (float)(1 << (d + 1));
    }
    out[i] = acc;
  }
}
|}
  in
  simple "oclQuasirandomGenerator" src "sobol_like" ~n:8192 ~l:64 ~out_len:8192
    ~args:(fun o ->
        let out = o.Dsl.fbuf_empty 8192 in
        ([ Dsl.B out; Dsl.I 8; Dsl.I 8192 ], out))

let blackscholes =
  let src = {|
__kernel void blackscholes(__global float* price, __global float* strike,
                           __global float* years, __global float* callv,
                           __global float* putv, float riskfree, float vol, int n) {
  int i = get_global_id(0);
  if (i < n) {
    float s = price[i];
    float x = strike[i];
    float t = years[i];
    float sqrtt = sqrt(t);
    float d1 = (log(s / x) + (riskfree + 0.5f * vol * vol) * t) / (vol * sqrtt);
    float d2 = d1 - vol * sqrtt;
    float k1 = 1.0f / (1.0f + 0.2316419f * fabs(d1));
    float cnd1 = 1.0f - 0.3989423f * exp(-0.5f * d1 * d1) * k1 * (0.3193815f + k1 * (-0.3565638f + k1 * 1.781478f));
    float k2 = 1.0f / (1.0f + 0.2316419f * fabs(d2));
    float cnd2 = 1.0f - 0.3989423f * exp(-0.5f * d2 * d2) * k2 * (0.3193815f + k2 * (-0.3565638f + k2 * 1.781478f));
    if (d1 < 0.0f) cnd1 = 1.0f - cnd1;
    if (d2 < 0.0f) cnd2 = 1.0f - cnd2;
    float expr = exp(-riskfree * t);
    callv[i] = s * cnd1 - x * expr * cnd2;
    putv[i] = x * expr * (1.0f - cnd2) - s * (1.0f - cnd1);
  }
}
|}
  in
  app "oclBlackScholes" (fun ctx ->
      let o = Dsl.ops ctx in
      let n = 2048 in
      o.build src;
      let price = o.fbuf (Array.map (fun x -> 5.0 +. (25.0 *. x)) (Dsl.randf n 315)) in
      let strike = o.fbuf (Array.map (fun x -> 1.0 +. (99.0 *. x)) (Dsl.randf n 316)) in
      let years = o.fbuf (Array.map (fun x -> 0.25 +. (9.75 *. x)) (Dsl.randf n 317)) in
      let call = o.fbuf_empty n and put = o.fbuf_empty n in
      let k = o.kern "blackscholes" in
      o.set_args k [ B price; B strike; B years; B call; B put; F 0.02; F 0.30; I n ];
      o.run1 k ~g:n ~l:64;
      Dsl.checksum_floats "oclBlackScholes"
        (Array.append (o.read_floats call n) (o.read_floats put n)))

let montecarlo =
  let src = {|
__kernel void mc_option(__global float* results, float s0, float strike,
                        int paths_per_item, int n) {
  int i = get_global_id(0);
  if (i < n) {
    unsigned long seed = (unsigned long)(i + 7) * 2654435761ul;
    float payoff = 0.0f;
    for (int p = 0; p < paths_per_item; p++) {
      seed = seed * 6364136223846793005ul + 1442695040888963407ul;
      float z = (float)(seed >> 40) / 16777216.0f - 0.5f;
      float st = s0 * exp(0.05f + 0.6f * z);
      float gain = st - strike;
      if (gain > 0.0f) payoff += gain;
    }
    results[i] = payoff / (float)paths_per_item;
  }
}
|}
  in
  simple "oclMonteCarlo" src "mc_option" ~n:2048 ~l:64 ~out_len:2048
    ~args:(fun o ->
        let out = o.Dsl.fbuf_empty 2048 in
        ([ Dsl.B out; Dsl.F 40.0; Dsl.F 35.0; Dsl.I 8; Dsl.I 2048 ], out))

let convolutionseparable =
  let src = {|
__kernel void conv_rows(__global float* in, __global float* out,
                        __constant float* taps, int w, int h, int radius) {
  int x = get_global_id(0);
  int y = get_global_id(1);
  if (x < w && y < h) {
    float acc = 0.0f;
    for (int k = -radius; k <= radius; k++) {
      int xx = x + k;
      if (xx < 0) xx = 0;
      if (xx >= w) xx = w - 1;
      acc += in[y * w + xx] * taps[k + radius];
    }
    out[y * w + x] = acc;
  }
}
|}
  in
  app "oclConvolutionSeparable" (fun ctx ->
      let o = Dsl.ops ctx in
      let w = 96 and h = 96 and radius = 4 in
      o.build src;
      let img = o.fbuf (Dsl.randf (w * h) 318) in
      let taps = o.fbuf (Array.init ((2 * radius) + 1) (fun i -> 1.0 /. float_of_int (1 + abs (i - radius)))) in
      let out = o.fbuf_empty (w * h) in
      let k = o.kern "conv_rows" in
      o.set_args k [ B img; B out; B taps; I w; I h; I radius ];
      o.run2 k ~gx:w ~gy:h ~lx:16 ~ly:16;
      Dsl.checksum_floats "oclConvolutionSeparable" (o.read_floats out (w * h)))

let dct8x8 =
  let src = {|
__kernel void dct_block(__global float* in, __global float* out, int w) {
  int bx = get_group_id(0);
  int by = get_group_id(1);
  int u = get_local_id(0);
  int v = get_local_id(1);
  float acc = 0.0f;
  for (int x = 0; x < 8; x++) {
    for (int y = 0; y < 8; y++) {
      float pix = in[(by * 8 + y) * w + bx * 8 + x];
      float cu = cos((2.0f * (float)x + 1.0f) * (float)u * 0.19635f);
      float cv = cos((2.0f * (float)y + 1.0f) * (float)v * 0.19635f);
      acc += pix * cu * cv;
    }
  }
  out[(by * 8 + v) * w + bx * 8 + u] = 0.25f * acc;
}
|}
  in
  app "oclDCT8x8" (fun ctx ->
      let o = Dsl.ops ctx in
      let w = 32 in
      o.build src;
      let img = o.fbuf (Dsl.randf (w * w) 319) in
      let out = o.fbuf_empty (w * w) in
      let k = o.kern "dct_block" in
      o.set_args k [ B img; B out; I w ];
      o.run2 k ~gx:w ~gy:w ~lx:8 ~ly:8;
      Dsl.checksum_floats "oclDCT8x8" (o.read_floats out (w * w)))

let dxtcompression =
  let src = {|
__kernel void dxt_block(__global float* in, __global int* out, int w) {
  int b = get_global_id(0);
  int nblocks = w * w / 16;
  if (b < nblocks) {
    float minv = 1.0e30f;
    float maxv = -1.0e30f;
    for (int i = 0; i < 16; i++) {
      float v = in[b * 16 + i];
      if (v < minv) minv = v;
      if (v > maxv) maxv = v;
    }
    int bits = 0;
    for (int i = 0; i < 16; i++) {
      float v = in[b * 16 + i];
      int q = (int)((v - minv) / (maxv - minv + 0.0001f) * 3.0f);
      bits = bits | (q << (2 * i));
    }
    out[b] = bits;
  }
}
|}
  in
  app "oclDXTCompression" (fun ctx ->
      let o = Dsl.ops ctx in
      let w = 64 in
      let nblocks = w * w / 16 in
      o.build src;
      let img = o.fbuf (Dsl.randf (w * w) 320) in
      let out = o.intbuf_empty nblocks in
      let k = o.kern "dxt_block" in
      o.set_args k [ B img; B out; I w ];
      o.run1 k ~g:nblocks ~l:64;
      Dsl.checksum_ints "oclDXTCompression" (o.read_ints out nblocks))

let fdtd3d =
  let src = {|
__kernel void fdtd_step(__global float* in, __global float* out,
                        int nx, int ny, int nz) {
  int i = get_global_id(0);
  int j = get_global_id(1);
  if (i >= 1 && i < nx - 1 && j >= 1 && j < ny - 1) {
    for (int k = 1; k < nz - 1; k++) {
      int c = k * nx * ny + j * nx + i;
      out[c] = 0.4f * in[c] + 0.1f * (in[c - 1] + in[c + 1] + in[c - nx]
             + in[c + nx] + in[c - nx * ny] + in[c + nx * ny]);
    }
  }
}
|}
  in
  app "oclFDTD3d" (fun ctx ->
      let o = Dsl.ops ctx in
      let nx = 32 and ny = 32 and nz = 8 in
      let n = nx * ny * nz in
      o.build src;
      let a = o.fbuf (Dsl.randf n 321) in
      let b = o.fbuf_empty n in
      let k = o.kern "fdtd_step" in
      o.set_args k [ B a; B b; I nx; I ny; I nz ];
      o.run2 k ~gx:nx ~gy:ny ~lx:16 ~ly:16;
      Dsl.checksum_floats "oclFDTD3d" (o.read_floats b n))

let hiddenmarkov =
  let src = {|
__kernel void viterbi_step(__global float* prob, __global float* trans,
                           __global float* next, int nstates) {
  int s = get_global_id(0);
  if (s < nstates) {
    float best = -1.0e30f;
    for (int p = 0; p < nstates; p++) {
      float v = prob[p] + trans[p * nstates + s];
      if (v > best) best = v;
    }
    next[s] = best;
  }
}
|}
  in
  app "oclHiddenMarkovModel" (fun ctx ->
      let o = Dsl.ops ctx in
      let nstates = 256 in
      o.build src;
      let prob = o.fbuf (Dsl.randf nstates 322) in
      let trans = o.fbuf (Dsl.randf (nstates * nstates) 323) in
      let next = o.fbuf_empty nstates in
      let k = o.kern "viterbi_step" in
      let cur = ref prob and nxt = ref next in
      for _ = 1 to 4 do
        o.set_args k [ B !cur; B trans; B !nxt; I nstates ];
        o.run1 k ~g:nstates ~l:64;
        let t = !cur in
        cur := !nxt;
        nxt := t
      done;
      Dsl.checksum_floats "oclHiddenMarkovModel" (o.read_floats !cur nstates))

let medianfilter =
  let src = {|
__kernel void median3x3(__global float* in, __global float* out, int w, int h) {
  int x = get_global_id(0);
  int y = get_global_id(1);
  if (x >= 1 && x < w - 1 && y >= 1 && y < h - 1) {
    float v[9];
    int idx = 0;
    for (int dy = -1; dy <= 1; dy++) {
      for (int dx = -1; dx <= 1; dx++) {
        v[idx] = in[(y + dy) * w + x + dx];
        idx++;
      }
    }
    for (int i = 0; i < 5; i++) {
      int m = i;
      for (int j = i + 1; j < 9; j++) {
        if (v[j] < v[m]) m = j;
      }
      float t = v[i];
      v[i] = v[m];
      v[m] = t;
    }
    out[y * w + x] = v[4];
  }
}
|}
  in
  app "oclMedianFilter" (fun ctx ->
      let o = Dsl.ops ctx in
      let w = 64 and h = 64 in
      o.build src;
      let img = o.fbuf (Dsl.randf (w * h) 324) in
      let out = o.fbuf (Array.make (w * h) 0.0) in
      let k = o.kern "median3x3" in
      o.set_args k [ B img; B out; I w; I h ];
      o.run2 k ~gx:w ~gy:h ~lx:16 ~ly:16;
      Dsl.checksum_floats "oclMedianFilter" (o.read_floats out (w * h)))

let sobelfilter =
  let src = {|
__kernel void sobel(__global float* in, __global float* out, int w, int h) {
  int x = get_global_id(0);
  int y = get_global_id(1);
  if (x >= 1 && x < w - 1 && y >= 1 && y < h - 1) {
    float gx = in[(y - 1) * w + x + 1] + 2.0f * in[y * w + x + 1] + in[(y + 1) * w + x + 1]
             - in[(y - 1) * w + x - 1] - 2.0f * in[y * w + x - 1] - in[(y + 1) * w + x - 1];
    float gy = in[(y + 1) * w + x - 1] + 2.0f * in[(y + 1) * w + x] + in[(y + 1) * w + x + 1]
             - in[(y - 1) * w + x - 1] - 2.0f * in[(y - 1) * w + x] - in[(y - 1) * w + x + 1];
    out[y * w + x] = sqrt(gx * gx + gy * gy);
  }
}
|}
  in
  app "oclSobelFilter" (fun ctx ->
      let o = Dsl.ops ctx in
      let w = 64 and h = 64 in
      o.build src;
      let img = o.fbuf (Dsl.randf (w * h) 325) in
      let out = o.fbuf (Array.make (w * h) 0.0) in
      let k = o.kern "sobel" in
      o.set_args k [ B img; B out; I w; I h ];
      o.run2 k ~gx:w ~gy:h ~lx:16 ~ly:16;
      Dsl.checksum_floats "oclSobelFilter" (o.read_floats out (w * h)))

let boxfilter =
  let src = {|
__kernel void boxf(__global float* in, __global float* out, int w, int h, int r) {
  int x = get_global_id(0);
  int y = get_global_id(1);
  if (x < w && y < h) {
    float acc = 0.0f;
    int cnt = 0;
    for (int dy = -r; dy <= r; dy++) {
      for (int dx = -r; dx <= r; dx++) {
        int xx = x + dx;
        int yy = y + dy;
        if (xx >= 0 && xx < w && yy >= 0 && yy < h) {
          acc += in[yy * w + xx];
          cnt++;
        }
      }
    }
    out[y * w + x] = acc / (float)cnt;
  }
}
|}
  in
  app "oclBoxFilter" (fun ctx ->
      let o = Dsl.ops ctx in
      let w = 64 and h = 64 in
      o.build src;
      let img = o.fbuf (Dsl.randf (w * h) 326) in
      let out = o.fbuf_empty (w * h) in
      let k = o.kern "boxf" in
      o.set_args k [ B img; B out; I w; I h; I 2 ];
      o.run2 k ~gx:w ~gy:h ~lx:16 ~ly:16;
      Dsl.checksum_floats "oclBoxFilter" (o.read_floats out (w * h)))

(* image-object based sample: exercises OpenCL images -> CLImage (§5) *)
let simpleimage =
  let src = {|
__kernel void rotate90(__read_only image2d_t src, sampler_t smp,
                       __global float* out, int w, int h) {
  int x = get_global_id(0);
  int y = get_global_id(1);
  if (x < w && y < h) {
    float4 texel = read_imagef(src, smp, (int2)(y, x));
    out[y * w + x] = texel.x;
  }
}
|}
  in
  app "oclSimpleImage" (fun ctx ->
      let o = Dsl.ops ctx in
      let w = 64 and h = 64 in
      o.build src;
      let img = o.image2d ~width:w ~height:h (Dsl.randf (w * h) 327) in
      let smp = o.sampler () in
      let out = o.fbuf_empty (w * h) in
      let k = o.kern "rotate90" in
      o.set_args k [ Img img; Smp smp; B out; I w; I h ];
      o.run2 k ~gx:w ~gy:h ~lx:16 ~ly:16;
      Dsl.checksum_floats "oclSimpleImage" (o.read_floats out (w * h)))

let nbody =
  let src = {|
__kernel void nbody_step(__global float4* pos, __global float4* vel, int n, float dt) {
  int i = get_global_id(0);
  if (i < n) {
    float4 p = pos[i];
    float ax = 0.0f;
    float ay = 0.0f;
    float az = 0.0f;
    for (int j = 0; j < n; j++) {
      float4 q = pos[j];
      float dx = q.x - p.x;
      float dy = q.y - p.y;
      float dz = q.z - p.z;
      float inv = rsqrt(dx * dx + dy * dy + dz * dz + 0.01f);
      float s = q.w * inv * inv * inv;
      ax += s * dx;
      ay += s * dy;
      az += s * dz;
    }
    float4 v = vel[i];
    v.x += dt * ax;
    v.y += dt * ay;
    v.z += dt * az;
    vel[i] = v;
  }
}
|}
  in
  app "oclNbody" (fun ctx ->
      let o = Dsl.ops ctx in
      let n = 256 in
      o.build src;
      let pos = o.fbuf (Dsl.randf (4 * n) 328) in
      let vel = o.fbuf (Array.make (4 * n) 0.0) in
      let k = o.kern "nbody_step" in
      o.set_args k [ B pos; B vel; I n; F 0.01 ];
      o.run1 k ~g:n ~l:64;
      Dsl.checksum_floats "oclNbody" (o.read_floats vel (4 * n)))

let bandwidthtest =
  app "oclBandwidthTest" (fun ctx ->
      let o = Dsl.ops ctx in
      (* pure transfer benchmark; a trivial kernel keeps the program
         object exercised *)
      o.build {|
__kernel void touch(__global float* a) { int i = get_global_id(0); a[i] = a[i]; }
|};
      let n = 16384 in
      let b = o.fbuf (Dsl.randf n 329) in
      let acc = ref 0.0 in
      for _ = 1 to 4 do
        let back = o.read_floats b n in
        acc := !acc +. back.(0);
        o.write_floats b back
      done;
      Printf.sprintf "oclBandwidthTest ok %.4f" !acc)

let devicequery =
  app "oclDeviceQuery" (fun ctx ->
      let o = Dsl.ops ctx in
      let fields =
        [ "CL_DEVICE_MAX_COMPUTE_UNITS"; "CL_DEVICE_MAX_WORK_GROUP_SIZE";
          "CL_DEVICE_GLOBAL_MEM_SIZE"; "CL_DEVICE_LOCAL_MEM_SIZE";
          "CL_DEVICE_MAX_CONSTANT_BUFFER_SIZE"; "CL_DEVICE_MAX_CLOCK_FREQUENCY";
          "CL_DEVICE_IMAGE2D_MAX_WIDTH"; "CL_DEVICE_IMAGE2D_MAX_HEIGHT" ]
      in
      let vals = List.map (fun f -> Int64.to_string (o.device_info f)) fields in
      Printf.sprintf "oclDeviceQuery %s" (String.concat " " vals))

let copycomputeoverlap =
  let src = {|
__kernel void scale(__global float* a, float s, int n) {
  int i = get_global_id(0);
  if (i < n) a[i] *= s;
}
|}
  in
  app "oclCopyComputeOverlap" (fun ctx ->
      let o = Dsl.ops ctx in
      let n = 2048 in
      o.build src;
      let chunks = Array.init 4 (fun c -> o.fbuf (Dsl.randf n (330 + c))) in
      let k = o.kern "scale" in
      Array.iter
        (fun b ->
           o.set_args k [ B b; F 1.5; I n ];
           o.run1 k ~g:n ~l:64)
        chunks;
      let all = Array.concat (Array.to_list (Array.map (fun b -> o.read_floats b n) chunks)) in
      Dsl.checksum_floats "oclCopyComputeOverlap" all)

(* exactly the 27 samples of the paper's Figure 7(c) *)
let apps =
  [ vectoradd; dotproduct; matvecmul; matrixmul; transpose; reduction; scan;
    histogram; sortingnetworks; radixsort; mersennetwister; quasirandom;
    blackscholes; montecarlo; convolutionseparable; dct8x8; dxtcompression;
    fdtd3d; hiddenmarkov; medianfilter; sobelfilter; boxfilter; simpleimage;
    nbody; bandwidthtest; devicequery; copycomputeoverlap ]
