__global__ void k(int* p) { p[0] = 1; }

int main(void) {
  int h[2] = {1, 3};
  int* d;
  cudaMalloc((void**)&d, 2 * sizeof(int));
  cudaMemcpy(d, h, 2 * sizeof(int), cudaMemcpyHostToDevice, 0);
  printf("%d %d\n", h[0], h[1]);
  return 0;
}
