(** The CUDA-to-OpenCL wrapper runtime (paper §3.4, Figure 3).

    Runs a translated application's host program with the cuda* calls
    it shares with original programs bound once ({!Cuda_api}) to
    wrappers over the simulated OpenCL API, plus the [__c2o_*] helpers
    the source translator emits for the three constructs that cannot be
    wrapped (kernel launches and cudaMemcpy{To,From}Symbol).  CUDA
    texture references are realised as OpenCL image + sampler pairs
    (§5); [cudaGetDeviceProperties] fans out into one clGetDeviceInfo
    call per field (Figure 8's deviceQuery outlier); under the OpenCL
    2.0 target, cudaHostAlloc-family calls wrap clSVMAlloc.  Per §3.4,
    the device program is built lazily at the first CUDA API call. *)

exception Wrapper_error of string

(** Run a translated program on an OpenCL device (Titan or HD7970):
    its printed output and simulated duration, the on-line build
    excluded. *)
val run : dev:Gpusim.Device.t -> result:Xlat.Cuda_to_ocl.result -> Hostrun.run
