/* Seeded bug: __syncthreads() inside a thread-dependent branch — the
 * upper half of the block never reaches the barrier (LP010). */
__global__ void reduce_half(float *out, float *in, int n) {
    __shared__ float buf[256];
    int tid = threadIdx.x;
    buf[tid] = in[blockIdx.x * blockDim.x + tid];
    if (tid < 128) {
        buf[tid] += buf[tid + 128];
        __syncthreads();
    }
    out[blockIdx.x] = buf[0];
}
