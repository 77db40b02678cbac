/* Per-block privatised histogram: shared-memory accumulation through
 * atomics (opaque to the analysis), then one LP-protected commit of the
 * block-private bins to global memory. Launch uses BINS threads per
 * block, so each thread commits exactly one bin. Lints clean. */
#define BINS 256

void launch_histo(unsigned *out, unsigned *data, int n) {
#pragma nvm lpcuda_init(checksumHISTO, nblocks, 1)
    histo<<<nblocks, BINS>>>(out, data, n);
}

__global__ void histo(unsigned *out, unsigned *data, int n) {
    __shared__ unsigned local[BINS];
    int b = threadIdx.x;
    local[b] = 0;
    __syncthreads();
    int base = blockIdx.x * n;
    for (int i = threadIdx.x; i < n; i += blockDim.x) {
        atomicAdd(&local[data[base + i] % BINS], 1);
    }
    __syncthreads();
#pragma nvm lpcuda_checksum("+", checksumHISTO, blockIdx.x)
    out[blockIdx.x * BINS + b] = local[b];
}
