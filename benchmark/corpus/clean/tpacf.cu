/* Two-point angular correlation (TPACF, Parboil): block-private
 * histogram partials accumulated through shared-memory atomics (opaque
 * to the footprint engine), then one LP-protected commit per bin. The
 * commit store is affine with a blockIdx term, so the cross-block
 * disjointness proof applies. Lints clean. */
#define BINS 32

void launch_tpacf(unsigned *partials, float *xyz, int npoints) {
#pragma nvm lpcuda_init(checksumTPACF, nblocks, 1)
    tpacf<<<nblocks, BINS>>>(partials, xyz, npoints);
}

__global__ void tpacf(unsigned *partials, float *xyz, int npoints) {
    __shared__ unsigned local[BINS];
    int b = threadIdx.x;
    local[b] = 0;
    __syncthreads();
    int p = blockIdx.x * blockDim.x + threadIdx.x;
    float px = xyz[3 * p];
    float py = xyz[3 * p + 1];
    float pz = xyz[3 * p + 2];
    for (int w = 1; w <= 8; w++) {
        int q = p + w;
        float dot = px * xyz[3 * q] + py * xyz[3 * q + 1] + pz * xyz[3 * q + 2];
        atomicAdd(&local[(int)((dot + 1.0f) * 15.5f)], 1);
    }
    __syncthreads();
#pragma nvm lpcuda_checksum("+", checksumTPACF, blockIdx.x)
    partials[blockIdx.x * 32 + b] = local[b];
}
