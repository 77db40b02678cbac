/* Sum of absolute differences (SAD, Parboil): 64 macroblock results per
 * block, committed through a constant-stride loop. The store's affine
 * footprint `64*blockIdx.x + j` with `j` in [0, 63] proves cross-block
 * disjointness with zero slack, and the declared region bound
 * `64*gridDim.x` covers the whole launch exactly. Lints clean. */
void launch_sad(unsigned *out, unsigned *cur, unsigned *ref, int n) {
#pragma nvm lpcuda_init(checksumSAD, nblocks, 1)
    sad<<<nblocks, 64>>>(out, cur, ref, n);
}

__global__ void sad(unsigned *out, unsigned *cur, unsigned *ref, int n) {
#pragma nvm lpcuda_region(out, 64 * gridDim.x)
    for (int j = 0; j < 64; j++) {
        unsigned acc = 0;
        for (int i = 0; i < 16; i++) {
            int d = cur[(blockIdx.x * 64 + j) * 16 + i] - ref[(blockIdx.x * 64 + j) * 16 + i];
            if (d < 0) {
                d = -d;
            }
            acc = acc + d;
        }
#pragma nvm lpcuda_checksum("+", checksumSAD, blockIdx.x)
        out[blockIdx.x * 64 + j] = acc;
    }
}
