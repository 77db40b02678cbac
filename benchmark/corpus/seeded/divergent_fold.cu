/* Seeded bug: the checksum fold sits under a thread-dependent guard,
 * so all threads but one skip it and the block reduction never matches
 * recomputation (LP012). */
void launch_commit(float *out, int n) {
#pragma nvm lpcuda_init(tab, nblocks, 1)
    commit<<<nblocks, tpb>>>(out, n);
}

__global__ void commit(float *out, int n) {
    if (threadIdx.x == 0) {
#pragma nvm lpcuda_checksum("+", tab, blockIdx.x)
        out[blockIdx.x] = 1.0f;
    }
}
