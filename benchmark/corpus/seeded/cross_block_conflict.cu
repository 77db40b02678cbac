/* Seeded bug: flag[0] is written by every block — the address does not
 * depend on blockIdx and no guard restricts the writers (LP013), and
 * no checksum folds the store either (LP011). Mirrors the dynamic
 * sanitizer's global-conflict pass. */
void launch_tally(float *out, float *flag, int n) {
#pragma nvm lpcuda_init(tab, nblocks, 1)
    tally<<<nblocks, tpb>>>(out, flag, n);
}

__global__ void tally(float *out, float *flag, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
#pragma nvm lpcuda_checksum("+", tab, blockIdx.x)
    out[i] = 1.0f;
    flag[0] = 1.0f;
}
