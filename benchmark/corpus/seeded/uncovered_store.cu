/* Seeded bug: the journal store in an LP-protected kernel is never
 * folded into any checksum — a crash that loses it still validates
 * (LP011). Mirrors the dynamic sanitizer's coverage pass. */
void launch_update(float *out, float *journal, int n) {
#pragma nvm lpcuda_init(tab, nblocks, 1)
    update<<<nblocks, tpb>>>(out, journal, n);
}

__global__ void update(float *out, float *journal, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    float v = out[i] * 2.0f;
#pragma nvm lpcuda_checksum("+", tab, blockIdx.x)
    out[i] = v;
    journal[i] = v;
}
