/* Seeded bug: `v` is only assigned on one side of the branch, so on
 * the other paths the checksum folds an indeterminate value and
 * validation is meaningless (LP014). */
void launch_gather(float *out, float *in, int n) {
#pragma nvm lpcuda_init(tab, nblocks, 1)
    gather<<<nblocks, tpb>>>(out, in, n);
}

__global__ void gather(float *out, float *in, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    float v;
    if (in[i] > 0.0f) {
        v = in[i];
    }
#pragma nvm lpcuda_checksum("+", tab, blockIdx.x)
    out[i] = v;
}
