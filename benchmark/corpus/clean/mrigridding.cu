/* MRI gridding (Parboil): scatter of irregular k-space samples onto a
 * Cartesian grid. The output cell comes from sample data, so the store
 * index is opaque to the affine domain — the footprint engine records it
 * as inexact and the taint fallback (cell is derived from a
 * blockIdx-dependent load) keeps LP013 quiet. Lints clean. */
void launch_gridding(float *out, float *samples, int ns) {
#pragma nvm lpcuda_init(checksumGRID, nblocks, 1)
    gridding<<<nblocks, tpb>>>(out, samples, ns);
}

__global__ void gridding(float *out, float *samples, int ns) {
    int s = blockIdx.x * blockDim.x + threadIdx.x;
    int cell = (int)samples[3 * s];
    float w = samples[3 * s + 1];
    float v = samples[3 * s + 2];
#pragma nvm lpcuda_checksum("+", checksumGRID, blockIdx.x)
    out[cell] = w * v;
}
