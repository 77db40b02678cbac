/* MRI Q-matrix (MRI-Q, Parboil): each thread integrates over the
 * k-space trajectory and commits a real and an imaginary sample. Two
 * folded stores to distinct arrays — same element index, different
 * pointers, so LP024's footprint comparison keeps them apart. Lints
 * clean. */
void launch_mriq(float *qr, float *qi, float *kx, float *x, int nk) {
#pragma nvm lpcuda_init(checksumMRIQ, nblocks, 2)
    mriq<<<nblocks, tpb>>>(qr, qi, kx, x, nk);
}

__global__ void mriq(float *qr, float *qi, float *kx, float *x, int nk) {
    int v = blockIdx.x * blockDim.x + threadIdx.x;
    float accr = 0.0f;
    float acci = 0.0f;
    for (int k = 0; k < nk; k++) {
        float ph = kx[k] * x[v];
        accr += cosf(ph);
        acci += sinf(ph);
    }
#pragma nvm lpcuda_checksum("+", checksumMRIQ, blockIdx.x)
    qr[v] = accr;
#pragma nvm lpcuda_checksum("+", checksumMRIQ, blockIdx.x)
    qi[v] = acci;
}
