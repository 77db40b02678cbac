/* Tiled matrix multiply: shared-memory staging with uniform
 * __syncthreads() inside a uniform-trip-count loop — the barrier
 * pattern LP010 must NOT flag. Lints clean. */
#define TILE 16

void launch_tmm(float *C, float *A, float *B, int n) {
#pragma nvm lpcuda_init(checksumTMM, grid.x * grid.y, 1)
    tmm<<<grid, threads>>>(C, A, B, n);
}

__global__ void tmm(float *C, float *A, float *B, int n) {
#pragma nvm lpcuda_mode(adaptive)
    __shared__ float As[TILE][TILE];
    __shared__ float Bs[TILE][TILE];
    int tx = threadIdx.x;
    int ty = threadIdx.y;
    int row = blockIdx.y * TILE + ty;
    int col = blockIdx.x * TILE + tx;
    float acc = 0.0f;
    for (int t = 0; t < n / TILE; t++) {
        As[ty][tx] = A[row * n + t * TILE + tx];
        Bs[ty][tx] = B[(t * TILE + ty) * n + col];
        __syncthreads();
        for (int kk = 0; kk < TILE; kk++) {
            acc += As[ty][kk] * Bs[kk][tx];
        }
        __syncthreads();
    }
#pragma nvm lpcuda_checksum("+", checksumTMM, blockIdx.x, blockIdx.y)
    C[row * n + col] = acc;
}
