/* Dense matrix multiply annotated for Lazy Persistency — the paper's
 * Listing 5/6 shape: one host-side table init, one fold per protected
 * store keyed by block coordinates. Lints clean. */
#define BLOCK_SIZE 16

void launch_matrixmul(float *C, float *A, float *B, int wA, int wB) {
#pragma nvm lpcuda_init(checksumMM, grid.x * grid.y, 1)
    MatrixMulCUDA<<<grid, threads>>>(C, A, B, wA, wB);
}

__global__ void MatrixMulCUDA(float *C, float *A, float *B, int wA, int wB) {
    int bx = blockIdx.x;
    int by = blockIdx.y;
    int tx = threadIdx.x;
    int ty = threadIdx.y;
    int row = by * BLOCK_SIZE + ty;
    int col = bx * BLOCK_SIZE + tx;
    float Csub = 0;
    for (int k = 0; k < wA; k++) {
        Csub += A[row * wA + k] * B[k * wB + col];
    }
    int c = wB * BLOCK_SIZE * by + BLOCK_SIZE * bx;
#pragma nvm lpcuda_checksum("+", checksumMM, blockIdx.x, blockIdx.y)
    C[c + wB * ty + tx] = Csub;
}
