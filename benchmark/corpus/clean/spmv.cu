/* Sparse matrix-vector multiply (CSR) with an LP-protected result
 * store. The row loop has a data-dependent trip count, but the fold and
 * store sit outside any thread-dependent guard, so the kernel lints
 * clean. One row per thread; the launch rounds nrows up to a multiple
 * of the block size and pads row_ptr accordingly. */
void launch_spmv(float *dst, float *val, int *col_idx, int *row_ptr, float *x, int nrows) {
#pragma nvm lpcuda_init(checksumSPMV, nblocks, 1)
    spmv_csr<<<nblocks, tpb>>>(dst, val, col_idx, row_ptr, x, nrows);
}

__global__ void spmv_csr(float *dst, float *val, int *col_idx, int *row_ptr, float *x, int nrows) {
    int row = blockIdx.x * blockDim.x + threadIdx.x;
    float sum = 0.0f;
    for (int j = row_ptr[row]; j < row_ptr[row + 1]; j++) {
        sum += val[j] * x[col_idx[j]];
    }
#pragma nvm lpcuda_checksum("+", checksumSPMV, blockIdx.x)
    dst[row] = sum;
}
