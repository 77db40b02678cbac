/* Seeded bug: the kernel folds its own store, but also calls a
 * __device__ helper that writes through the same protected buffer.
 * `lpcuda_checksum` only covers the store lexically following it in the
 * kernel body, so the helper's store escapes the fold — a crash that
 * loses it still validates (LP016, the interprocedural LP011). */
#include <cuda_runtime.h>

#pragma nvm lpcuda_init(tab, grid.x, 1)

__device__ void append_tail(float *dst, int i, float v) {
    dst[i] = v;
}

__global__ void scatter(float *out, int n) {
    int i = blockIdx.x;
#pragma nvm lpcuda_checksum("+", tab, blockIdx.x)
    out[i] = 1.0f;
    append_tail(out, n + i, 2.0f);
}

int main() {
    scatter<<<64, 1>>>(0, 64);
    return 0;
}
