/* Seeded bug: two stores on opposite arms of a thread-dependent branch
 * both reach the checksum fold after the join. Which value the table
 * entry covers depends on the branch each thread took, so recovery's
 * single-path recomputation can neither confirm nor refute it (LP020).
 * The branch stores are also individually unfolded, so LP011 fires on
 * each — the divergence hazard compounds the coverage hole. */
#include <cuda_runtime.h>

#pragma nvm lpcuda_init(tab, grid.x, 1)

__global__ void branchy(float *out, float *sum) {
    int i = blockIdx.x;
    if (threadIdx.x < 16) {
        out[i] = 1.0f;
    } else {
        out[i + 1] = 2.0f;
    }
#pragma nvm lpcuda_checksum("+", tab, blockIdx.x)
    sum[i] = 3.0f;
}

int main() {
    branchy<<<64, 32>>>(0, 0);
    return 0;
}
