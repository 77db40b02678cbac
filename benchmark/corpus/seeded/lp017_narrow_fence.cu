/* Seeded bug: an epoch-pinned kernel closes its epoch with
 * __threadfence_block(). A block-scope release only drains the SM-local
 * persist buffer into the still-volatile L2-level buffer, so the store
 * never reaches the ADR domain — the epoch contract's durability point
 * needs device scope (LP017). */
#include <cuda_runtime.h>

__global__ void stamp(float *out) {
#pragma nvm lpcuda_mode(epoch)
    int i = blockIdx.x;
    out[i] = 1.0f;
    __threadfence_block();
}

int main() {
    stamp<<<64, 1>>>(0);
    return 0;
}
