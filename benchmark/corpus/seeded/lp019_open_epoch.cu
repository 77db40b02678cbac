/* Seeded bug: an epoch-pinned kernel stores on every loop iteration but
 * only fences after the loop. The epoch stays open across the back edge,
 * so all iterations pile into one ever-growing epoch and a crash in
 * iteration n loses all n of them (LP019). */
#include <cuda_runtime.h>

__global__ void accumulate(float *out, int n) {
#pragma nvm lpcuda_mode(epoch)
    for (int j = 0; j < n; j++) {
        out[blockIdx.x * n + j] = 1.0f;
    }
    __threadfence();
}

int main() {
    accumulate<<<64, 1>>>(0, 64);
    return 0;
}
