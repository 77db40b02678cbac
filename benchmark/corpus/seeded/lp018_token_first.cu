/* Seeded bug: an eager-pinned kernel publishes its commit token before
 * the data store drains — the fence lands *after* the token. A crash in
 * between leaves a durable token vouching for data the NVM never
 * received, inverting the eager contract's ordering (LP018). */
#include <cuda_runtime.h>

__global__ void publish(float *data, int *commit_flags) {
#pragma nvm lpcuda_mode(eager)
    int i = blockIdx.x;
    data[i] = 42.0f;
    commit_flags[i] = 1;
    __threadfence();
}

int main() {
    publish<<<64, 1>>>(0, 0);
    return 0;
}
