/* Seeded bug: the kernel pins `lpcuda_mode(lp)` but contains no
 * `lpcuda_checksum` fold anywhere — the LP contract's durability point
 * (checksum validation at recovery) can never execute, so the pin is not
 * merely slow but unsound (LP021). */
#include <cuda_runtime.h>

__global__ void unguarded(float *out) {
#pragma nvm lpcuda_mode(lp)
    out[blockIdx.x] = 1.0f;
}

int main() {
    unguarded<<<64, 1>>>(0);
    return 0;
}
