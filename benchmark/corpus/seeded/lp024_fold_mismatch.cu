// Seeded bug, two shapes of LP024 (fold byte-claim ≠ final bytes):
//
//  1. a *stale fold* — `bal[i]` is folded and then provably rewritten
//     without a fold, so the checksum keeps the first value while
//     recovery recomputes from the second: validation false-fails even
//     without a crash;
//  2. a *dangling fold* — the second pragma attaches to no store (the
//     next statement is a barrier), so it claims bytes nothing writes.
#pragma nvm lpcuda_init(tab, n, 1)
__global__ void ledger(float *bal, float *tmp) {
    int i = blockIdx.x;
#pragma nvm lpcuda_checksum("+", tab, blockIdx.x)
    bal[i] = 1.0f;
    bal[i] = 2.0f;
#pragma nvm lpcuda_checksum("+", tab, blockIdx.x)
    __syncthreads();
    tmp[i] = 3.0f;
}
