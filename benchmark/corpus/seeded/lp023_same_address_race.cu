// Seeded bug: every thread of a block stores its own thread-dependent
// value to the same element (`winner[blockIdx.x]` has no threadIdx term),
// so the final bytes depend on warp scheduling and a crash can persist a
// torn line — LP023, the static twin of the sanitizer's global-conflict
// pass. The footprint proof: the store's affine form is exactly
// `blockIdx.x`, identical for every thread, while the stored value is
// threadIdx-tainted.
__global__ void pick_winner(int *winner, const int *score) {
    int tid = threadIdx.x;
    winner[blockIdx.x] = tid;
}
