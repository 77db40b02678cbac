// Seeded bug: a tiled writer whose inner loop runs one element past the
// tile (`<=` instead of `<`), so the last block's final store provably
// lands outside the declared persist region — LP022. The footprint engine
// proves max element index 64*gridDim.x against the declared bound
// 64*gridDim.x (0-based indices make them equal ⇒ out of bounds).
__global__ void tile_fill(float *out, float seed) {
#pragma nvm lpcuda_region(out, 64 * gridDim.x)
    for (int j = 0; j <= 64; j++) {
        out[blockIdx.x * 64 + j] = seed;
    }
}
