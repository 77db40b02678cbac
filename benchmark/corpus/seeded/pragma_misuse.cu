/* Seeded bugs: one of every pragma-level mistake, in an order that
 * exercises diagnostic sorting — duplicate init (LP003), orphaned init
 * (LP004), misspelled directive (LP001), checksum outside any kernel
 * (LP002), checksum into an undeclared table (LP005). */
#pragma nvm lpcuda_init(tabA, n, 1)
#pragma nvm lpcuda_init(tabA, n, 1)
#pragma nvm lpcuda_init(orphan, n, 1)
#pragma nvm lpcuda_chekcsum("+", tabA, k)
#pragma nvm lpcuda_checksum("+", tabA, k)

__global__ void k(float *out) {
#pragma nvm lpcuda_checksum("+", ghost, blockIdx.x)
    out[blockIdx.x] = 1.0f;
}
