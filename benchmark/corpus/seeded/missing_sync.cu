/* Seeded bug, DYNAMIC-ONLY: each thread writes tile[threadIdx.x] and
 * then reads tile[255 - threadIdx.x] with no barrier in between — a
 * shared-memory race the sanitizer's shared-race pass witnesses at run
 * time. The static rules have no shared-memory happens-before model
 * (shared-array element writes are opaque `Other` nodes), so this
 * source must lint to ZERO findings; the differential test documents
 * the gap. */
__global__ void reverse_stencil(float *out, float *in, int n) {
    __shared__ float tile[256];
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    tile[threadIdx.x] = in[i];
    out[i] = tile[255 - threadIdx.x];
}
