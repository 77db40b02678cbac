/* Seeded bug: the kernel body never closes, so the source does not
 * scan. The lint pass must report exactly one LP000 finding instead of
 * silently pretending the file is clean (the seed's unwrap_or_default
 * bug did the latter). */
__global__ void broken(float *out, int n) {
    out[blockIdx.x] = 1.0f;
