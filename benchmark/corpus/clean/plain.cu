/* A pragma-free CUDA source: the lint pass must treat it exactly like
 * any other well-formed program and report nothing — the portability
 * property the paper leans on (old compilers ignore unknown pragmas,
 * unannotated sources are untouched). */
__global__ void saxpy(float *y, float *x, float a, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) {
        y[i] = a * x[i] + y[i];
    }
}

int main(void) {
    saxpy<<<grid, block>>>(y, x, 2.0f, n);
    return 0;
}
