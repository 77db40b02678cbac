// Seeded: a persist-mode pin that fights the kernel's write profile.
//
// `scale_rows` stores through `out` on every loop iteration; pinning
// `eager` makes each of those stores a synchronous flush, which the lazy
// checksum modes amortise to one table write per region. LP015 flags the
// pin as provably dominated and suggests letting the adaptive policy
// engine choose.
#include <cuda_runtime.h>

#pragma nvm lpcuda_init(tab, grid.x, 1)

__global__ void scale_rows(float *out, float *in, int n) {
    int row = blockIdx.x;
#pragma nvm lpcuda_mode(eager)
    for (int j = 0; j < n; j++) {
#pragma nvm lpcuda_checksum("+", tab, blockIdx.x)
        out[row * n + j] = in[row * n + j] * 2.0f;
    }
}

int main() {
    scale_rows<<<64, 1>>>(0, 0, 64);
    return 0;
}
