/* MEGA-KV batched key-value kernels: insert / search / delete, one
 * thread per operation. Table slots are hash-derived (opaque indices,
 * blockIdx-tainted through the key load); the search result array is a
 * dense per-op store with a threadIdx term. All three commit under one
 * fold per block. Lints clean. */
void launch_megakv(unsigned long *table, unsigned long *result, unsigned *keys, int nops) {
#pragma nvm lpcuda_init(checksumKV, nblocks, 1)
    kv_insert<<<nblocks, 256>>>(table, keys, nops);
    kv_search<<<nblocks, 256>>>(table, result, keys, nops);
    kv_delete<<<nblocks, 256>>>(table, keys, nops);
}

__global__ void kv_insert(unsigned long *table, unsigned *keys, int nops) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    unsigned key = keys[i];
    int slot = (int)(key * 2654435761u) % 16384;
#pragma nvm lpcuda_checksum("+", checksumKV, blockIdx.x)
    table[slot] = key;
}

__global__ void kv_search(unsigned long *table, unsigned long *result, unsigned *keys, int nops) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    unsigned key = keys[i];
    int slot = (int)(key * 2654435761u) % 16384;
    unsigned long entry = table[slot];
#pragma nvm lpcuda_checksum("+", checksumKV, blockIdx.x)
    result[i] = entry;
}

__global__ void kv_delete(unsigned long *table, unsigned *keys, int nops) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    unsigned key = keys[i];
    int slot = (int)(key * 2654435761u) % 16384;
#pragma nvm lpcuda_checksum("+", checksumKV, blockIdx.x)
    table[slot] = 0;
}
