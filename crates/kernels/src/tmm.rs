//! TMM — tiled (shared-memory) matrix multiplication, the paper's running
//! example (Listings 1–2). Instruction-throughput bound; 16 384 blocks at
//! paper scale.

use crate::common::{self, random_f32s};
use crate::workload::{Scale, Workload};
use gpu_lp::checksum::read_back_images;
use gpu_lp::{LpBlockSession, Region};
use nvm::{Addr, PersistMemory};
use simt::{BlockCtx, LaunchConfig};

/// C = A × B with square tiling through shared memory.
#[derive(Debug)]
pub struct Tmm {
    n: usize,
    tile: usize,
    seed: u64,
    a: Addr,
    b: Addr,
    c: Addr,
    host_a: Vec<f32>,
    host_b: Vec<f32>,
}

impl Tmm {
    /// Creates the workload at the given scale. `setup` must follow.
    pub fn new(scale: Scale, seed: u64) -> Self {
        let (n, tile) = match scale {
            Scale::Test => (32, 4),
            Scale::Bench => (320, 8), // 1 600 blocks: keeps Table III's ordering (TMM > SPMV)
            Scale::Paper => (1024, 8), // 16 384 blocks, as in Table III
        };
        Self {
            n,
            tile,
            seed,
            a: Addr::NULL,
            b: Addr::NULL,
            c: Addr::NULL,
            host_a: Vec::new(),
            host_b: Vec::new(),
        }
    }

    /// Matrix dimension.
    pub fn n(&self) -> usize {
        self.n
    }

    fn reference(&self) -> Vec<f32> {
        let n = self.n;
        let mut c = vec![0.0f32; n * n];
        // Row updates (i-k-j): every element still accumulates its products
        // from 0.0 in ascending k, the kernel's order, so results are
        // bit-comparable (we still verify with tolerance) — and the inner
        // loop walks B and C by row, which vectorises.
        for (a_row, c_row) in self.host_a.chunks_exact(n).zip(c.chunks_exact_mut(n)) {
            for (&a, b_row) in a_row.iter().zip(self.host_b.chunks_exact(n)) {
                for (acc, &b) in c_row.iter_mut().zip(b_row) {
                    *acc += a * b;
                }
            }
        }
        c
    }

    /// The textbook dot-product form of [`Tmm::reference`] (i-j-k, reading
    /// `B` by column): the oracle the row-update loop must match bit for bit.
    #[cfg(test)]
    fn reference_by_dot_products(&self) -> Vec<f32> {
        let n = self.n;
        let mut c = vec![0.0f32; n * n];
        for i in 0..n {
            for j in 0..n {
                let mut acc = 0.0f32;
                for k in 0..n {
                    acc += self.host_a[i * n + k] * self.host_b[k * n + j];
                }
                c[i * n + j] = acc;
            }
        }
        c
    }
}

impl Workload for Tmm {
    fn setup(&mut self, mem: &mut PersistMemory) {
        let n = self.n;
        self.host_a = random_f32s(self.seed, n * n, -1.0, 1.0);
        self.host_b = random_f32s(self.seed ^ 0xB, n * n, -1.0, 1.0);
        self.a = common::upload_f32s(mem, &self.host_a);
        self.b = common::upload_f32s(mem, &self.host_b);
        self.c = common::alloc_f32s(mem, (n * n) as u64);
        mem.flush_all();
    }

    fn payload_bytes(&self) -> u64 {
        (self.n * self.n * 4) as u64
    }

    fn verify(&self, mem: &mut PersistMemory) -> bool {
        let got = common::download_f32s(mem, self.c, (self.n * self.n) as u64);
        common::slices_match(&got, &self.reference(), 1e-3).is_ok()
    }
}

impl Region for Tmm {
    fn name(&self) -> &str {
        "tmm"
    }

    fn config(&self) -> LaunchConfig {
        let tiles = (self.n / self.tile) as u32;
        LaunchConfig::grid2d(tiles, tiles, self.tile as u32, self.tile as u32)
    }

    fn run_region(&self, ctx: &mut BlockCtx<'_>, lp: &mut LpBlockSession<'_>) {
        let n = self.n;
        let tile = self.tile;
        let tpb = ctx.threads_per_block();

        let a_s = ctx.shared_alloc(tile * tile);
        let b_s = ctx.shared_alloc(tile * tile);
        let mut acc = vec![0.0f32; tpb as usize];

        let (bx, by, _) = ctx.block_idx();
        let (row0, col0) = (by as usize * tile, bx as usize * tile);
        for phase in 0..(n / tile) {
            // Load this phase's A and B tiles into shared memory: thread
            // (tx, ty) loads A[row0 + ty][phase·tile + tx] and B[phase·tile
            // + ty][col0 + tx], so each tile row is two contiguous streams.
            for ty in 0..tile {
                let a_row = (row0 + ty) * n + phase * tile;
                let b_row = (phase * tile + ty) * n + col0;
                ctx.stage_shm_f32(
                    [self.a.index(a_row as u64, 4), self.b.index(b_row as u64, 4)],
                    [(a_s, ty * tile), (b_s, ty * tile)],
                    tile,
                    1,
                    (ty * tile) as u64,
                );
            }
            ctx.sync_threads();
            // Multiply the tiles: thread (tx, ty) adds row `ty` of A's tile
            // times column `tx` of B's, a multiply and an add per element.
            ctx.shm_tile_dots_f32(a_s, b_s, tile, &mut acc);
            ctx.charge_alu(2 * tile as u64 * tpb);
            ctx.sync_threads();
        }

        // Persistent stores, LP-protected: thread t = ty·tile + tx writes
        // C[row0 + ty][col0 + tx].
        for (t, &v) in acc.iter().enumerate() {
            let (row, col) = (row0 + t / tile, col0 + t % tile);
            ctx.set_active_thread(t as u64);
            lp.store_f32(ctx, t as u64, self.c.index((row * n + col) as u64, 4), v);
        }
    }

    fn region_images(&self, mem: &mut PersistMemory, block: u64, images: &mut Vec<u64>) {
        let lc = self.config();
        let n = self.n;
        let tile = self.tile;
        let (bx, by, _) = lc.grid.unflatten(block);
        // Thread order is row-major over the tile: one scan per tile row.
        for ty in 0..tile {
            let row = by as usize * tile + ty;
            let start = self.c.index((row * n + bx as usize * tile) as u64, 4);
            read_back_images::<1, 4>(mem, [start], tile as u64, images);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_count_matches_geometry() {
        let w = Tmm::new(Scale::Test, 5);
        assert_eq!(w.launch_config().num_blocks(), 64); // (32/4)²
        assert_eq!(w.launch_config().threads_per_block(), 16);
    }

    #[test]
    fn reference_matches_the_dot_product_oracle_bit_for_bit() {
        for scale in [Scale::Test, Scale::Bench] {
            let mut w = Tmm::new(scale, 5);
            w.host_a = random_f32s(1, w.n * w.n, -1.0, 1.0);
            w.host_b = random_f32s(2, w.n * w.n, -1.0, 1.0);
            let bits = |v: Vec<f32>| v.into_iter().map(f32::to_bits).collect::<Vec<_>>();
            assert_eq!(bits(w.reference()), bits(w.reference_by_dot_products()));
        }
    }
}
