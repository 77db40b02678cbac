//! SPMV — sparse matrix–dense vector multiplication (CSR), from Parboil.
//! Bandwidth bound; 1 536 thread blocks at paper scale (our Bench scale
//! matches it exactly).

use crate::common::{self, rng};
use crate::workload::{Scale, Workload};
use gpu_lp::checksum::read_back_images;
use gpu_lp::{LpBlockSession, LpKernel, LpRuntime, Recoverable, Region};
use nvm::{Addr, PersistMemory};
use rand::Rng;
use simt::{BlockCtx, LaunchConfig};

const THREADS: u32 = 64;

/// y = M·x for a CSR matrix with ~8 non-zeros per row; one thread per row.
#[derive(Debug)]
pub struct Spmv {
    rows: usize,
    nnz_per_row: usize,
    seed: u64,
    row_ptr: Addr,
    col_idx: Addr,
    vals: Addr,
    x: Addr,
    y: Addr,
    host_row_ptr: Vec<u32>,
    host_col_idx: Vec<u32>,
    host_vals: Vec<f32>,
    host_x: Vec<f32>,
}

impl Spmv {
    /// Creates the workload at the given scale. `setup` must follow.
    pub fn new(scale: Scale, seed: u64) -> Self {
        let rows = match scale {
            Scale::Test => 1024,                   // 16 blocks
            Scale::Bench | Scale::Paper => 98_304, // 1 536 blocks (Table III)
        };
        Self {
            rows,
            nnz_per_row: 8,
            seed,
            row_ptr: Addr::NULL,
            col_idx: Addr::NULL,
            vals: Addr::NULL,
            x: Addr::NULL,
            y: Addr::NULL,
            host_row_ptr: Vec::new(),
            host_col_idx: Vec::new(),
            host_vals: Vec::new(),
            host_x: Vec::new(),
        }
    }

    fn reference(&self) -> Vec<f32> {
        (0..self.rows)
            .map(|r| {
                let (lo, hi) = (
                    self.host_row_ptr[r] as usize,
                    self.host_row_ptr[r + 1] as usize,
                );
                let mut acc = 0.0f32;
                for k in lo..hi {
                    acc += self.host_vals[k] * self.host_x[self.host_col_idx[k] as usize];
                }
                acc
            })
            .collect()
    }
}

impl Workload for Spmv {
    fn setup(&mut self, mem: &mut PersistMemory) {
        let mut r = rng(self.seed);
        let rows = self.rows;
        // Variable row lengths around the mean keep the access pattern
        // irregular (the Parboil matrix is unstructured).
        let mut row_ptr = Vec::with_capacity(rows + 1);
        row_ptr.push(0u32);
        for _ in 0..rows {
            let len = r.gen_range(self.nnz_per_row / 2..=self.nnz_per_row * 3 / 2) as u32;
            row_ptr.push(row_ptr.last().unwrap() + len);
        }
        let nnz = *row_ptr.last().unwrap() as usize;
        let col_idx: Vec<u32> = (0..nnz).map(|_| r.gen_range(0..rows as u32)).collect();
        let vals: Vec<f32> = (0..nnz).map(|_| r.gen_range(-1.0..1.0)).collect();
        let x: Vec<f32> = (0..rows).map(|_| r.gen_range(-1.0..1.0)).collect();

        self.row_ptr = common::upload_u32s(mem, &row_ptr);
        self.col_idx = common::upload_u32s(mem, &col_idx);
        self.vals = common::upload_f32s(mem, &vals);
        self.x = common::upload_f32s(mem, &x);
        self.y = common::alloc_f32s(mem, rows as u64);
        self.host_row_ptr = row_ptr;
        self.host_col_idx = col_idx;
        self.host_vals = vals;
        self.host_x = x;
        mem.flush_all();
    }

    fn launch_config(&self) -> LaunchConfig {
        LaunchConfig::linear(self.rows as u64, THREADS)
    }

    fn kernel<'a>(&'a self, lp: Option<&'a LpRuntime>) -> Box<dyn Recoverable + 'a> {
        Box::new(LpKernel::new(self, lp))
    }

    fn payload_bytes(&self) -> u64 {
        (self.rows * 4) as u64
    }

    fn verify(&self, mem: &mut PersistMemory) -> bool {
        let got = common::download_f32s(mem, self.y, self.rows as u64);
        common::slices_match(&got, &self.reference(), 1e-3).is_ok()
    }
}

impl Region for Spmv {
    fn name(&self) -> &str {
        "spmv"
    }

    fn config(&self) -> LaunchConfig {
        self.launch_config()
    }

    fn run_region(&self, ctx: &mut BlockCtx<'_>, lp: &mut LpBlockSession<'_>) {
        for t in 0..ctx.threads_per_block() {
            ctx.set_active_thread(t);
            let row = ctx.global_thread_id(t);
            if row >= self.rows as u64 {
                continue;
            }
            let lo = ctx.load_u32(self.row_ptr.index(row, 4)) as u64;
            let hi = ctx.load_u32(self.row_ptr.index(row + 1, 4)) as u64;
            let mut acc = 0.0f32;
            for k in lo..hi {
                let col = ctx.load_u32(self.col_idx.index(k, 4)) as u64;
                let v = ctx.load_f32(self.vals.index(k, 4));
                let xv = ctx.load_f32(self.x.index(col, 4));
                acc += v * xv;
                ctx.charge_alu(2);
            }
            lp.store_f32(ctx, t, self.y.index(row, 4), acc);
        }
    }

    fn region_images(&self, mem: &mut PersistMemory, block: u64) -> Vec<u64> {
        let tpb = self.config().threads_per_block();
        let first = block * tpb;
        let rows = tpb.min((self.rows as u64).saturating_sub(first));
        let mut images = Vec::with_capacity(rows as usize);
        read_back_images::<1, 4>(mem, [self.y.index(first, 4)], rows, &mut images);
        images
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_scale_matches_paper_block_count() {
        let w = Spmv::new(Scale::Bench, 0);
        // Table III.
        assert_eq!(w.launch_config().num_blocks(), 1_536);
    }
}
