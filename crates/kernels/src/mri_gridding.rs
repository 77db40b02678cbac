//! MRI-GRIDDING — interpolation of scattered k-space samples onto a
//! regular grid, from Parboil. Instruction-throughput bound; 65 536 thread
//! blocks at paper scale (the second-largest launch in the suite).
//!
//! The Parboil original *scatters* each sample into nearby grid cells with
//! atomics — not per-block recoverable. We use the standard gather
//! restructuring: samples are pre-binned (host side, like the input
//! pipeline would), and each thread owns a grid **cell**, summing the
//! kernel-weighted contributions of samples in its 3×3 bin neighbourhood.
//! Blocks are then independent and idempotent, as §IV-A requires.

use crate::common::{self, rng};
use crate::workload::{Scale, Workload};
use gpu_lp::checksum::read_back_images;
use gpu_lp::{LpBlockSession, LpKernel, LpRuntime, Recoverable, Region};
use nvm::{Addr, PersistMemory};
use rand::Rng;
use simt::{BlockCtx, LaunchConfig};

const THREADS: u32 = 16; // cells per block (the paper's launch uses many small blocks)
const RADIUS: f32 = 1.0; // interpolation kernel radius, in cell units

/// Gridding by gather: one grid cell per thread, CSR-binned samples.
#[derive(Debug)]
pub struct MriGridding {
    dim: usize, // grid is dim × dim cells
    samples: usize,
    seed: u64,
    cell_start: Addr, // CSR offsets per bin (dim² + 1 entries)
    sx: Addr,
    sy: Addr,
    sval: Addr,
    out: Addr,
    host_cell_start: Vec<u32>,
    host_sx: Vec<f32>,
    host_sy: Vec<f32>,
    host_sval: Vec<f32>,
}

impl MriGridding {
    /// Creates the workload at the given scale. `setup` must follow.
    pub fn new(scale: Scale, seed: u64) -> Self {
        let (dim, samples) = match scale {
            Scale::Test => (32, 256),        // 64 blocks
            Scale::Bench => (256, 16_384),   // 4 096 blocks
            Scale::Paper => (1024, 262_144), // 65 536 blocks (Table III)
        };
        Self {
            dim,
            samples,
            seed,
            cell_start: Addr::NULL,
            sx: Addr::NULL,
            sy: Addr::NULL,
            sval: Addr::NULL,
            out: Addr::NULL,
            host_cell_start: Vec::new(),
            host_sx: Vec::new(),
            host_sy: Vec::new(),
            host_sval: Vec::new(),
        }
    }

    fn cells(&self) -> usize {
        self.dim * self.dim
    }

    fn weight(d2: f32) -> f32 {
        // Truncated quadratic kernel: w = 1 - d²/r² inside the radius.
        let w = 1.0 - d2 / (RADIUS * RADIUS);
        if w > 0.0 {
            w
        } else {
            0.0
        }
    }

    fn cell_value(&self, cell: usize) -> f32 {
        let d = self.dim;
        let (cx, cy) = ((cell % d) as i64, (cell / d) as i64);
        let centre = (cx as f32 + 0.5, cy as f32 + 0.5);
        let mut acc = 0.0f32;
        for by in (cy - 1).max(0)..=(cy + 1).min(d as i64 - 1) {
            for bx in (cx - 1).max(0)..=(cx + 1).min(d as i64 - 1) {
                let bin = (by * d as i64 + bx) as usize;
                let (lo, hi) = (
                    self.host_cell_start[bin] as usize,
                    self.host_cell_start[bin + 1] as usize,
                );
                for s in lo..hi {
                    let dx = self.host_sx[s] - centre.0;
                    let dy = self.host_sy[s] - centre.1;
                    acc += Self::weight(dx * dx + dy * dy) * self.host_sval[s];
                }
            }
        }
        acc
    }

    fn reference(&self) -> Vec<f32> {
        (0..self.cells()).map(|c| self.cell_value(c)).collect()
    }
}

impl Workload for MriGridding {
    fn setup(&mut self, mem: &mut PersistMemory) {
        let mut r = rng(self.seed);
        let d = self.dim;
        // Random samples in grid coordinates, then CSR-binned by cell.
        let mut per_bin: Vec<Vec<(f32, f32, f32)>> = vec![Vec::new(); d * d];
        for _ in 0..self.samples {
            let x = r.gen_range(0.0..d as f32);
            let y = r.gen_range(0.0..d as f32);
            let v = r.gen_range(-1.0..1.0);
            let bin = (y as usize).min(d - 1) * d + (x as usize).min(d - 1);
            per_bin[bin].push((x, y, v));
        }
        let mut cell_start = Vec::with_capacity(d * d + 1);
        let (mut sx, mut sy, mut sval) = (Vec::new(), Vec::new(), Vec::new());
        cell_start.push(0u32);
        for bin in per_bin {
            for (x, y, v) in bin {
                sx.push(x);
                sy.push(y);
                sval.push(v);
            }
            cell_start.push(sx.len() as u32);
        }
        self.cell_start = common::upload_u32s(mem, &cell_start);
        self.sx = common::upload_f32s(mem, &sx);
        self.sy = common::upload_f32s(mem, &sy);
        self.sval = common::upload_f32s(mem, &sval);
        self.out = common::alloc_f32s(mem, self.cells() as u64);
        self.host_cell_start = cell_start;
        self.host_sx = sx;
        self.host_sy = sy;
        self.host_sval = sval;
        mem.flush_all();
    }

    fn launch_config(&self) -> LaunchConfig {
        LaunchConfig::linear(self.cells() as u64, THREADS)
    }

    fn kernel<'a>(&'a self, lp: Option<&'a LpRuntime>) -> Box<dyn Recoverable + 'a> {
        Box::new(LpKernel::new(self, lp))
    }

    fn payload_bytes(&self) -> u64 {
        self.cells() as u64 * 4
    }

    fn verify(&self, mem: &mut PersistMemory) -> bool {
        let got = common::download_f32s(mem, self.out, self.cells() as u64);
        common::slices_match(&got, &self.reference(), 1e-3).is_ok()
    }
}

impl Region for MriGridding {
    fn name(&self) -> &str {
        "mri-gridding"
    }

    fn config(&self) -> LaunchConfig {
        self.launch_config()
    }

    fn run_region(&self, ctx: &mut BlockCtx<'_>, lp: &mut LpBlockSession<'_>) {
        let d = self.dim as i64;
        for t in 0..ctx.threads_per_block() {
            ctx.set_active_thread(t);
            let cell = ctx.global_thread_id(t);
            if cell >= self.cells() as u64 {
                continue;
            }
            let (cx, cy) = (
                (cell % self.dim as u64) as i64,
                (cell / self.dim as u64) as i64,
            );
            let centre = (cx as f32 + 0.5, cy as f32 + 0.5);
            let mut acc = 0.0f32;
            for by in (cy - 1).max(0)..=(cy + 1).min(d - 1) {
                for bx in (cx - 1).max(0)..=(cx + 1).min(d - 1) {
                    let bin = (by * d + bx) as u64;
                    let lo = ctx.load_u32(self.cell_start.index(bin, 4)) as u64;
                    let hi = ctx.load_u32(self.cell_start.index(bin + 1, 4)) as u64;
                    for s in lo..hi {
                        let sx = ctx.load_f32(self.sx.index(s, 4));
                        let sy = ctx.load_f32(self.sy.index(s, 4));
                        let sv = ctx.load_f32(self.sval.index(s, 4));
                        let dx = sx - centre.0;
                        let dy = sy - centre.1;
                        acc += MriGridding::weight(dx * dx + dy * dy) * sv;
                        // Kaiser–Bessel-class window evaluation: the real
                        // gridding kernel is arithmetic-heavy (Table I
                        // classifies MRI-GRIDDING as instruction-throughput
                        // bound).
                        ctx.charge_alu(20);
                    }
                }
            }
            lp.store_f32(ctx, t, self.out.index(cell, 4), acc);
        }
    }

    fn region_images(&self, mem: &mut PersistMemory, block: u64) -> Vec<u64> {
        let tpb = self.config().threads_per_block();
        let first = block * tpb;
        let cells = tpb.min((self.cells() as u64).saturating_sub(first));
        let mut images = Vec::with_capacity(cells as usize);
        read_back_images::<1, 4>(mem, [self.out.index(first, 4)], cells, &mut images);
        images
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weight_kernel_shape() {
        assert_eq!(MriGridding::weight(0.0), 1.0);
        assert_eq!(MriGridding::weight(RADIUS * RADIUS), 0.0);
        assert_eq!(MriGridding::weight(4.0), 0.0);
        assert!(MriGridding::weight(0.25) > 0.5);
    }

    #[test]
    fn gridding_is_second_largest_launch() {
        let g = MriGridding::new(Scale::Bench, 0)
            .launch_config()
            .num_blocks();
        assert!(g >= 4096);
    }
}
