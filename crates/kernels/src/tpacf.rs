//! TPACF — two-point angular correlation function, from Parboil.
//! Instruction-throughput bound; 512 thread blocks at paper scale.
//!
//! Each thread owns one sky point and bins the angular separation (via the
//! dot product of unit vectors) against a sliding window of other points.
//! Histograms are block-private partials (gather-style, idempotent), summed
//! on the host — same privatisation argument as HISTO.

use crate::common::{self, rng};
use crate::workload::{Scale, Workload};
use gpu_lp::checksum::read_back_images;
use gpu_lp::{LpBlockSession, Region};
use nvm::{Addr, PersistMemory};
use rand::Rng;
use simt::{BlockCtx, LaunchConfig};

const THREADS: u32 = 64;
const BINS: usize = 32;

/// Angular-correlation histogram with block-private partials.
#[derive(Debug)]
pub struct Tpacf {
    blocks: u64,
    window: usize,
    seed: u64,
    xyz: Addr, // interleaved x,y,z unit vectors
    partials: Addr,
    host_xyz: Vec<f32>,
}

impl Tpacf {
    /// Creates the workload at the given scale. `setup` must follow.
    pub fn new(scale: Scale, seed: u64) -> Self {
        let (blocks, window) = match scale {
            Scale::Test => (8, 8),
            Scale::Bench | Scale::Paper => (512, 16), // Table III block count
        };
        Self {
            blocks,
            window,
            seed,
            xyz: Addr::NULL,
            partials: Addr::NULL,
            host_xyz: Vec::new(),
        }
    }

    fn points(&self) -> usize {
        self.blocks as usize * THREADS as usize
    }

    fn bin_of(dot: f32) -> usize {
        // cos(angle) in [-1, 1] mapped over BINS bins.
        let t = ((dot.clamp(-1.0, 1.0) + 1.0) / 2.0 * (BINS as f32 - 1e-3)) as usize;
        t.min(BINS - 1)
    }

    fn reference_partials(&self) -> Vec<u32> {
        let m = self.points();
        let mut out = vec![0u32; self.blocks as usize * BINS];
        for b in 0..self.blocks as usize {
            for t in 0..THREADS as usize {
                let i = b * THREADS as usize + t;
                for wj in 1..=self.window {
                    let j = (i + wj) % m;
                    let dot = self.host_xyz[3 * i] * self.host_xyz[3 * j]
                        + self.host_xyz[3 * i + 1] * self.host_xyz[3 * j + 1]
                        + self.host_xyz[3 * i + 2] * self.host_xyz[3 * j + 2];
                    out[b * BINS + Self::bin_of(dot)] += 1;
                }
            }
        }
        out
    }
}

impl Workload for Tpacf {
    fn setup(&mut self, mem: &mut PersistMemory) {
        let mut r = rng(self.seed);
        let m = self.points();
        let mut xyz = Vec::with_capacity(3 * m);
        for _ in 0..m {
            // Random unit vectors (normalised Gaussian-ish via rejection).
            let (mut x, mut y, mut z): (f32, f32, f32);
            loop {
                x = r.gen_range(-1.0..1.0);
                y = r.gen_range(-1.0..1.0);
                z = r.gen_range(-1.0..1.0);
                let n2 = x * x + y * y + z * z;
                if n2 > 1e-4 && n2 <= 1.0 {
                    let n = n2.sqrt();
                    x /= n;
                    y /= n;
                    z /= n;
                    break;
                }
            }
            xyz.extend_from_slice(&[x, y, z]);
        }
        self.xyz = common::upload_f32s(mem, &xyz);
        self.partials = common::alloc_u32s(mem, self.blocks * BINS as u64);
        self.host_xyz = xyz;
        mem.flush_all();
    }

    fn payload_bytes(&self) -> u64 {
        self.blocks * BINS as u64 * 4
    }

    fn verify(&self, mem: &mut PersistMemory) -> bool {
        let got = common::download_u32s(mem, self.partials, self.blocks * BINS as u64);
        got == self.reference_partials()
    }
}

impl Region for Tpacf {
    fn name(&self) -> &str {
        "tpacf"
    }

    fn config(&self) -> LaunchConfig {
        LaunchConfig {
            grid: simt::Dim3::x(self.blocks as u32),
            block: simt::Dim3::x(THREADS),
        }
    }

    fn run_region(&self, ctx: &mut BlockCtx<'_>, lp: &mut LpBlockSession<'_>) {
        let tpb = ctx.threads_per_block();
        let b = ctx.block_id();
        let m = self.points() as u64;

        let bins = ctx.shared_alloc(BINS);
        // Stage the block's point window into shared memory once — the
        // windows of consecutive threads overlap almost entirely, so this
        // turns TPACF into the instruction-throughput-bound kernel Table I
        // describes instead of re-streaming points from global memory.
        let span = tpb as usize + self.window;
        let pts = ctx.shared_alloc(3 * span);
        // Slot s holds point (b·tpb + s) % m, staged by thread s % tpb: one
        // contiguous stream, split where the window wraps past the last
        // point.
        let mut s = 0;
        while s < span as u64 {
            let p = (b * tpb + s) % m;
            let len = (span as u64 - s).min(m - p);
            ctx.stage_shm_f32(
                [self.xyz.index(3 * p, 4)],
                [(pts, 3 * s as usize)],
                3 * len as usize,
                3,
                s,
            );
            s += len;
        }
        ctx.sync_threads();
        for t in 0..tpb {
            ctx.set_active_thread(t);
            let ti = t as usize;
            let [xi, yi, zi] = ctx.shm_read_f32s(pts, 3 * ti);
            for wj in 1..=self.window {
                let [xj, yj, zj] = ctx.shm_read_f32s(pts, 3 * (ti + wj));
                let dot = xi * xj + yi * yj + zi * zj;
                // Dot product + arc-length binning (the real TPACF bins by
                // angular separation through a transcendental + search).
                ctx.charge_alu(16);
                let bin = Tpacf::bin_of(dot);
                // Shared-memory atomic bump, as on real hardware: threads
                // of the block hit the same bins concurrently.
                ctx.shm_atomic_add(bins, bin, 1);
                ctx.charge_alu(1);
            }
        }
        ctx.sync_threads();

        // Thread t publishes bin t of the block-private partial.
        for t in 0..tpb {
            ctx.set_active_thread(t);
            let bin = t as usize;
            if bin < BINS {
                let count = ctx.shm_read(bins, bin) as u32;
                lp.store_u32(
                    ctx,
                    t,
                    self.partials.index(b * BINS as u64 + bin as u64, 4),
                    count,
                );
            }
        }
    }

    fn region_images(&self, mem: &mut PersistMemory, block: u64, images: &mut Vec<u64>) {
        let start = self.partials.index(block * BINS as u64, 4);
        read_back_images::<1, 4>(mem, [start], BINS as u64, images);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bins_cover_range() {
        assert_eq!(Tpacf::bin_of(-1.0), 0);
        assert_eq!(Tpacf::bin_of(1.0), BINS - 1);
        assert!(Tpacf::bin_of(0.0) > 0 && Tpacf::bin_of(0.0) < BINS - 1);
    }

    #[test]
    fn bench_scale_matches_paper_block_count() {
        let w = Tpacf::new(Scale::Bench, 0);
        // Table III.
        assert_eq!(w.launch_config().num_blocks(), 512);
    }
}
