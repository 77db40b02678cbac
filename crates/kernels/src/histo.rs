//! HISTO — saturating histogram, from Parboil. Bandwidth bound; only 42
//! thread blocks at paper scale (the smallest launch in the suite).
//!
//! The Parboil original scatters into one shared histogram with atomics,
//! which is neither associative nor idempotent per block. Following §IV-A's
//! requirement that LP regions be independently recoverable, we privatise:
//! each block builds its chunk's histogram in shared memory and publishes a
//! *block-private*, per-block-saturated partial; partials are summed on the
//! host (or by a trivial gather kernel). Re-executing any block reproduces
//! its partial exactly.

use crate::common::{self, random_u32s};
use crate::workload::{Scale, Workload};
use gpu_lp::checksum::read_back_images;
use gpu_lp::{LpBlockSession, LpKernel, LpRuntime, Recoverable, Region};
use nvm::{Addr, PersistMemory};
use simt::{BlockCtx, LaunchConfig};

const BINS: usize = 256;
const THREADS: u32 = 256;
/// Per-block saturation cap ("saturating histogram").
const SAT: u32 = 255;

/// Saturating histogram with block-private partials.
#[derive(Debug)]
pub struct Histo {
    blocks: u64,
    elems_per_thread: usize,
    seed: u64,
    input: Addr,
    partials: Addr,
    host_input: Vec<u32>,
}

impl Histo {
    /// Creates the workload at the given scale. `setup` must follow.
    pub fn new(scale: Scale, seed: u64) -> Self {
        let (blocks, elems_per_thread) = match scale {
            Scale::Test => (8, 8),
            Scale::Bench | Scale::Paper => (42, 48), // Table III block count
        };
        Self {
            blocks,
            elems_per_thread,
            seed,
            input: Addr::NULL,
            partials: Addr::NULL,
            host_input: Vec::new(),
        }
    }

    fn total_elems(&self) -> usize {
        self.blocks as usize * THREADS as usize * self.elems_per_thread
    }

    /// Per-block saturated partial histograms (the kernel's exact output).
    fn reference_partials(&self) -> Vec<u32> {
        let chunk = THREADS as usize * self.elems_per_thread;
        let mut out = vec![0u32; self.blocks as usize * BINS];
        for b in 0..self.blocks as usize {
            let mut counts = vec![0u32; BINS];
            for &v in &self.host_input[b * chunk..(b + 1) * chunk] {
                counts[v as usize] += 1;
            }
            for (bin, &c) in counts.iter().enumerate() {
                out[b * BINS + bin] = c.min(SAT);
            }
        }
        out
    }
}

impl Workload for Histo {
    fn setup(&mut self, mem: &mut PersistMemory) {
        self.host_input = random_u32s(self.seed, self.total_elems(), BINS as u32);
        self.input = common::upload_u32s(mem, &self.host_input);
        self.partials = common::alloc_u32s(mem, self.blocks * BINS as u64);
        mem.flush_all();
    }

    fn launch_config(&self) -> LaunchConfig {
        LaunchConfig {
            grid: simt::Dim3::x(self.blocks as u32),
            block: simt::Dim3::x(THREADS),
        }
    }

    fn kernel<'a>(&'a self, lp: Option<&'a LpRuntime>) -> Box<dyn Recoverable + 'a> {
        Box::new(LpKernel::new(self, lp))
    }

    fn payload_bytes(&self) -> u64 {
        self.blocks * BINS as u64 * 4
    }

    fn verify(&self, mem: &mut PersistMemory) -> bool {
        let got = common::download_u32s(mem, self.partials, self.blocks * BINS as u64);
        got == self.reference_partials()
    }
}

impl Region for Histo {
    fn name(&self) -> &str {
        "histo"
    }

    fn config(&self) -> LaunchConfig {
        self.launch_config()
    }

    fn run_region(&self, ctx: &mut BlockCtx<'_>, lp: &mut LpBlockSession<'_>) {
        let tpb = ctx.threads_per_block();
        let b = ctx.block_id();
        let chunk = tpb * self.elems_per_thread as u64;

        // Shared-memory histogram (one word per bin), cooperatively zeroed.
        let bins = ctx.shared_alloc(BINS);
        // Each thread walks its strided share of the block's chunk and
        // bumps shared bins with shared-memory atomics, as on real
        // hardware (threads of one block hit the same bins concurrently).
        for t in 0..tpb {
            ctx.set_active_thread(t);
            for e in 0..self.elems_per_thread as u64 {
                let idx = b * chunk + e * tpb + t;
                let v = ctx.load_u32(self.input.index(idx, 4)) as usize;
                ctx.shm_atomic_add(bins, v, 1);
                ctx.charge_alu(1);
            }
        }
        ctx.sync_threads();

        // Publish the saturated block-private partial: thread t owns bin t.
        for t in 0..tpb {
            ctx.set_active_thread(t);
            let bin = t as usize;
            if bin < BINS {
                let count = ctx.shm_read(bins, bin) as u32;
                let sat = count.min(SAT);
                ctx.charge_alu(1);
                lp.store_u32(
                    ctx,
                    t,
                    self.partials.index(b * BINS as u64 + bin as u64, 4),
                    sat,
                );
            }
        }
    }

    fn region_images(&self, mem: &mut PersistMemory, block: u64) -> Vec<u64> {
        let mut images = Vec::with_capacity(BINS);
        let start = self.partials.index(block * BINS as u64, 4);
        read_back_images::<1, 4>(mem, [start], BINS as u64, &mut images);
        images
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn saturation_applies() {
        // With a single bin value repeated, partials must cap at SAT.
        let mut w = Histo::new(Scale::Test, 5);
        w.host_input = vec![7u32; w.total_elems()];
        let r = w.reference_partials();
        assert_eq!(r[7], SAT);
        assert_eq!(r[8], 0);
    }

    #[test]
    fn bench_scale_matches_paper_block_count() {
        let w = Histo::new(Scale::Bench, 0);
        // Table III.
        assert_eq!(w.launch_config().num_blocks(), 42);
    }
}
