//! CUTCP — distance-cutoff Coulombic potential on a lattice, from Parboil.
//! Instruction-throughput bound; 128 thread blocks at paper scale
//! (Bench matches it exactly).
//!
//! Each thread owns one lattice point and accumulates `q / r` over all
//! atoms within the cutoff radius; atoms are staged through shared memory
//! in chunks.

use crate::common::{self, random_f32s};
use crate::workload::{Scale, Workload};
use gpu_lp::checksum::read_back_images;
use gpu_lp::{LpBlockSession, LpKernel, LpRuntime, Recoverable, Region};
use nvm::{Addr, PersistMemory};
use simt::{BlockCtx, LaunchConfig};

const THREADS: u32 = 128;
const CHUNK: usize = 16;
const CUTOFF: f32 = 0.35;

/// Cutoff Coulombic potential: one lattice point per thread.
#[derive(Debug)]
pub struct Cutcp {
    blocks: u64,
    atoms: usize,
    lattice_dim: usize, // points along one edge of the square lattice
    seed: u64,
    atom_xyzq: Addr,
    out: Addr,
    host_atoms: Vec<f32>, // interleaved x, y, z, q
}

impl Cutcp {
    /// Creates the workload at the given scale. `setup` must follow.
    pub fn new(scale: Scale, seed: u64) -> Self {
        let (blocks, atoms) = match scale {
            Scale::Test => (8, 16),
            Scale::Bench | Scale::Paper => (128, 32), // Table III count
        };
        // Lattice: blocks × THREADS points arranged in a square.
        let points = blocks * THREADS as u64;
        let lattice_dim = (points as f64).sqrt() as usize;
        Self {
            blocks,
            atoms,
            lattice_dim,
            seed,
            atom_xyzq: Addr::NULL,
            out: Addr::NULL,
            host_atoms: Vec::new(),
        }
    }

    fn points(&self) -> usize {
        self.blocks as usize * THREADS as usize
    }

    /// Lattice coordinates of point `p` in the unit square.
    fn coord(&self, p: usize) -> (f32, f32) {
        let d = self.lattice_dim;
        let x = (p % d) as f32 / d as f32;
        let y = (p / d) as f32 / d as f32;
        (x, y)
    }

    fn potential(&self, p: usize) -> f32 {
        let (px, py) = self.coord(p);
        let mut acc = 0.0f32;
        for a in 0..self.atoms {
            let ax = self.host_atoms[4 * a];
            let ay = self.host_atoms[4 * a + 1];
            let az = self.host_atoms[4 * a + 2];
            let q = self.host_atoms[4 * a + 3];
            let d2 = (ax - px) * (ax - px) + (ay - py) * (ay - py) + az * az;
            if d2 < CUTOFF * CUTOFF {
                acc += q / d2.sqrt().max(1e-3);
            }
        }
        acc
    }

    fn reference(&self) -> Vec<f32> {
        (0..self.points()).map(|p| self.potential(p)).collect()
    }
}

impl Workload for Cutcp {
    fn setup(&mut self, mem: &mut PersistMemory) {
        let mut atoms = Vec::with_capacity(4 * self.atoms);
        let xs = random_f32s(self.seed, self.atoms, 0.0, 1.0);
        let ys = random_f32s(self.seed ^ 1, self.atoms, 0.0, 1.0);
        let zs = random_f32s(self.seed ^ 2, self.atoms, 0.0, 0.1);
        let qs = random_f32s(self.seed ^ 3, self.atoms, -1.0, 1.0);
        for a in 0..self.atoms {
            atoms.extend_from_slice(&[xs[a], ys[a], zs[a], qs[a]]);
        }
        self.atom_xyzq = common::upload_f32s(mem, &atoms);
        self.out = common::alloc_f32s(mem, self.points() as u64);
        self.host_atoms = atoms;
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
        self.points() as u64 * 4
    }

    fn verify(&self, mem: &mut PersistMemory) -> bool {
        let got = common::download_f32s(mem, self.out, self.points() as u64);
        common::slices_match(&got, &self.reference(), 1e-3).is_ok()
    }
}

impl Region for Cutcp {
    fn name(&self) -> &str {
        "cutcp"
    }

    fn config(&self) -> LaunchConfig {
        self.launch_config()
    }

    fn run_region(&self, ctx: &mut BlockCtx<'_>, lp: &mut LpBlockSession<'_>) {
        let tpb = ctx.threads_per_block();

        let sh = ctx.shared_alloc(4 * CHUNK);
        let mut acc = vec![0.0f32; tpb as usize];

        let chunks = self.atoms.div_ceil(CHUNK);
        for chunk in 0..chunks {
            let base = chunk * CHUNK;
            let in_chunk = CHUNK.min(self.atoms - base);
            // Atom s of the chunk is staged by thread s % tpb.
            ctx.stage_shm_f32(
                [self.atom_xyzq.index(4 * base as u64, 4)],
                [(sh, 0)],
                4 * in_chunk,
                4,
                0,
            );
            ctx.sync_threads();
            for t in 0..tpb {
                ctx.set_active_thread(t);
                let p = ctx.global_thread_id(t) as usize;
                let (px, py) = self.coord(p);
                let mut a = acc[t as usize];
                for s in 0..in_chunk {
                    let [ax, ay, az, q] = ctx.shm_read_f32s(sh, 4 * s);
                    let d2 = (ax - px) * (ax - px) + (ay - py) * (ay - py) + az * az;
                    ctx.charge_alu(8);
                    if d2 < CUTOFF * CUTOFF {
                        a += q / d2.sqrt().max(1e-3);
                        ctx.charge_alu(6); // rsqrt + divide + add
                    }
                }
                acc[t as usize] = a;
            }
            ctx.sync_threads();
        }

        for t in 0..tpb {
            ctx.set_active_thread(t);
            let p = ctx.global_thread_id(t);
            lp.store_f32(ctx, t, self.out.index(p, 4), acc[t as usize]);
        }
    }

    fn region_images(&self, mem: &mut PersistMemory, block: u64) -> Vec<u64> {
        let tpb = self.config().threads_per_block();
        let mut images = Vec::with_capacity(tpb as usize);
        read_back_images::<1, 4>(mem, [self.out.index(block * tpb, 4)], tpb, &mut images);
        images
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cutoff_excludes_distant_atoms() {
        let mut w = Cutcp::new(Scale::Test, 5);
        // One atom far outside the cutoff of point 0 (corner 0,0).
        w.host_atoms = vec![0.9, 0.9, 0.0, 5.0];
        w.atoms = 1;
        assert_eq!(w.potential(0), 0.0);
    }

    #[test]
    fn bench_scale_matches_paper_block_count() {
        let w = Cutcp::new(Scale::Bench, 0);
        // Table III.
        assert_eq!(w.launch_config().num_blocks(), 128);
    }
}
