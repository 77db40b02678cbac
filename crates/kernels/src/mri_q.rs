//! MRI-Q — computation of the Q matrix for non-Cartesian MRI
//! reconstruction, from Parboil. Instruction-throughput bound; 1 024
//! thread blocks at paper scale (Bench matches it exactly).
//!
//! `Q(x) = Σ_k |φ(k)|² · (cos(2π·k·x), sin(2π·k·x))` — each thread owns one
//! voxel, k-space samples are staged through shared memory in chunks (the
//! classic Parboil structure).

use crate::common::{self, random_f32s};
use crate::workload::{Scale, Workload};
use gpu_lp::checksum::read_back_images;
use gpu_lp::{LpBlockSession, Region};
use nvm::{Addr, PersistMemory};
use simt::{BlockCtx, LaunchConfig};

const THREADS: u32 = 64;
const CHUNK: usize = 16; // k-samples staged per shared-memory pass
const TWO_PI: f32 = std::f32::consts::TAU;

/// Q-matrix computation: one voxel per thread.
#[derive(Debug)]
pub struct MriQ {
    blocks: u64,
    k_samples: usize,
    seed: u64,
    kx: Addr,
    ky: Addr,
    kz: Addr,
    phi: Addr,
    x: Addr,
    y: Addr,
    z: Addr,
    qr: Addr,
    qi: Addr,
    host: HostData,
}

#[derive(Debug, Default)]
struct HostData {
    kx: Vec<f32>,
    ky: Vec<f32>,
    kz: Vec<f32>,
    phi: Vec<f32>,
    x: Vec<f32>,
    y: Vec<f32>,
    z: Vec<f32>,
}

impl MriQ {
    /// Creates the workload at the given scale. `setup` must follow.
    pub fn new(scale: Scale, seed: u64) -> Self {
        let (blocks, k_samples) = match scale {
            Scale::Test => (16, CHUNK),
            Scale::Bench | Scale::Paper => (1024, CHUNK), // Table III count
        };
        Self {
            blocks,
            k_samples,
            seed,
            kx: Addr::NULL,
            ky: Addr::NULL,
            kz: Addr::NULL,
            phi: Addr::NULL,
            x: Addr::NULL,
            y: Addr::NULL,
            z: Addr::NULL,
            qr: Addr::NULL,
            qi: Addr::NULL,
            host: HostData::default(),
        }
    }

    fn voxels(&self) -> usize {
        self.blocks as usize * THREADS as usize
    }

    fn reference(&self) -> (Vec<f32>, Vec<f32>) {
        let n = self.voxels();
        let mut qr = vec![0.0f32; n];
        let mut qi = vec![0.0f32; n];
        for v in 0..n {
            let (mut accr, mut acci) = (0.0f32, 0.0f32);
            for k in 0..self.k_samples {
                let phase = TWO_PI
                    * (self.host.kx[k] * self.host.x[v]
                        + self.host.ky[k] * self.host.y[v]
                        + self.host.kz[k] * self.host.z[v]);
                let mag = self.host.phi[k] * self.host.phi[k];
                accr += mag * phase.cos();
                acci += mag * phase.sin();
            }
            qr[v] = accr;
            qi[v] = acci;
        }
        (qr, qi)
    }
}

impl Workload for MriQ {
    fn setup(&mut self, mem: &mut PersistMemory) {
        let n = self.voxels();
        let k = self.k_samples;
        self.host = HostData {
            kx: random_f32s(self.seed, k, -0.5, 0.5),
            ky: random_f32s(self.seed ^ 1, k, -0.5, 0.5),
            kz: random_f32s(self.seed ^ 2, k, -0.5, 0.5),
            phi: random_f32s(self.seed ^ 3, k, 0.1, 1.0),
            x: random_f32s(self.seed ^ 4, n, -1.0, 1.0),
            y: random_f32s(self.seed ^ 5, n, -1.0, 1.0),
            z: random_f32s(self.seed ^ 6, n, -1.0, 1.0),
        };
        self.kx = common::upload_f32s(mem, &self.host.kx);
        self.ky = common::upload_f32s(mem, &self.host.ky);
        self.kz = common::upload_f32s(mem, &self.host.kz);
        self.phi = common::upload_f32s(mem, &self.host.phi);
        self.x = common::upload_f32s(mem, &self.host.x);
        self.y = common::upload_f32s(mem, &self.host.y);
        self.z = common::upload_f32s(mem, &self.host.z);
        self.qr = common::alloc_f32s(mem, n as u64);
        self.qi = common::alloc_f32s(mem, n as u64);
        mem.flush_all();
    }

    fn payload_bytes(&self) -> u64 {
        2 * self.voxels() as u64 * 4
    }

    fn verify(&self, mem: &mut PersistMemory) -> bool {
        let n = self.voxels() as u64;
        let (qr_ref, qi_ref) = self.reference();
        let qr = common::download_f32s(mem, self.qr, n);
        let qi = common::download_f32s(mem, self.qi, n);
        common::slices_match(&qr, &qr_ref, 1e-3).is_ok()
            && common::slices_match(&qi, &qi_ref, 1e-3).is_ok()
    }
}

impl MriQ {
    /// Loads a voxel coordinate (one global read; the coordinate arrays are
    /// streamed once per chunk like the Parboil kernel does).
    fn host_coord(&self, ctx: &mut BlockCtx<'_>, base: Addr, v: usize) -> f32 {
        ctx.load_f32(base.index(v as u64, 4))
    }
}

impl Region for MriQ {
    fn name(&self) -> &str {
        "mri-q"
    }

    fn config(&self) -> LaunchConfig {
        LaunchConfig {
            grid: simt::Dim3::x(self.blocks as u32),
            block: simt::Dim3::x(THREADS),
        }
    }

    fn run_region(&self, ctx: &mut BlockCtx<'_>, lp: &mut LpBlockSession<'_>) {
        let tpb = ctx.threads_per_block();

        // Shared staging: kx, ky, kz, |phi|² per chunk sample.
        let sh = ctx.shared_alloc(4 * CHUNK);
        let mut accr = vec![0.0f32; tpb as usize];
        let mut acci = vec![0.0f32; tpb as usize];

        let chunks = self.k_samples.div_ceil(CHUNK);
        for chunk in 0..chunks {
            let base = chunk * CHUNK;
            let in_chunk = CHUNK.min(self.k_samples - base);
            // Cooperative load of the chunk (first `in_chunk` threads).
            for s in 0..in_chunk {
                ctx.set_active_thread(s as u64 % tpb);
                let kx = ctx.load_f32(self.kx.index((base + s) as u64, 4));
                let ky = ctx.load_f32(self.ky.index((base + s) as u64, 4));
                let kz = ctx.load_f32(self.kz.index((base + s) as u64, 4));
                let phi = ctx.load_f32(self.phi.index((base + s) as u64, 4));
                ctx.shm_write_f32(sh, 4 * s, kx);
                ctx.shm_write_f32(sh, 4 * s + 1, ky);
                ctx.shm_write_f32(sh, 4 * s + 2, kz);
                ctx.shm_write_f32(sh, 4 * s + 3, phi * phi);
                ctx.charge_alu(1);
            }
            ctx.sync_threads();
            for t in 0..tpb {
                ctx.set_active_thread(t);
                let v = ctx.global_thread_id(t) as usize;
                let x = self.host_coord(ctx, self.x, v);
                let y = self.host_coord(ctx, self.y, v);
                let z = self.host_coord(ctx, self.z, v);
                let (mut ar, mut ai) = (accr[t as usize], acci[t as usize]);
                for s in 0..in_chunk {
                    let [kx, ky, kz, mag] = ctx.shm_read_f32s(sh, 4 * s);
                    let phase = TWO_PI * (kx * x + ky * y + kz * z);
                    ar += mag * phase.cos();
                    ai += mag * phase.sin();
                    // 6 MACs + sincos (a few SFU ops on real hardware).
                    ctx.charge_alu(10);
                }
                accr[t as usize] = ar;
                acci[t as usize] = ai;
            }
            ctx.sync_threads();
        }

        for t in 0..tpb {
            ctx.set_active_thread(t);
            let v = ctx.global_thread_id(t);
            lp.store_f32(ctx, t, self.qr.index(v, 4), accr[t as usize]);
            lp.store_f32(ctx, t, self.qi.index(v, 4), acci[t as usize]);
        }
    }

    fn region_images(&self, mem: &mut PersistMemory, block: u64, images: &mut Vec<u64>) {
        let tpb = self.config().threads_per_block();
        let v = block * tpb;
        let starts = [self.qr.index(v, 4), self.qi.index(v, 4)];
        read_back_images::<2, 4>(mem, starts, tpb, images);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_scale_matches_paper_block_count() {
        let w = MriQ::new(Scale::Bench, 0);
        // Table III.
        assert_eq!(w.launch_config().num_blocks(), 1_024);
    }
}
