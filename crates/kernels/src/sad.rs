//! SAD — sum of absolute differences for motion estimation, from Parboil.
//! Bandwidth bound and the suite's largest launch: 128 640 thread blocks at
//! paper scale (our Paper preset launches 131 072; Bench keeps SAD the
//! biggest launch in the suite, as Table III requires).
//!
//! Each block covers one macroblock of the current frame and a group of 64
//! candidate motion vectors; each thread computes the SAD between the
//! macroblock and the reference frame at its candidate offset.

use crate::common::{self, random_u32s};
use crate::workload::{Scale, Workload};
use gpu_lp::checksum::read_back_images;
use gpu_lp::{LpBlockSession, Region};
use nvm::{Addr, PersistMemory};
use simt::{BlockCtx, LaunchConfig};

const THREADS: u32 = 64; // one candidate offset per thread
const PIXEL_MAX: u32 = 256;

/// Full-search SAD over a grid of macroblocks.
#[derive(Debug)]
pub struct Sad {
    width: usize,
    height: usize,
    mb: usize,
    offset_groups: usize,
    seed: u64,
    cur: Addr,
    reff: Addr,
    out: Addr,
    host_cur: Vec<u32>,
    host_ref: Vec<u32>,
}

impl Sad {
    /// Creates the workload at the given scale. `setup` must follow.
    pub fn new(scale: Scale, seed: u64) -> Self {
        let (width, height, mb, offset_groups) = match scale {
            Scale::Test => (32, 32, 4, 2),     // 8×8 mbs × 2 = 128 blocks
            Scale::Bench => (128, 128, 2, 2),  // 64×64 mbs × 2 = 8 192 blocks
            Scale::Paper => (256, 256, 4, 32), // 64×64 mbs × 32 = 131 072 blocks
        };
        Self {
            width,
            height,
            mb,
            offset_groups,
            seed,
            cur: Addr::NULL,
            reff: Addr::NULL,
            out: Addr::NULL,
            host_cur: Vec::new(),
            host_ref: Vec::new(),
        }
    }

    fn mbs_x(&self) -> usize {
        self.width / self.mb
    }

    fn mbs_y(&self) -> usize {
        self.height / self.mb
    }

    fn num_blocks(&self) -> u64 {
        (self.mbs_x() * self.mbs_y() * self.offset_groups) as u64
    }

    /// Candidate offset for (group, thread): a deterministic spiral-ish
    /// pattern inside a ±8 pixel window.
    fn offset(&self, group: usize, t: usize) -> (i64, i64) {
        let idx = group * THREADS as usize + t;
        let dx = (idx % 17) as i64 - 8;
        let dy = ((idx / 17) % 17) as i64 - 8;
        (dx, dy)
    }

    fn pixel(img: &[u32], w: usize, h: usize, x: i64, y: i64) -> u32 {
        // Clamped addressing at frame edges (standard motion-search border
        // extension).
        let xc = x.clamp(0, w as i64 - 1) as usize;
        let yc = y.clamp(0, h as i64 - 1) as usize;
        img[yc * w + xc]
    }

    fn reference_sad(&self, block: u64, t: usize) -> u32 {
        let mbs_x = self.mbs_x();
        let group = block as usize / (mbs_x * self.mbs_y());
        let mb_idx = block as usize % (mbs_x * self.mbs_y());
        let (mx, my) = (mb_idx % mbs_x, mb_idx / mbs_x);
        let (dx, dy) = self.offset(group, t);
        let mut sad = 0u32;
        for py in 0..self.mb {
            for px in 0..self.mb {
                let cx = (mx * self.mb + px) as i64;
                let cy = (my * self.mb + py) as i64;
                let c = Self::pixel(&self.host_cur, self.width, self.height, cx, cy);
                let r = Self::pixel(&self.host_ref, self.width, self.height, cx + dx, cy + dy);
                sad += c.abs_diff(r);
            }
        }
        sad
    }
}

impl Workload for Sad {
    fn setup(&mut self, mem: &mut PersistMemory) {
        let n = self.width * self.height;
        self.host_cur = random_u32s(self.seed, n, PIXEL_MAX);
        self.host_ref = random_u32s(self.seed ^ 0x5AD, n, PIXEL_MAX);
        self.cur = common::upload_u32s(mem, &self.host_cur);
        self.reff = common::upload_u32s(mem, &self.host_ref);
        self.out = common::alloc_u32s(mem, self.num_blocks() * THREADS as u64);
        mem.flush_all();
    }

    fn payload_bytes(&self) -> u64 {
        self.num_blocks() * THREADS as u64 * 4
    }

    fn verify(&self, mem: &mut PersistMemory) -> bool {
        // Spot-check a deterministic sample of blocks (full check at Test
        // scale); the recompute path covers every value during recovery
        // tests anyway.
        let blocks = self.num_blocks();
        let step = (blocks / 64).max(1);
        (0..blocks).step_by(step as usize).all(|b| {
            let start = self.out.index(b * THREADS as u64, 4);
            let (mut t, mut ok) = (0, true);
            mem.scan_u32(start, 4, THREADS as u64, |got| {
                ok = got == self.reference_sad(b, t);
                t += 1;
                ok
            });
            ok
        })
    }
}

impl Region for Sad {
    fn name(&self) -> &str {
        "sad"
    }

    fn config(&self) -> LaunchConfig {
        LaunchConfig {
            grid: simt::Dim3::x(self.num_blocks() as u32),
            block: simt::Dim3::x(THREADS),
        }
    }

    fn run_region(&self, ctx: &mut BlockCtx<'_>, lp: &mut LpBlockSession<'_>) {
        let b = ctx.block_id();
        let mbs = (self.mbs_x() * self.mbs_y()) as u64;
        let group = (b / mbs) as usize;
        let mb_idx = (b % mbs) as usize;
        let (mx, my) = (mb_idx % self.mbs_x(), mb_idx / self.mbs_x());

        for t in 0..ctx.threads_per_block() {
            ctx.set_active_thread(t);
            let (dx, dy) = self.offset(group, t as usize);
            let mut sad = 0u32;
            for py in 0..self.mb {
                for px in 0..self.mb {
                    let cx = (mx * self.mb + px) as i64;
                    let cy = (my * self.mb + py) as i64;
                    let cur_idx = (cy as usize * self.width + cx as usize) as u64;
                    let rx = (cx + dx).clamp(0, self.width as i64 - 1) as u64;
                    let ry = (cy + dy).clamp(0, self.height as i64 - 1) as u64;
                    let ref_idx = ry * self.width as u64 + rx;
                    let c = ctx.load_u32(self.cur.index(cur_idx, 4));
                    let r = ctx.load_u32(self.reff.index(ref_idx, 4));
                    sad += c.abs_diff(r);
                    ctx.charge_alu(3);
                }
            }
            lp.store_u32(ctx, t, self.out.index(b * THREADS as u64 + t, 4), sad);
        }
    }

    fn region_images(&self, mem: &mut PersistMemory, block: u64, images: &mut Vec<u64>) {
        let start = self.out.index(block * THREADS as u64, 4);
        read_back_images::<1, 4>(mem, [start], THREADS as u64, images);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_frames_give_zero_sad_everywhere() {
        // With both frames constant, every candidate offset (clamped at the
        // borders) sees identical pixels, so every SAD is zero.
        let mut w = Sad::new(Scale::Test, 5);
        w.host_cur = vec![100; w.width * w.height];
        w.host_ref = w.host_cur.clone();
        for t in [0usize, 7, 63] {
            assert_eq!(w.reference_sad(0, t), 0);
            assert_eq!(w.reference_sad(w.num_blocks() - 1, t), 0);
        }
    }

    #[test]
    fn sad_is_largest_launch_at_every_scale() {
        for scale in [Scale::Test, Scale::Bench, Scale::Paper] {
            let sad = Sad::new(scale, 0).num_blocks();
            assert!(sad >= 128, "SAD should be a big launch, got {sad}");
        }
    }
}
