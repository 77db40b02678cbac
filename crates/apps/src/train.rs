//! Persistent iterative-training loop with periodic checkpoints.
//!
//! The model is a dense `f32` weight vector updated once per epoch by a
//! deterministic rule (`w' = w/2 + grad(seed, epoch, i)`), so any epoch's
//! weights are bit-exactly replayable on the host from the seed alone —
//! the audit in `verify_invariants` exploits exactly that, advancing its
//! host copy one epoch per committed epoch.
//!
//! Durability layout:
//!
//! * `K + 1` rotating weight buffers — epoch `e` reads
//!   `buf[(e-1) % (K+1)]` and writes `buf[e % (K+1)]`, never in place, so
//!   re-executing a crashed epoch is idempotent and the previous epoch's
//!   weights stay intact as the recovery input;
//! * `K` LP runtimes — epoch `e` publishes its checksums through slot
//!   `(e-1) % K`, so every epoch since the last checkpoint keeps its own
//!   validation table (at most `K` epochs are ever in flight);
//! * the service manifest `[committed_epoch, started_epoch]`.
//!
//! This is the window-`K` case of [`crate::service`]: a *checkpoint*
//! (every `K` epochs, and at the end of every restore) validates the open
//! window and commits `committed = epoch`. Between checkpoints, each epoch
//! commits only its intent (`started = epoch`) before launching. `restore`
//! therefore finds `committed = c, started = s` with `c ≤ s ≤ c + K` and
//! rolls epochs `c+1 ..= s` forward oldest-first — each one's recovery
//! input is the (by then durable) output of the one before — then
//! checkpoints at `s`. The service resumes from the last durable epoch
//! with zero lost epochs.

use gpu_lp::checksum::read_back_images;
use gpu_lp::{LpBlockSession, LpConfig, LpRuntime, Region};
use nvm::{Addr, PersistMemory};
use simt::{BlockCtx, LaunchConfig};

use crate::service::{Protocol, Service, REBOOT_NS};
use crate::{mix3, AppParams};

/// Threads per block.
const TPB: u64 = 32;

/// Checkpoint interval: every `K`-th epoch drains and commits.
const K: u64 = 4;

/// Initial weight `i`.
fn init_weight(seed: u64, i: u64) -> f32 {
    (mix3(seed, 0xAA, i) % 1024) as f32 / 1024.0
}

/// Gradient contribution for weight `i` at `epoch`.
fn grad(seed: u64, epoch: u64, i: u64) -> f32 {
    (mix3(seed, epoch, i) % 1024) as f32 / 1024.0
}

/// The per-element update rule — shared by the kernel and the audit's host
/// reference, so the audit is bit-exact by construction.
fn update(w: f32, seed: u64, epoch: u64, i: u64) -> f32 {
    w * 0.5 + grad(seed, epoch, i)
}

/// One training epoch: `dst[i] = update(src[i])`, one thread per weight.
pub(crate) struct TrainEpoch {
    src: Addr,
    dst: Addr,
    n: u64,
    seed: u64,
    epoch: u64,
}

impl Region for TrainEpoch {
    fn name(&self) -> &str {
        "apps-train-epoch"
    }

    fn config(&self) -> LaunchConfig {
        LaunchConfig::linear(self.n, TPB as u32)
    }

    fn run_region(&self, ctx: &mut BlockCtx<'_>, lp: &mut LpBlockSession<'_>) {
        for t in 0..ctx.threads_per_block() {
            ctx.set_active_thread(t);
            let i = ctx.global_thread_id(t);
            if i >= self.n {
                continue;
            }
            // Forward + backward pass work per weight.
            ctx.charge_alu(120);
            let w = ctx.load_f32(self.src.index(i, 4));
            lp.store_f32(
                ctx,
                t,
                self.dst.index(i, 4),
                update(w, self.seed, self.epoch, i),
            );
        }
    }

    fn region_images(&self, mem: &mut PersistMemory, block: u64, images: &mut Vec<u64>) {
        let first = block * TPB;
        let count = TPB.min(self.n.saturating_sub(first));
        read_back_images::<1, 4>(mem, [self.dst.index(first, 4)], count, images);
    }
}

/// The persistent training service. See the module docs for the protocol.
pub(crate) struct TrainingLoop {
    params: AppParams,
    /// `K + 1` rotating weight buffers.
    bufs: Vec<Addr>,
    /// Weights per buffer.
    n: u64,
    /// `K` checksum runtimes, one per in-flight epoch slot.
    rts: Vec<LpRuntime>,
}

impl TrainingLoop {
    /// Allocates the buffer ring, writes the seeded initial weights
    /// durably, and commits the epoch-0 manifest.
    pub(crate) fn create(mem: &mut PersistMemory, params: AppParams) -> Service<Self> {
        let n = params.width * 8;
        let bufs: Vec<Addr> = (0..=K).map(|_| mem.alloc(n * 4, 8)).collect();
        mem.write_run_u32(
            bufs[0],
            (0..n).map(|i| init_weight(params.seed, i).to_bits()),
        );
        let manifest = Service::<Self>::manifest(mem);
        let blocks = n.div_ceil(TPB);
        let rts: Vec<LpRuntime> = (0..K)
            .map(|_| LpRuntime::setup(mem, blocks, TPB, LpConfig::for_backend(params.backend)))
            .collect();
        let train = TrainingLoop {
            params,
            bufs,
            n,
            rts,
        };
        Service::start(mem, manifest, params.max_steps, train)
    }
}

impl Protocol for TrainingLoop {
    const NAME: &'static str = "train";
    const WINDOW: u64 = K;
    const IN_FLIGHT: &'static str = "uncheckpointed epoch";
    /// The windowed restore has always charged a reboot per rolled-forward
    /// epoch on top of the one up front, where the window-1 services charge
    /// one in total. `restoration_ns` is a pinned simulated result, so the
    /// quirk is kept as this explicit term rather than silently dropped.
    const ROLL_FORWARD_REBOOT_NS: u64 = REBOOT_NS;

    type Cursors = [u64; 0];
    type Step<'a> = TrainEpoch;

    fn runtime(&self, epoch: u64) -> &LpRuntime {
        &self.rts[((epoch - 1) % K) as usize]
    }

    fn region(&self, epoch: u64, _: [u64; 0]) -> TrainEpoch {
        TrainEpoch {
            src: self.bufs[((epoch - 1) % (K + 1)) as usize],
            dst: self.bufs[(epoch % (K + 1)) as usize],
            n: self.n,
            seed: self.params.seed,
            epoch,
        }
    }

    fn images(&self, _: &TrainEpoch) -> u64 {
        self.n
    }

    /// The weights, bit-exact.
    type Reference = Vec<f32>;

    fn reference(&self) -> Vec<f32> {
        (0..self.n)
            .map(|i| init_weight(self.params.seed, i))
            .collect()
    }

    fn apply(&self, w: &mut Vec<f32>, epoch: u64) {
        for (i, x) in w.iter_mut().enumerate() {
            *x = update(*x, self.params.seed, epoch, i as u64);
        }
    }

    fn audit(
        &self,
        mem: &mut PersistMemory,
        committed: u64,
        _: [u64; 0],
        expect: &Vec<f32>,
        violations: &mut Vec<String>,
    ) {
        let buf = self.bufs[(committed % (K + 1)) as usize];
        let mut expect = expect.iter().enumerate();
        mem.scan_u32(buf, 4, expect.len() as u64, |got| {
            let (i, e) = expect.next().expect("one expected weight per word");
            if got == e.to_bits() {
                return true;
            }
            let got = f32::from_bits(got);
            violations.push(format!(
                "weight {i} diverged at epoch {committed}: {got} != {e}"
            ));
            false
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{world, RecoverableApp};
    use gpu_lp::BackendKind;

    #[test]
    fn crash_between_checkpoints_resumes_from_rolled_forward_epochs() {
        let (gpu, mut mem) = world(None);
        let mut app =
            TrainingLoop::create(&mut mem, AppParams::small(BackendKind::LpChecksum, 32, 32));
        // 6 epochs: checkpoint at 4, epochs 5..6 only intent-committed.
        for _ in 0..6 {
            assert!(app.step(&gpu, &mut mem).committed);
        }
        app.crash(&mut mem);
        let rep = app.restore(&gpu, &mut mem);
        assert!(rep.all_durable, "{rep:?}");
        assert!(rep.rolled_forward);
        assert_eq!(app.progress(&mut mem), 6, "no epoch lost");
        assert!(app.verify_invariants(&mut mem).is_empty());
    }

    #[test]
    fn crash_mid_epoch_rolls_the_window_forward() {
        let (gpu, mut mem) = world(None);
        let mut app =
            TrainingLoop::create(&mut mem, AppParams::small(BackendKind::LpChecksum, 33, 32));
        for _ in 0..7 {
            assert!(app.step(&gpu, &mut mem).committed);
        }
        // Epoch 8 is a checkpoint: power fails inside its drain, leaving
        // epochs 5..=8 only partially durable.
        mem.arm_crash_during_flush(2);
        let rep = app.step(&gpu, &mut mem);
        assert!(rep.crashed);
        app.crash(&mut mem);
        let rep = app.restore(&gpu, &mut mem);
        assert!(rep.all_durable, "{rep:?}");
        assert_eq!(app.progress(&mut mem), 8, "the whole window rolls forward");
        assert!(app.verify_invariants(&mut mem).is_empty());
    }
}
