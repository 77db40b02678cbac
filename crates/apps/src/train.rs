//! Persistent iterative-training loop with periodic checkpoints.
//!
//! The model is a dense `f32` weight vector updated once per epoch by a
//! deterministic rule (`w' = w/2 + grad(seed, epoch, i)`), so any epoch's
//! weights are bit-exactly replayable on the host from the seed alone —
//! the audit in `verify_invariants` exploits exactly that.
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
//! * a [`DurableManifest`] `[committed_epoch, started_epoch]`.
//!
//! A *checkpoint* (every `K` epochs, and at the end of every restore)
//! drains the cache and commits `committed = epoch`. Between checkpoints,
//! each epoch commits only its intent (`started = epoch`) before
//! launching. `restore` therefore finds `committed = c, started = s` with
//! `c ≤ s ≤ c + K` and rolls epochs `c+1 ..= s` forward oldest-first —
//! each one's recovery input is the (by then durable) output of the one
//! before — then checkpoints at `s`. The service resumes from the last
//! durable epoch with zero lost epochs.

use gpu_lp::{LpBlockSession, LpConfig, LpRuntime, Recoverable, ResilientRecovery};
use nvm::{Addr, PersistMemory};
use simt::{BlockCtx, Gpu, Kernel, LaunchConfig};

use crate::manifest::DurableManifest;
use crate::{
    drain_all, mix3, restoration_charge, AppParams, RecoverableApp, RestoreReport, StepReport,
};

/// Threads per block.
const TPB: u64 = 32;

/// Checkpoint interval: every `K`-th epoch drains and commits.
const K: u64 = 4;

/// Re-entrant recovery attempts per rolled-forward epoch.
const MAX_RESTORE_ATTEMPTS: u32 = 8;

/// Initial weight `i`.
fn init_weight(seed: u64, i: u64) -> f32 {
    (mix3(seed, 0xAA, i) % 1024) as f32 / 1024.0
}

/// Gradient contribution for weight `i` at `epoch`.
fn grad(seed: u64, epoch: u64, i: u64) -> f32 {
    (mix3(seed, epoch, i) % 1024) as f32 / 1024.0
}

/// The per-element update rule — shared by the kernel and the host replay,
/// so the audit is bit-exact by construction.
fn update(w: f32, seed: u64, epoch: u64, i: u64) -> f32 {
    w * 0.5 + grad(seed, epoch, i)
}

/// One training epoch: `dst[i] = update(src[i])`, one thread per weight.
struct TrainEpochKernel<'rt> {
    rt: &'rt LpRuntime,
    src: Addr,
    dst: Addr,
    n: u64,
    seed: u64,
    epoch: u64,
}

impl Kernel for TrainEpochKernel<'_> {
    fn name(&self) -> &str {
        "apps-train-epoch"
    }

    fn config(&self) -> LaunchConfig {
        LaunchConfig::linear(self.n, TPB as u32)
    }

    fn run_block(&self, ctx: &mut BlockCtx<'_>) {
        let mut lp = LpBlockSession::begin(self.rt, ctx);
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
        lp.finalize(ctx);
    }
}

impl Recoverable for TrainEpochKernel<'_> {
    fn recompute_block_checksums(&self, mem: &mut PersistMemory, block: u64) -> Vec<u64> {
        let mut images = Vec::new();
        for t in 0..TPB {
            let i = block * TPB + t;
            if i < self.n {
                images.push(gpu_lp::checksum::f32_store_image(
                    mem.read_f32(self.dst.index(i, 4)),
                ));
            }
        }
        self.rt.digest_region(block, images)
    }
}

/// The persistent training service. See the module docs for the protocol.
pub struct TrainingLoop {
    params: AppParams,
    manifest: DurableManifest,
    /// `K + 1` rotating weight buffers.
    bufs: Vec<Addr>,
    /// Weights per buffer.
    n: u64,
    /// `K` checksum runtimes, one per in-flight epoch slot.
    rts: Vec<LpRuntime>,
    /// Host cache (rebuilt by `restore`): last completed epoch and last
    /// checkpointed epoch.
    epoch: u64,
    committed: u64,
    last_restore_ns: u64,
}

impl TrainingLoop {
    /// Allocates the buffer ring, writes the seeded initial weights
    /// durably, and commits the epoch-0 manifest.
    pub fn create(mem: &mut PersistMemory, params: AppParams) -> Self {
        let n = params.width * 8;
        let bufs: Vec<Addr> = (0..=K).map(|_| mem.alloc(n * 4, 8)).collect();
        for i in 0..n {
            mem.write_f32(bufs[0].index(i, 4), init_weight(params.seed, i));
        }
        let manifest = DurableManifest::create(mem, 2);
        let blocks = n.div_ceil(TPB);
        let rts: Vec<LpRuntime> = (0..K)
            .map(|_| LpRuntime::setup(mem, blocks, TPB, LpConfig::for_backend(params.backend)))
            .collect();
        drain_all(mem, 8);
        TrainingLoop {
            params,
            manifest,
            bufs,
            n,
            rts,
            epoch: 0,
            committed: 0,
            last_restore_ns: 0,
        }
    }

    fn kernel<'a>(&'a self, epoch: u64) -> TrainEpochKernel<'a> {
        TrainEpochKernel {
            rt: &self.rts[((epoch - 1) % K) as usize],
            src: self.bufs[((epoch - 1) % (K + 1)) as usize],
            dst: self.bufs[(epoch % (K + 1)) as usize],
            n: self.n,
            seed: self.params.seed,
            epoch,
        }
    }

    /// Host replay of the committed prefix: the reference weights after
    /// `epochs` epochs, bit-exact.
    fn replay(&self, epochs: u64) -> Vec<f32> {
        let mut w: Vec<f32> = (0..self.n)
            .map(|i| init_weight(self.params.seed, i))
            .collect();
        for e in 1..=epochs {
            for (i, x) in w.iter_mut().enumerate() {
                *x = update(*x, self.params.seed, e, i as u64);
            }
        }
        w
    }
}

impl RecoverableApp for TrainingLoop {
    fn name(&self) -> &'static str {
        "train"
    }

    fn step(&mut self, gpu: &Gpu, mem: &mut PersistMemory) -> StepReport {
        let epoch = self.epoch + 1;
        assert!(epoch <= self.params.max_steps, "training horizon exceeded");
        let mut rep = StepReport {
            step: epoch,
            ..StepReport::default()
        };
        if !self.manifest.commit(mem, &[self.committed, epoch]) {
            rep.crashed = true;
            return rep;
        }
        let rt = &self.rts[((epoch - 1) % K) as usize];
        rt.reset(mem);
        let k = self.kernel(epoch);
        let stats = gpu.launch(&k, mem).expect("train epoch launch");
        rep.exec_ns = stats.kernel_ns as u64;
        if mem.power_failed() {
            rep.crashed = true;
            return rep;
        }
        self.epoch = epoch;
        if epoch.is_multiple_of(K) {
            // Checkpoint: validate-then-commit over the whole window,
            // oldest first (each epoch's re-execution input is the epoch
            // the previous iteration just proved durable). A torn
            // write-back ACKs success while persisting garbage, so only
            // checksums recomputed from durable media prove the window.
            for e in self.committed + 1..=epoch {
                let durable = ResilientRecovery::new(gpu)
                    .recover(&self.kernel(e), &self.rts[((e - 1) % K) as usize], mem)
                    .all_durable;
                if !durable || mem.power_failed() {
                    rep.crashed = true;
                    return rep;
                }
            }
            if !self.manifest.commit(mem, &[epoch, epoch]) {
                rep.crashed = true;
                return rep;
            }
            self.committed = epoch;
        }
        rep.committed = true;
        rep
    }

    fn crash(&mut self, mem: &mut PersistMemory) {
        if !mem.power_failed() {
            mem.crash();
        }
        self.epoch = 0;
        self.committed = 0;
    }

    fn restore(&mut self, gpu: &Gpu, mem: &mut PersistMemory) -> RestoreReport {
        if mem.power_failed() {
            mem.power_on();
        }
        let (_, fields) = self.manifest.load(mem);
        let (committed, started) = (fields[0], fields[1]);
        let mut rep = RestoreReport {
            recovered_step: committed,
            latency_ns: crate::REBOOT_NS,
            all_durable: true,
            attempts: 1,
            ..RestoreReport::default()
        };
        // Roll forward every epoch since the checkpoint, oldest first:
        // epoch e's recovery reads the weights epoch e-1's recovery just
        // made durable.
        for e in committed + 1..=started {
            let k = self.kernel(e);
            let outcome = ResilientRecovery::new(gpu).recover_reentrant(
                &k,
                &self.rts[((e - 1) % K) as usize],
                mem,
                MAX_RESTORE_ATTEMPTS,
            );
            rep.rolled_forward = true;
            rep.attempts = rep.attempts.max(outcome.attempts);
            rep.interruptions += outcome.interruptions;
            rep.reexecutions += outcome.report.reexecutions;
            rep.degraded_reexecutions += outcome.report.degraded_reexecutions;
            rep.quarantined_lines += outcome.report.quarantined_lines;
            rep.latency_ns += restoration_charge(self.n, &outcome);
            if !outcome.is_success() {
                rep.all_durable = false;
                break;
            }
            rep.recovered_step = e;
        }
        if rep.all_durable
            && started > committed
            && (!drain_all(mem, 8) || !self.manifest.commit(mem, &[started, started]))
        {
            rep.all_durable = false;
        }
        let (_, fields) = self.manifest.load(mem);
        self.committed = fields[0];
        self.epoch = fields[0];
        self.last_restore_ns = rep.latency_ns;
        rep
    }

    fn verify_invariants(&mut self, mem: &mut PersistMemory) -> Vec<String> {
        let mut violations = Vec::new();
        let (_, fields) = self.manifest.load(mem);
        let (committed, started) = (fields[0], fields[1]);
        if started != committed {
            violations.push(format!(
                "uncheckpointed epoch in flight after restore: started={started} committed={committed}"
            ));
        }
        let expect = self.replay(committed);
        let buf = self.bufs[(committed % (K + 1)) as usize];
        for (i, e) in expect.iter().enumerate() {
            let got = mem.read_f32(buf.index(i as u64, 4));
            if got.to_bits() != e.to_bits() {
                violations.push(format!(
                    "weight {i} diverged at epoch {committed}: {got} != {e}"
                ));
                break;
            }
        }
        violations
    }

    fn restoration_latency(&self) -> u64 {
        self.last_restore_ns
    }

    fn progress(&self, mem: &mut PersistMemory) -> u64 {
        let mut m = self.manifest.clone();
        m.load(mem).1[0]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_lp::BackendKind;
    use nvm::{FaultConfig, NvmConfig};
    use simt::DeviceConfig;

    fn world(faults: Option<FaultConfig>) -> (Gpu, PersistMemory) {
        let mut mem = PersistMemory::new(NvmConfig {
            cache_lines: 256,
            associativity: 8,
            ..NvmConfig::default()
        });
        mem.set_fault_config(faults);
        (Gpu::new(DeviceConfig::test_gpu()), mem)
    }

    #[test]
    fn epochs_checkpoint_and_replay_matches() {
        let (gpu, mut mem) = world(None);
        let mut app =
            TrainingLoop::create(&mut mem, AppParams::small(BackendKind::LpChecksum, 31, 32));
        for _ in 0..8 {
            assert!(app.step(&gpu, &mut mem).committed);
        }
        assert_eq!(app.progress(&mut mem), 8, "8 = 2 checkpoints of K=4");
        assert!(app.verify_invariants(&mut mem).is_empty());
    }

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

    #[test]
    fn survives_a_faulty_device_across_a_crash() {
        let (gpu, mut mem) = world(Some(FaultConfig::torn(35, 300)));
        let mut app =
            TrainingLoop::create(&mut mem, AppParams::small(BackendKind::LpChecksum, 35, 32));
        for _ in 0..3 {
            assert!(app.step(&gpu, &mut mem).committed);
        }
        app.crash(&mut mem);
        let rep = app.restore(&gpu, &mut mem);
        assert!(rep.all_durable, "{rep:?}");
        mem.set_fault_config(None);
        assert_eq!(app.progress(&mut mem), 3);
        assert!(app.verify_invariants(&mut mem).is_empty());
    }
}
