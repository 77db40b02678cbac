//! Durable append-only logging/queue service.
//!
//! State in persistent memory:
//!
//! * `records[j]` — the append-only log: slot `j` holds the payload of the
//!   `j`-th enqueued message, derived as `payload(seed, j)` so the whole
//!   log is auditable from the seed;
//! * `receipts[j]` — the consume ledger: slot `j` holds the durable
//!   receipt `receipt(seed, j)` written when message `j` was consumed;
//! * a [`DurableManifest`] with fields `[committed_step, started_step,
//!   tail, head]` — `tail` / `head` are the enqueue / consume cursors of
//!   the *committed* prefix.
//!
//! Each step enqueues a seeded batch at `tail` and consumes a seeded batch
//! at `head` in one GPU launch (one thread per message). Consume semantics
//! are **exactly-once observable**: a message is "delivered" exactly when
//! its receipt slot is durably non-zero, and the receipt is a pure
//! function of `(seed, j)` — so re-executing a crashed step rewrites
//! byte-identical receipts, and a receipt can never be written twice with
//! different contents or skipped while `head` moves past it.
//!
//! Crash protocol: the step's intent (`started = step`, plus the committed
//! cursors the batch was derived from) is committed to the manifest
//! *before* the launch; the new cursors commit only after every record and
//! receipt of the step drained. `restore` therefore finds either nothing
//! in flight (crash landed between steps or tore the intent commit, which
//! reverts it) or a fully-described in-flight step it re-derives and rolls
//! forward through re-entrant resilient recovery.

use gpu_lp::{LpBlockSession, LpConfig, LpRuntime, Recoverable, ResilientRecovery};
use nvm::{Addr, PersistMemory};
use simt::{BlockCtx, Gpu, Kernel, LaunchConfig};

use crate::manifest::DurableManifest;
use crate::{
    drain_all, mix3, restoration_charge, AppParams, RecoverableApp, RestoreReport, StepReport,
};

/// Threads per block — small so even smoke-sized steps span several LP
/// regions and partial-persistence is region-granular.
const TPB: u64 = 32;

/// Re-entrant recovery attempts per restore.
const MAX_RESTORE_ATTEMPTS: u32 = 8;

/// Payload of log slot `j` (nonzero, so an unwritten slot is detectable).
fn payload(seed: u64, j: u64) -> u64 {
    mix3(seed, j, 0x51) | 1
}

/// Durable consume receipt for log slot `j` (nonzero pure function — the
/// exactly-once witness).
fn receipt(seed: u64, j: u64) -> u64 {
    mix3(seed, payload(seed, j), j) | 1
}

/// The per-step batch, derived entirely from `(seed, step)` and the
/// committed cursors — both the live path and the restore path call this.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct StepBatch {
    enqueue: u64,
    consume: u64,
}

fn batch_for(seed: u64, step: u64, width: u64, tail: u64, head: u64) -> StepBatch {
    let enqueue = 1 + mix3(seed, step, 0xE1) % width;
    let backlog = (tail - head).min(width);
    let consume = mix3(seed, step, 0xC0) % (backlog + 1);
    StepBatch { enqueue, consume }
}

/// One queue step: threads `< enqueue` append records at `tail`, the rest
/// write consume receipts at `head`.
struct QueueStepKernel<'rt> {
    rt: &'rt LpRuntime,
    records: Addr,
    receipts: Addr,
    seed: u64,
    tail: u64,
    head: u64,
    batch: StepBatch,
}

impl QueueStepKernel<'_> {
    fn items(&self) -> u64 {
        self.batch.enqueue + self.batch.consume
    }

    /// The durable effect of thread `i`: `(slot address, value)`.
    fn effect(&self, i: u64) -> (Addr, u64) {
        if i < self.batch.enqueue {
            let j = self.tail + i;
            (self.records.index(j, 8), payload(self.seed, j))
        } else {
            let j = self.head + (i - self.batch.enqueue);
            (self.receipts.index(j, 8), receipt(self.seed, j))
        }
    }
}

impl Kernel for QueueStepKernel<'_> {
    fn name(&self) -> &str {
        "apps-queue-step"
    }

    fn config(&self) -> LaunchConfig {
        LaunchConfig::linear(self.items(), TPB as u32)
    }

    fn run_block(&self, ctx: &mut BlockCtx<'_>) {
        let mut lp = LpBlockSession::begin(self.rt, ctx);
        for t in 0..ctx.threads_per_block() {
            ctx.set_active_thread(t);
            let i = ctx.global_thread_id(t);
            if i >= self.items() {
                continue;
            }
            // Message marshalling / receipt signing work per op.
            ctx.charge_alu(200);
            let (addr, v) = self.effect(i);
            lp.store_u64(ctx, t, addr, v);
        }
        lp.finalize(ctx);
    }
}

impl Recoverable for QueueStepKernel<'_> {
    fn recompute_block_checksums(&self, mem: &mut PersistMemory, block: u64) -> Vec<u64> {
        let mut images = Vec::new();
        for t in 0..TPB {
            let i = block * TPB + t;
            if i < self.items() {
                let (addr, _) = self.effect(i);
                images.push(mem.read_u64(addr));
            }
        }
        self.rt.digest_region(block, images)
    }
}

/// The durable queue service. See the module docs for the protocol.
pub struct DurableQueue {
    params: AppParams,
    manifest: DurableManifest,
    records: Addr,
    receipts: Addr,
    capacity: u64,
    rt: LpRuntime,
    /// Host cache of the committed manifest fields (rebuilt by `restore`).
    committed: u64,
    tail: u64,
    head: u64,
    last_restore_ns: u64,
}

impl DurableQueue {
    /// Allocates the log arenas (sized for `params.max_steps` full-width
    /// steps) and commits the empty-queue manifest.
    pub fn create(mem: &mut PersistMemory, params: AppParams) -> Self {
        let capacity = params.max_steps * params.width;
        let records = mem.alloc(capacity * 8, 8);
        let receipts = mem.alloc(capacity * 8, 8);
        let manifest = DurableManifest::create(mem, 4);
        // A step touches at most `2 * width` messages.
        let max_blocks = (2 * params.width).div_ceil(TPB);
        let rt = LpRuntime::setup(mem, max_blocks, TPB, LpConfig::for_backend(params.backend));
        drain_all(mem, 8);
        DurableQueue {
            params,
            manifest,
            records,
            receipts,
            capacity,
            rt,
            committed: 0,
            tail: 0,
            head: 0,
            last_restore_ns: 0,
        }
    }

    fn kernel<'a>(&'a self, step: u64, tail: u64, head: u64) -> QueueStepKernel<'a> {
        QueueStepKernel {
            rt: &self.rt,
            records: self.records,
            receipts: self.receipts,
            seed: self.params.seed,
            tail,
            head,
            batch: batch_for(self.params.seed, step, self.params.width, tail, head),
        }
    }
}

impl RecoverableApp for DurableQueue {
    fn name(&self) -> &'static str {
        "queue"
    }

    fn step(&mut self, gpu: &Gpu, mem: &mut PersistMemory) -> StepReport {
        let step = self.committed + 1;
        assert!(step <= self.params.max_steps, "queue arena exhausted");
        let mut rep = StepReport {
            step,
            ..StepReport::default()
        };
        // Intent first: after this commit a crash anywhere in the step is
        // recoverable from the manifest alone.
        if !self
            .manifest
            .commit(mem, &[self.committed, step, self.tail, self.head])
        {
            rep.crashed = true;
            return rep;
        }
        self.rt.reset(mem);
        let k = self.kernel(step, self.tail, self.head);
        let (tail, head) = (self.tail + k.batch.enqueue, self.head + k.batch.consume);
        let stats = gpu.launch(&k, mem).expect("queue step launch");
        rep.exec_ns = stats.kernel_ns as u64;
        if mem.power_failed() {
            rep.crashed = true;
            return rep;
        }
        // Validate-then-commit: a torn write-back ACKs success while
        // persisting garbage, so the commit may only trust checksums
        // recomputed from the durable media view — never the drain ACK.
        let durable = ResilientRecovery::new(gpu)
            .recover(&k, &self.rt, mem)
            .all_durable;
        if !durable || mem.power_failed() {
            rep.crashed = true;
            return rep;
        }
        if !self.manifest.commit(mem, &[step, step, tail, head]) {
            rep.crashed = true;
            return rep;
        }
        (self.committed, self.tail, self.head) = (step, tail, head);
        rep.committed = true;
        rep
    }

    fn crash(&mut self, mem: &mut PersistMemory) {
        if !mem.power_failed() {
            mem.crash();
        }
        // Drop every volatile host cache: restore may trust durable state
        // only.
        self.committed = 0;
        self.tail = 0;
        self.head = 0;
    }

    fn restore(&mut self, gpu: &Gpu, mem: &mut PersistMemory) -> RestoreReport {
        if mem.power_failed() {
            mem.power_on();
        }
        let (_, fields) = self.manifest.load(mem);
        let (committed, started, tail, head) = (fields[0], fields[1], fields[2], fields[3]);
        let mut rep = RestoreReport {
            recovered_step: committed,
            latency_ns: crate::REBOOT_NS,
            all_durable: true,
            attempts: 1,
            ..RestoreReport::default()
        };
        if started == committed + 1 {
            // Roll the in-flight step forward: re-derive its batch from the
            // durable cursors and recover against the crashed launch's
            // checksum table.
            let k = self.kernel(started, tail, head);
            let (tail2, head2) = (tail + k.batch.enqueue, head + k.batch.consume);
            let outcome = ResilientRecovery::new(gpu).recover_reentrant(
                &k,
                &self.rt,
                mem,
                MAX_RESTORE_ATTEMPTS,
            );
            rep.rolled_forward = true;
            rep.attempts = outcome.attempts;
            rep.interruptions = outcome.interruptions;
            rep.reexecutions = outcome.report.reexecutions;
            rep.degraded_reexecutions = outcome.report.degraded_reexecutions;
            rep.quarantined_lines = outcome.report.quarantined_lines;
            rep.all_durable = outcome.is_success();
            rep.latency_ns = restoration_charge(k.items(), &outcome);
            if rep.all_durable
                && drain_all(mem, 8)
                && self.manifest.commit(mem, &[started, started, tail2, head2])
            {
                rep.recovered_step = started;
            } else {
                rep.all_durable = false;
            }
        }
        // Rebuild the volatile cursor cache from durable truth.
        let (_, fields) = self.manifest.load(mem);
        (self.committed, self.tail, self.head) = (fields[0], fields[2], fields[3]);
        self.last_restore_ns = rep.latency_ns;
        rep
    }

    fn verify_invariants(&mut self, mem: &mut PersistMemory) -> Vec<String> {
        let mut violations = Vec::new();
        let (_, fields) = self.manifest.load(mem);
        let (committed, started, tail, head) = (fields[0], fields[1], fields[2], fields[3]);
        if started != committed {
            violations.push(format!(
                "uncommitted step in flight after restore: started={started} committed={committed}"
            ));
        }
        // Cursor audit: replay the seeded schedule from step 1.
        let (mut et, mut eh) = (0u64, 0u64);
        for s in 1..=committed {
            let b = batch_for(self.params.seed, s, self.params.width, et, eh);
            et += b.enqueue;
            eh += b.consume;
        }
        if (et, eh) != (tail, head) || head > tail || tail > self.capacity {
            violations.push(format!(
                "cursor mismatch: durable (tail={tail}, head={head}), replay (tail={et}, head={eh})"
            ));
        }
        // Data audit: every committed record and receipt, byte for byte.
        let seed = self.params.seed;
        for j in 0..tail.min(self.capacity) {
            let got = mem.read_u64(self.records.index(j, 8));
            if got != payload(seed, j) {
                violations.push(format!("record {j} corrupt: {got:#x}"));
                break; // one example is enough for the report
            }
        }
        for j in 0..head.min(tail) {
            let got = mem.read_u64(self.receipts.index(j, 8));
            if got != receipt(seed, j) {
                violations.push(format!("receipt {j} corrupt: {got:#x} (delivery lost)"));
                break;
            }
        }
        // Exactly-once: nothing past `head` may carry a receipt.
        for j in head..tail.min(self.capacity) {
            let got = mem.read_u64(self.receipts.index(j, 8));
            if got != 0 {
                violations.push(format!("receipt {j} written before consume: {got:#x}"));
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
    use crate::build_app;
    use crate::AppKind;
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
    fn steps_commit_and_invariants_hold() {
        let (gpu, mut mem) = world(None);
        let mut app =
            DurableQueue::create(&mut mem, AppParams::small(BackendKind::LpChecksum, 11, 16));
        for _ in 0..5 {
            let rep = app.step(&gpu, &mut mem);
            assert!(rep.committed, "clean step must commit");
        }
        assert_eq!(app.progress(&mut mem), 5);
        assert!(app.verify_invariants(&mut mem).is_empty());
    }

    #[test]
    fn crash_mid_step_rolls_forward_on_restore() {
        let (gpu, mut mem) = world(None);
        let mut app =
            DurableQueue::create(&mut mem, AppParams::small(BackendKind::LpChecksum, 12, 16));
        assert!(app.step(&gpu, &mut mem).committed);
        // Crash inside step 2's drain: records partially persisted.
        mem.arm_crash_during_flush(2);
        let rep = app.step(&gpu, &mut mem);
        assert!(rep.crashed);
        app.crash(&mut mem);
        let restored = app.restore(&gpu, &mut mem);
        assert!(restored.all_durable, "{restored:?}");
        assert_eq!(app.progress(&mut mem), 2, "in-flight step rolled forward");
        assert!(app.verify_invariants(&mut mem).is_empty());
    }

    #[test]
    fn crash_between_steps_restores_cleanly() {
        let (gpu, mut mem) = world(None);
        let mut app =
            DurableQueue::create(&mut mem, AppParams::small(BackendKind::LpChecksum, 13, 16));
        for _ in 0..3 {
            assert!(app.step(&gpu, &mut mem).committed);
        }
        app.crash(&mut mem);
        let rep = app.restore(&gpu, &mut mem);
        assert!(!rep.rolled_forward);
        assert_eq!(app.progress(&mut mem), 3);
        assert!(app.verify_invariants(&mut mem).is_empty());
    }

    #[test]
    fn survives_an_actively_faulty_device() {
        let (gpu, mut mem) = world(Some(FaultConfig::torn(21, 300)));
        let mut app = build_app(
            AppKind::Queue,
            AppParams::small(BackendKind::LpChecksum, 21, 16),
            &mut mem,
        );
        assert!(app.step(&gpu, &mut mem).committed);
        mem.arm_crash_during_flush(4);
        let _ = app.step(&gpu, &mut mem);
        app.crash(&mut mem);
        let restored = app.restore(&gpu, &mut mem);
        assert!(restored.all_durable, "{restored:?}");
        mem.set_fault_config(None);
        assert!(app.verify_invariants(&mut mem).is_empty());
        assert!(app.progress(&mut mem) >= 1);
    }
}
