//! Durable append-only logging/queue service.
//!
//! State in persistent memory:
//!
//! * `records[j]` — the append-only log: slot `j` holds the payload of the
//!   `j`-th enqueued message, derived as `payload(seed, j)` so the whole
//!   log is auditable from the seed;
//! * `receipts[j]` — the consume ledger: slot `j` holds the durable
//!   receipt `receipt(seed, j)` written when message `j` was consumed;
//! * the service manifest `[committed_step, started_step, tail, head]` —
//!   `tail` / `head` are the enqueue / consume cursors of the *committed*
//!   prefix.
//!
//! Each step enqueues a seeded batch at `tail` and consumes a seeded batch
//! at `head` in one GPU launch (one thread per message). Consume semantics
//! are **exactly-once observable**: a message is "delivered" exactly when
//! its receipt slot is durably non-zero, and the receipt is a pure
//! function of `(seed, j)` — so re-executing a crashed step rewrites
//! byte-identical receipts, and a receipt can never be written twice with
//! different contents or skipped while `head` moves past it.
//!
//! Crash protocol: the window-1 case of [`crate::service`] — the step's
//! intent (`started = step`, plus the committed cursors the batch was
//! derived from) is committed to the manifest *before* the launch; the new
//! cursors commit only after every record and receipt of the step
//! validated against durable media. `restore` therefore finds either
//! nothing in flight (crash landed between steps or tore the intent commit,
//! which reverts it) or a fully-described in-flight step it re-derives and
//! rolls forward through re-entrant resilient recovery.

use std::ops::Range;

use gpu_lp::{LpBlockSession, LpConfig, LpRuntime, Region};
use nvm::{Addr, PersistMemory};
use simt::{BlockCtx, LaunchConfig};

use crate::service::{Protocol, Service};
use crate::{mix3, AppParams};

/// Threads per block — small so even smoke-sized steps span several LP
/// regions and partial-persistence is region-granular.
const TPB: u64 = 32;

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

impl StepBatch {
    /// The cursors `[tail, head]` after this batch.
    fn after(self, [tail, head]: [u64; 2]) -> [u64; 2] {
        [tail + self.enqueue, head + self.consume]
    }
}

/// One queue step: threads `< enqueue` append records at `tail`, the rest
/// write consume receipts at `head`.
pub(crate) struct QueueStep {
    records: Addr,
    receipts: Addr,
    seed: u64,
    tail: u64,
    head: u64,
    batch: StepBatch,
}

impl QueueStep {
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

impl Region for QueueStep {
    fn name(&self) -> &str {
        "apps-queue-step"
    }

    fn config(&self) -> LaunchConfig {
        LaunchConfig::linear(self.items(), TPB as u32)
    }

    fn run_region(&self, ctx: &mut BlockCtx<'_>, lp: &mut LpBlockSession<'_>) {
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
    }

    fn region_images(&self, mem: &mut PersistMemory, block: u64, images: &mut Vec<u64>) {
        for t in 0..TPB {
            let i = block * TPB + t;
            if i < self.items() {
                let (addr, _) = self.effect(i);
                images.push(mem.read_u64(addr));
            }
        }
    }
}

/// The durable queue service. See the module docs for the protocol.
pub(crate) struct DurableQueue {
    params: AppParams,
    records: Addr,
    receipts: Addr,
    capacity: u64,
    rt: LpRuntime,
}

impl DurableQueue {
    /// Allocates the log arenas (sized for `params.max_steps` full-width
    /// steps) and commits the empty-queue manifest.
    pub(crate) fn create(mem: &mut PersistMemory, params: AppParams) -> Service<Self> {
        let capacity = params.max_steps * params.width;
        let records = mem.alloc(capacity * 8, 8);
        let receipts = mem.alloc(capacity * 8, 8);
        let manifest = Service::<Self>::manifest(mem);
        // A step touches at most `2 * width` messages.
        let max_blocks = (2 * params.width).div_ceil(TPB);
        let rt = LpRuntime::setup(mem, max_blocks, TPB, LpConfig::for_backend(params.backend));
        let queue = DurableQueue {
            params,
            records,
            receipts,
            capacity,
            rt,
        };
        Service::start(mem, manifest, params.max_steps, queue)
    }
}

impl Protocol for DurableQueue {
    const NAME: &'static str = "queue";
    const WINDOW: u64 = 1;
    const IN_FLIGHT: &'static str = "uncommitted step";
    const ROLL_FORWARD_REBOOT_NS: u64 = 0;

    /// `[tail, head]`.
    type Cursors = [u64; 2];
    type Step<'a> = QueueStep;

    fn runtime(&self, _step: u64) -> &LpRuntime {
        &self.rt
    }

    fn region(&self, step: u64, [tail, head]: [u64; 2]) -> QueueStep {
        QueueStep {
            records: self.records,
            receipts: self.receipts,
            seed: self.params.seed,
            tail,
            head,
            batch: batch_for(self.params.seed, step, self.params.width, tail, head),
        }
    }

    fn advance(&self, k: &QueueStep, cursors: [u64; 2]) -> [u64; 2] {
        k.batch.after(cursors)
    }

    fn images(&self, k: &QueueStep) -> u64 {
        k.items()
    }

    /// The seeded schedule's `[tail, head]`.
    type Reference = [u64; 2];

    fn reference(&self) -> [u64; 2] {
        [0, 0]
    }

    fn apply(&self, r: &mut [u64; 2], step: u64) {
        let [tail, head] = *r;
        *r = batch_for(self.params.seed, step, self.params.width, tail, head).after(*r);
    }

    fn audit(
        &self,
        mem: &mut PersistMemory,
        _committed: u64,
        [tail, head]: [u64; 2],
        &[et, eh]: &[u64; 2],
        violations: &mut Vec<String>,
    ) {
        // Cursor audit: the durable cursors against the seeded schedule.
        if (et, eh) != (tail, head) || head > tail || tail > self.capacity {
            violations.push(format!(
                "cursor mismatch: durable (tail={tail}, head={head}), replay (tail={et}, head={eh})"
            ));
        }
        // Data audit: every committed record and receipt, byte for byte.
        // Each run stops at its first bad word: one example is enough for
        // the report.
        let seed = self.params.seed;
        let end = tail.min(self.capacity);
        if let Some((j, got)) = first_mismatch(mem, self.records, 0..end, |j| payload(seed, j)) {
            violations.push(format!("record {j} corrupt: {got:#x}"));
        }
        let consumed = 0..head.min(tail);
        if let Some((j, got)) = first_mismatch(mem, self.receipts, consumed, |j| receipt(seed, j)) {
            violations.push(format!("receipt {j} corrupt: {got:#x} (delivery lost)"));
        }
        // Exactly-once: nothing past `head` may carry a receipt.
        if let Some((j, got)) = first_mismatch(mem, self.receipts, head..end, |_| 0) {
            violations.push(format!("receipt {j} written before consume: {got:#x}"));
        }
    }
}

/// Reads the `u64` array at `base` over `words` in order, stopping at the
/// first index `j` whose word is not `want(j)`: returns that index and the
/// word read.
fn first_mismatch(
    mem: &mut PersistMemory,
    base: Addr,
    words: Range<u64>,
    want: impl Fn(u64) -> u64,
) -> Option<(u64, u64)> {
    let mut j = words.start;
    let mut bad = None;
    mem.scan_u64(base.index(j, 8), 8, words.end.saturating_sub(j), |got| {
        if got != want(j) {
            bad = Some((j, got));
            return false;
        }
        j += 1;
        true
    });
    bad
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{world, RecoverableApp};
    use gpu_lp::BackendKind;

    /// The queue's data audit as it read before line runs: one `read_u64`
    /// per word, each loop breaking at its first bad word. The reference
    /// the differential test holds the run-based audit to.
    fn data_audit_per_word(
        q: &DurableQueue,
        mem: &mut PersistMemory,
        [tail, head]: [u64; 2],
        violations: &mut Vec<String>,
    ) {
        let seed = q.params.seed;
        for j in 0..tail.min(q.capacity) {
            let got = mem.read_u64(q.records.index(j, 8));
            if got != payload(seed, j) {
                violations.push(format!("record {j} corrupt: {got:#x}"));
                break;
            }
        }
        for j in 0..head.min(tail) {
            let got = mem.read_u64(q.receipts.index(j, 8));
            if got != receipt(seed, j) {
                violations.push(format!("receipt {j} corrupt: {got:#x} (delivery lost)"));
                break;
            }
        }
        for j in head..tail.min(q.capacity) {
            let got = mem.read_u64(q.receipts.index(j, 8));
            if got != 0 {
                violations.push(format!("receipt {j} written before consume: {got:#x}"));
                break;
            }
        }
    }

    #[test]
    fn run_audit_stops_where_the_per_word_audit_stops() {
        let [tail, head] = [150, 90];
        // (record, receipt, early receipt) to corrupt, if any.
        let cases: [[Option<u64>; 3]; 5] = [
            [None, None, None],
            [Some(77), None, None],
            [None, Some(31), None],
            [Some(5), Some(60), Some(120)],
            [None, None, Some(90)],
        ];
        for (i, &[record, receipt_at, early]) in cases.iter().enumerate() {
            // Tiny cache: the audit misses, fills and evicts all the way.
            let mut mem = PersistMemory::new(nvm::NvmConfig::tiny_cache());
            let params = AppParams::small(BackendKind::LpChecksum, 12, 4);
            let capacity = params.max_steps * params.width;
            let records = mem.alloc(capacity * 8, 8);
            let receipts = mem.alloc(capacity * 8, 8);
            let rt = LpRuntime::setup(&mut mem, 1, TPB, LpConfig::for_backend(params.backend));
            let q = DurableQueue {
                params,
                records,
                receipts,
                capacity,
                rt,
            };
            for j in 0..tail {
                mem.write_u64(records.index(j, 8), payload(params.seed, j));
            }
            for j in 0..head {
                mem.write_u64(receipts.index(j, 8), receipt(params.seed, j));
            }
            for (arena, j) in [(records, record), (receipts, receipt_at), (receipts, early)] {
                if let Some(j) = j {
                    mem.write_u64(arena.index(j, 8), 0xBAD);
                }
            }
            mem.flush_all();
            mem.set_fault_config(Some(nvm::FaultConfig::media(3, 1_500, 0)));
            let mut old = mem.clone();
            let mut got = Vec::new();
            q.audit(&mut mem, 4, [tail, head], &[tail, head], &mut got);
            let mut want = Vec::new();
            data_audit_per_word(&q, &mut old, [tail, head], &mut want);
            assert_eq!(got, want, "case {i}");
            assert_eq!(got.len(), cases[i].iter().flatten().count(), "case {i}");
            assert_eq!(mem.stats(), old.stats(), "case {i}");
            assert_eq!(mem.take_ecc_log(), old.take_ecc_log(), "case {i}");
        }
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
}
