//! Durable-transaction variant of the MEGA-KV store.
//!
//! Each service step is one all-or-nothing *transaction batch*: `width`
//! put/delete operations over a bounded key universe, derived entirely
//! from `(seed, step)` — keys via an odd-stride permutation (distinct
//! within a batch, so threads never race on a key), operations ~70% put /
//! 30% delete, values a pure function of `(seed, key, step)`.
//!
//! The durable state is a [`megakv::KvStore`] plus a [`DurableManifest`]
//! `[committed_step, started_step]`. The intent commits before the batch
//! launches; the step commits after the batch drained. Because every
//! operation is re-derivable, a crashed batch is rolled forward by
//! re-entrant resilient recovery with **semantic** checksum images — each
//! op folds `(key, value)` (or a key-tagged deleted marker), and the
//! recovery recomputation folds the same images via host lookups, so
//! validation is placement-independent: a re-execution that lands a key in
//! a different slot of its probe window still validates.
//!
//! Unlike the batch-pipeline insert kernel in `megakv` (which never reuses
//! tombstones), transactional churn (delete + re-put of the same working
//! set for hundreds of steps) would exhaust probe windows without reuse —
//! so this kernel first updates the key in place if present anywhere in
//! the window, and only otherwise claims the first empty *or tombstoned*
//! slot.
//!
//! The audit replays the committed transaction history into a host
//! `BTreeMap` and compares the entire key universe (presence, value, and
//! live-entry count — the count catches duplicate-key corruption that
//! per-key lookups cannot see).

use std::collections::BTreeMap;

use gpu_lp::{LpBlockSession, LpConfig, LpRuntime, Recoverable, ResilientRecovery};
use megakv::store::{EMPTY, NOT_FOUND, TOMBSTONE};
use megakv::KvStore;
use nvm::PersistMemory;
use simt::{BlockCtx, Gpu, Kernel, LaunchConfig};

use crate::manifest::DurableManifest;
use crate::{
    drain_all, mix3, restoration_charge, AppParams, RecoverableApp, RestoreReport, StepReport,
};

/// Threads (operations) per block.
const TPB: u64 = 32;

/// Re-entrant recovery attempts per restore.
const MAX_RESTORE_ATTEMPTS: u32 = 8;

/// Checksum image of a completed delete, tagged by key.
const DELETED_TAG: u64 = 0xDE1E_7ED0_0000_0000;

/// One transaction of a batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TxnOp {
    Put { key: u64, value: u64 },
    Delete { key: u64 },
}

/// Derives transaction `i` of step `step` over a power-of-two `universe`.
/// Keys are distinct within the batch: an odd stride is a bijection mod a
/// power of two.
fn txn_of(seed: u64, step: u64, universe: u64, i: u64) -> TxnOp {
    let base = mix3(seed, step, 0xBA5E);
    let stride = mix3(seed, step, 0x57E1) | 1;
    let key = (base.wrapping_add(i.wrapping_mul(stride)) & (universe - 1)) + 1;
    if mix3(seed, step ^ (i << 32), 0x0D) % 10 < 7 {
        let value = (mix3(seed, key, step) & 0x3FFF_FFFF_FFFF_FFFF) | 1;
        TxnOp::Put { key, value }
    } else {
        TxnOp::Delete { key }
    }
}

/// One transaction batch, one thread per operation.
struct TxnStepKernel<'a> {
    rt: &'a LpRuntime,
    store: &'a KvStore,
    seed: u64,
    step: u64,
    universe: u64,
    batch: u64,
}

impl Kernel for TxnStepKernel<'_> {
    fn name(&self) -> &str {
        "apps-kvtxn-step"
    }

    fn config(&self) -> LaunchConfig {
        LaunchConfig::linear(self.batch, TPB as u32)
    }

    fn run_block(&self, ctx: &mut BlockCtx<'_>) {
        let mut lp = LpBlockSession::begin(self.rt, ctx);
        for t in 0..ctx.threads_per_block() {
            ctx.set_active_thread(t);
            let i = ctx.global_thread_id(t);
            if i >= self.batch {
                continue;
            }
            // Hashing, signature work, transaction bookkeeping per op.
            ctx.charge_alu(1200);
            match txn_of(self.seed, self.step, self.universe, i) {
                TxnOp::Put { key, value } => {
                    // Pass 1: the key may already live anywhere in its
                    // probe window — update in place so it never exists
                    // twice.
                    let mut placed = false;
                    'find: for b in self.store.probe_buckets(key) {
                        for s in 0..self.store.slots() {
                            if ctx.load_u64(self.store.key_addr(b, s)) == key {
                                lp.update(ctx, t, key);
                                lp.store_u64(ctx, t, self.store.value_addr(b, s), value);
                                placed = true;
                                break 'find;
                            }
                            ctx.charge_alu(1);
                        }
                    }
                    // Pass 2: claim the first reusable slot (empty or
                    // tombstoned) — churn reclaims its own garbage.
                    if !placed {
                        'claim: for b in self.store.probe_buckets(key) {
                            for s in 0..self.store.slots() {
                                let kaddr = self.store.key_addr(b, s);
                                let k = ctx.load_u64(kaddr);
                                if k == EMPTY || k == TOMBSTONE {
                                    let old = lp.atomic_cas_u64(ctx, kaddr, k, key);
                                    if old == k || old == key {
                                        lp.update(ctx, t, key);
                                        lp.store_u64(ctx, t, self.store.value_addr(b, s), value);
                                        placed = true;
                                        break 'claim;
                                    }
                                }
                                ctx.charge_alu(1);
                            }
                        }
                    }
                    assert!(placed, "kv-txn probe window exhausted for key {key}");
                }
                TxnOp::Delete { key } => {
                    'probe: for b in self.store.probe_buckets(key) {
                        for s in 0..self.store.slots() {
                            let kaddr = self.store.key_addr(b, s);
                            if ctx.load_u64(kaddr) == key {
                                lp.atomic_cas_u64(ctx, kaddr, key, TOMBSTONE);
                                break 'probe;
                            }
                            ctx.charge_alu(1);
                        }
                    }
                    lp.update(ctx, t, DELETED_TAG ^ key);
                }
            }
        }
        lp.finalize(ctx);
    }
}

impl Recoverable for TxnStepKernel<'_> {
    fn recompute_block_checksums(&self, mem: &mut PersistMemory, block: u64) -> Vec<u64> {
        let mut images = Vec::new();
        for t in 0..TPB {
            let i = block * TPB + t;
            if i >= self.batch {
                continue;
            }
            match txn_of(self.seed, self.step, self.universe, i) {
                // Expected post-state: the key present with this step's
                // value. Anything else (missing key, stale value) folds a
                // mismatching image and the region re-executes.
                TxnOp::Put { key, value } => match self.store.lookup_host(mem, key) {
                    Some(v) if v == value => {
                        images.push(key);
                        images.push(v);
                    }
                    _ => {
                        images.push(NOT_FOUND);
                        images.push(NOT_FOUND);
                    }
                },
                TxnOp::Delete { key } => images.push(match self.store.lookup_host(mem, key) {
                    None => DELETED_TAG ^ key,
                    Some(_) => key,
                }),
            }
        }
        self.rt.digest_region(block, images)
    }
}

/// The transactional KV service. See the module docs for the protocol.
pub struct KvTxn {
    params: AppParams,
    manifest: DurableManifest,
    store: KvStore,
    /// Power-of-two key universe; keys are `1 ..= universe`.
    universe: u64,
    rt: LpRuntime,
    /// Host caches (rebuilt by `restore`): committed step and the replayed
    /// reference model of the committed prefix.
    committed: u64,
    model: BTreeMap<u64, u64>,
    last_restore_ns: u64,
}

impl KvTxn {
    /// Allocates the store (sized for ≤25% load so probe windows never
    /// exhaust) and commits the empty-history manifest.
    pub fn create(mem: &mut PersistMemory, params: AppParams) -> Self {
        let universe = (params.width * 8).next_power_of_two();
        let store = KvStore::create(mem, universe / 2, 8);
        let manifest = DurableManifest::create(mem, 2);
        let blocks = params.width.div_ceil(TPB);
        let rt = LpRuntime::setup(mem, blocks, TPB, LpConfig::for_backend(params.backend));
        drain_all(mem, 8);
        KvTxn {
            params,
            manifest,
            store,
            universe,
            rt,
            committed: 0,
            model: BTreeMap::new(),
            last_restore_ns: 0,
        }
    }

    fn kernel<'a>(&'a self, step: u64) -> TxnStepKernel<'a> {
        TxnStepKernel {
            rt: &self.rt,
            store: &self.store,
            seed: self.params.seed,
            step,
            universe: self.universe,
            batch: self.params.width,
        }
    }

    /// Applies step `step` to a host reference model.
    fn apply_to_model(
        model: &mut BTreeMap<u64, u64>,
        seed: u64,
        step: u64,
        universe: u64,
        batch: u64,
    ) {
        for i in 0..batch {
            match txn_of(seed, step, universe, i) {
                TxnOp::Put { key, value } => {
                    model.insert(key, value);
                }
                TxnOp::Delete { key } => {
                    model.remove(&key);
                }
            }
        }
    }

    /// Rebuilds the reference model of the committed prefix from scratch.
    fn replay_model(&self, committed: u64) -> BTreeMap<u64, u64> {
        let mut model = BTreeMap::new();
        for s in 1..=committed {
            Self::apply_to_model(
                &mut model,
                self.params.seed,
                s,
                self.universe,
                self.params.width,
            );
        }
        model
    }
}

impl RecoverableApp for KvTxn {
    fn name(&self) -> &'static str {
        "kvtxn"
    }

    fn step(&mut self, gpu: &Gpu, mem: &mut PersistMemory) -> StepReport {
        let step = self.committed + 1;
        let mut rep = StepReport {
            step,
            ..StepReport::default()
        };
        if !self.manifest.commit(mem, &[self.committed, step]) {
            rep.crashed = true;
            return rep;
        }
        self.rt.reset(mem);
        let k = self.kernel(step);
        let stats = gpu.launch(&k, mem).expect("kv-txn step launch");
        rep.exec_ns = stats.kernel_ns as u64;
        if mem.power_failed() {
            rep.crashed = true;
            return rep;
        }
        // Validate-then-commit (see `queue.rs`): only checksums recomputed
        // from durable media prove the batch, the drain ACK can lie.
        let durable = ResilientRecovery::new(gpu)
            .recover(&k, &self.rt, mem)
            .all_durable;
        if !durable || mem.power_failed() {
            rep.crashed = true;
            return rep;
        }
        if !self.manifest.commit(mem, &[step, step]) {
            rep.crashed = true;
            return rep;
        }
        Self::apply_to_model(
            &mut self.model,
            self.params.seed,
            step,
            self.universe,
            self.params.width,
        );
        self.committed = step;
        rep.committed = true;
        rep
    }

    fn crash(&mut self, mem: &mut PersistMemory) {
        if !mem.power_failed() {
            mem.crash();
        }
        self.committed = 0;
        self.model.clear();
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
        if started == committed + 1 {
            let k = self.kernel(started);
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
            // Two images per put, one per delete; charge the upper bound.
            rep.latency_ns = restoration_charge(2 * self.params.width, &outcome);
            if rep.all_durable
                && drain_all(mem, 8)
                && self.manifest.commit(mem, &[started, started])
            {
                rep.recovered_step = started;
            } else {
                rep.all_durable = false;
            }
        }
        let (_, fields) = self.manifest.load(mem);
        self.committed = fields[0];
        self.model = self.replay_model(self.committed);
        self.last_restore_ns = rep.latency_ns;
        rep
    }

    fn verify_invariants(&mut self, mem: &mut PersistMemory) -> Vec<String> {
        let mut violations = Vec::new();
        let (_, fields) = self.manifest.load(mem);
        let (committed, started) = (fields[0], fields[1]);
        if started != committed {
            violations.push(format!(
                "uncommitted transaction in flight after restore: started={started} committed={committed}"
            ));
        }
        let model = self.replay_model(committed);
        // Whole-universe sweep: presence and value of every possible key.
        for key in 1..=self.universe {
            let got = self.store.lookup_host(mem, key);
            let want = model.get(&key).copied();
            if got != want {
                violations.push(format!(
                    "key {key} after step {committed}: store={got:?}, model={want:?}"
                ));
                break;
            }
        }
        let live = self.store.live_entries(mem);
        if live != model.len() as u64 {
            violations.push(format!(
                "live-entry count {live} != model size {} (duplicate or ghost keys)",
                model.len()
            ));
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
    fn batches_are_permutations_with_mixed_ops() {
        let universe = 512;
        let mut keys = std::collections::BTreeSet::new();
        let (mut puts, mut dels) = (0, 0);
        for i in 0..64 {
            match txn_of(7, 3, universe, i) {
                TxnOp::Put { key, value } => {
                    assert!(value != EMPTY && value != NOT_FOUND);
                    keys.insert(key);
                    puts += 1;
                }
                TxnOp::Delete { key } => {
                    keys.insert(key);
                    dels += 1;
                }
            }
        }
        assert_eq!(keys.len(), 64, "keys must be distinct within a batch");
        assert!(puts > 0 && dels > 0, "both op kinds must occur");
        assert!(keys.iter().all(|&k| (1..=universe).contains(&k)));
    }

    #[test]
    fn transactions_commit_and_match_the_model() {
        let (gpu, mut mem) = world(None);
        let mut app = KvTxn::create(&mut mem, AppParams::small(BackendKind::LpChecksum, 41, 32));
        for _ in 0..6 {
            assert!(app.step(&gpu, &mut mem).committed);
        }
        assert_eq!(app.progress(&mut mem), 6);
        assert!(app.verify_invariants(&mut mem).is_empty());
    }

    #[test]
    fn heavy_churn_reuses_tombstones_without_probe_exhaustion() {
        let (gpu, mut mem) = world(None);
        // 40 steps over a small universe: every key is deleted and re-put
        // many times — the regime that exhausts windows without reuse.
        let mut app = KvTxn::create(&mut mem, AppParams::small(BackendKind::LpChecksum, 42, 64));
        for _ in 0..40 {
            assert!(app.step(&gpu, &mut mem).committed);
        }
        assert!(app.verify_invariants(&mut mem).is_empty());
    }

    #[test]
    fn crash_mid_batch_rolls_the_transaction_forward() {
        let (gpu, mut mem) = world(None);
        let mut app = KvTxn::create(&mut mem, AppParams::small(BackendKind::LpChecksum, 43, 32));
        for _ in 0..3 {
            assert!(app.step(&gpu, &mut mem).committed);
        }
        mem.arm_crash_during_flush(2);
        let rep = app.step(&gpu, &mut mem);
        assert!(rep.crashed);
        app.crash(&mut mem);
        let restored = app.restore(&gpu, &mut mem);
        assert!(restored.all_durable, "{restored:?}");
        assert_eq!(app.progress(&mut mem), 4, "the batch is all-or-nothing");
        assert!(app.verify_invariants(&mut mem).is_empty());
    }

    #[test]
    fn survives_an_actively_faulty_device() {
        let (gpu, mut mem) = world(Some(FaultConfig::torn(44, 300)));
        let mut app = KvTxn::create(&mut mem, AppParams::small(BackendKind::LpChecksum, 44, 32));
        assert!(app.step(&gpu, &mut mem).committed);
        mem.arm_crash_during_flush(3);
        let _ = app.step(&gpu, &mut mem);
        app.crash(&mut mem);
        let restored = app.restore(&gpu, &mut mem);
        assert!(restored.all_durable, "{restored:?}");
        mem.set_fault_config(None);
        assert!(app.verify_invariants(&mut mem).is_empty());
        assert!(app.progress(&mut mem) >= 1);
    }
}
