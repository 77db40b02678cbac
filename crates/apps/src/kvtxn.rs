//! Durable-transaction variant of the MEGA-KV store.
//!
//! Each service step is one all-or-nothing *transaction batch*: `width`
//! put/delete operations over a bounded key universe, derived entirely
//! from `(seed, step)` — keys via an odd-stride permutation (distinct
//! within a batch, so threads never race on a key), operations ~70% put /
//! 30% delete, values a pure function of `(seed, key, step)`.
//!
//! The durable state is a [`megakv::KvStore`] plus the service manifest
//! `[committed_step, started_step]` — the window-1 case of
//! [`crate::service`]: the intent commits before the batch launches, the
//! step commits after the batch validated against durable media. Because
//! every operation is re-derivable, a crashed batch is rolled forward by
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
//! The audit keeps the committed transaction history applied to a host
//! `BTreeMap` and compares the entire key universe (presence, value, and
//! live-entry count — the count catches duplicate-key corruption that
//! per-key lookups cannot see).

use std::collections::BTreeMap;

use gpu_lp::{LpBlockSession, LpConfig, LpRuntime, Region};
use megakv::store::{EMPTY, NOT_FOUND, TOMBSTONE};
use megakv::KvStore;
use nvm::PersistMemory;
use simt::{BlockCtx, LaunchConfig};

use crate::service::{Protocol, Service};
use crate::{mix3, AppParams};

/// Threads (operations) per block.
const TPB: u64 = 32;

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
pub(crate) struct TxnStep<'a> {
    store: &'a KvStore,
    seed: u64,
    step: u64,
    universe: u64,
    batch: u64,
}

impl Region for TxnStep<'_> {
    fn name(&self) -> &str {
        "apps-kvtxn-step"
    }

    fn config(&self) -> LaunchConfig {
        LaunchConfig::linear(self.batch, TPB as u32)
    }

    fn run_region(&self, ctx: &mut BlockCtx<'_>, lp: &mut LpBlockSession<'_>) {
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
                    // twice. Pass 2: claim the first reusable slot (empty
                    // or tombstoned) — churn reclaims its own garbage.
                    let slot = self.store.probe(ctx, key, |_, k, _| k == key).or_else(|| {
                        self.store.probe(ctx, key, |ctx, k, kaddr| {
                            if k != EMPTY && k != TOMBSTONE {
                                return false;
                            }
                            let old = lp.atomic_cas_u64(ctx, kaddr, k, key);
                            old == k || old == key
                        })
                    });
                    let Some(value_addr) = slot else {
                        panic!("kv-txn probe window exhausted for key {key}");
                    };
                    lp.update(ctx, t, key);
                    lp.store_u64(ctx, t, value_addr, value);
                }
                TxnOp::Delete { key } => {
                    self.store.probe(ctx, key, |ctx, k, kaddr| {
                        if k == key {
                            lp.atomic_cas_u64(ctx, kaddr, key, TOMBSTONE);
                        }
                        k == key
                    });
                    lp.update(ctx, t, DELETED_TAG ^ key);
                }
            }
        }
    }

    fn region_images(&self, mem: &mut PersistMemory, block: u64, images: &mut Vec<u64>) {
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
    }
}

/// The transactional KV service. See the module docs for the protocol.
pub(crate) struct KvTxn {
    params: AppParams,
    store: KvStore,
    /// Power-of-two key universe; keys are `1 ..= universe`.
    universe: u64,
    rt: LpRuntime,
}

impl KvTxn {
    /// Allocates the store (sized for ≤25% load so probe windows never
    /// exhaust) and commits the empty-history manifest.
    pub(crate) fn create(mem: &mut PersistMemory, params: AppParams) -> Service<Self> {
        let universe = (params.width * 8).next_power_of_two();
        let store = KvStore::create(mem, universe / 2, 8);
        let manifest = Service::<Self>::manifest(mem);
        let blocks = params.width.div_ceil(TPB);
        let rt = LpRuntime::setup(mem, blocks, TPB, LpConfig::for_backend(params.backend));
        let kv = KvTxn {
            params,
            store,
            universe,
            rt,
        };
        Service::start(mem, manifest, params.max_steps, kv)
    }
}

impl Protocol for KvTxn {
    const NAME: &'static str = "kvtxn";
    const WINDOW: u64 = 1;
    const IN_FLIGHT: &'static str = "uncommitted transaction";
    const ROLL_FORWARD_REBOOT_NS: u64 = 0;

    type Cursors = [u64; 0];
    type Step<'a> = TxnStep<'a>;

    fn runtime(&self, _step: u64) -> &LpRuntime {
        &self.rt
    }

    fn region(&self, step: u64, _: [u64; 0]) -> TxnStep<'_> {
        TxnStep {
            store: &self.store,
            seed: self.params.seed,
            step,
            universe: self.universe,
            batch: self.params.width,
        }
    }

    fn images(&self, k: &TxnStep<'_>) -> u64 {
        // Two images per put, one per delete; charge the upper bound.
        2 * k.batch
    }

    /// The live keys and their values.
    type Reference = BTreeMap<u64, u64>;

    fn reference(&self) -> BTreeMap<u64, u64> {
        BTreeMap::new()
    }

    fn apply(&self, model: &mut BTreeMap<u64, u64>, step: u64) {
        for i in 0..self.params.width {
            match txn_of(self.params.seed, step, self.universe, i) {
                TxnOp::Put { key, value } => {
                    model.insert(key, value);
                }
                TxnOp::Delete { key } => {
                    model.remove(&key);
                }
            }
        }
    }

    fn audit(
        &self,
        mem: &mut PersistMemory,
        committed: u64,
        _: [u64; 0],
        model: &BTreeMap<u64, u64>,
        violations: &mut Vec<String>,
    ) {
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
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{world, RecoverableApp};
    use gpu_lp::BackendKind;

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
}
