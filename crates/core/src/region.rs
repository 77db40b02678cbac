//! The LP runtime, the per-block instrumentation session, and the one
//! kernel shape every protected region takes.
//!
//! [`LpRuntime`] owns the launch-level pieces: configuration, the checksum
//! table in device memory, and scratch space. [`LpBlockSession`] is what a
//! region body holds while executing one block (one LP region): it keeps
//! the per-thread checksum accumulators and wraps the protected stores.
//! A protected kernel is a [`Region`] — its body and the read-back of what
//! it folded — launched as an [`LpKernel`], which opens the session before
//! the body, reduces and publishes the checksums after it, and turns the
//! read-back into the recovery digest (the code §VI's compiler generates
//! from the two pragmas, Listings 1–2 and 7).
//!
//! The persistency discipline has one name — the [`BackendKind`] in
//! [`LpConfig::backend`] — and one dispatch: the runtime resolves each
//! region to a [`PersistencyBackend`] object and asks *it*. A contract that
//! is checksum-validated means the checksummed path above (no session, no
//! persist instruction); any other contract means the region opens that
//! backend's [`BlockPersistSession`] and commits with a durable token.
//! Everything a discipline does per store — flushes, epochs, persist
//! buffers, the logged-eager undo log — lives behind that session in
//! `lp-persist`.

use crate::checksum::{f32_store_image, f64_store_image, ChecksumSet};
use crate::recovery::Recoverable;
use crate::reduce::{block_reduce, scratch_words, ReduceStrategy};
use crate::table::{
    AtomicPolicy, ChecksumTable, ChecksumTableOps, LockPolicy, TableKind, TableStats,
};
use lp_persist::{
    backend_for, BackendKind, BlockPersistSession, DurabilityContract, EagerBackend,
    EagerFlushPolicy, EpochBackend, PersistencyBackend,
};
use lp_policy::{
    PolicyConfig, PolicyEngine, PolicyJournal, PolicyMode, RegionSignals, SwitchEvent,
};
use nvm::{Addr, PersistMemory};
use serde::{Deserialize, Serialize};
use simt::{BlockCtx, Kernel, LaunchConfig};
use std::cell::RefCell;

/// Scratch slots for the sequential-reduction spill buffer. Blocks reuse
/// slots modulo this count (matching how many blocks are ever in flight).
const SCRATCH_SLOTS: u64 = 4096;

/// The full LP design point: one coordinate in the paper's design space.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LpConfig {
    /// Which persistency discipline instruments the kernel.
    ///
    /// The paper's subject is [`BackendKind::LpChecksum`] (checksums +
    /// natural eviction). [`BackendKind::Eager`] is the comparison baseline
    /// it repeatedly cites (20–40 % slowdowns from cache-line flushing and
    /// persist barriers, §I/§II), here with re-execution recovery: a
    /// persist barrier drains the region's flushes, then a durable
    /// per-region commit token is published — if the token survives a
    /// crash, the region's data provably persisted first, and uncommitted
    /// regions are simply re-executed (they are idempotent).
    /// [`BackendKind::Epoch`] and [`BackendKind::Sbrp`] commit the same way
    /// behind cheaper fences. Under [`BackendKind::Adaptive`] an
    /// `lp-policy` engine observes live per-region signals and moves each
    /// region along the degradation ladder (LP → epoch → eager →
    /// checkpoint+quarantine) at launch boundaries; every switch is
    /// recorded in a durable, checksummed journal *before* it takes
    /// effect, so a crash mid-switch recovers under exactly one contract.
    pub backend: BackendKind,
    /// Which checksums protect each region (simultaneously).
    pub checksums: ChecksumSet,
    /// Checksum-table organisation.
    pub table: TableKind,
    /// Lock discipline for insertions (Table III axis).
    pub lock: LockPolicy,
    /// Proper atomics vs. racy emulation (§IV-D3 axis).
    pub atomic: AtomicPolicy,
    /// Block-level reduction strategy (Table IV axis).
    pub reduce: ReduceStrategy,
    /// When the eager backend writes lines back: strict per-store, or the
    /// logged baseline of E0 (only consulted under [`BackendKind::Eager`]).
    pub eager_flush: EagerFlushPolicy,
    /// Policy-engine tunables (only consulted under
    /// [`BackendKind::Adaptive`]).
    pub policy: PolicyConfig,
}

impl LpConfig {
    /// The paper's final design (§V + §VII-1): checksum global array,
    /// warp-shuffle reduction, lock-free, modular + parity checksums.
    /// Geometric-mean overhead in the paper: **2.1 %**.
    pub fn recommended() -> Self {
        Self {
            backend: BackendKind::LpChecksum,
            checksums: ChecksumSet::modular_parity(),
            table: TableKind::global_array(),
            lock: LockPolicy::LockFree,
            atomic: AtomicPolicy::Atomic,
            reduce: ReduceStrategy::ParallelShuffle,
            eager_flush: EagerFlushPolicy::PerStore,
            policy: PolicyConfig::default(),
        }
    }

    /// The logged (epoch) Eager Persistency baseline: per-line undo log +
    /// one deferred write-back per dirtied line + barrier + commit token.
    pub fn eager_logged() -> Self {
        Self {
            eager_flush: EagerFlushPolicy::AtCommit,
            ..Self::for_backend(BackendKind::Eager)
        }
    }

    /// Replaces the policy-engine tunables (adaptive mode).
    pub fn with_policy(mut self, policy: PolicyConfig) -> Self {
        self.policy = policy;
        self
    }

    /// The design point characterising backend `kind` in a model sweep:
    /// the recommended LP configuration with only the persistency
    /// discipline swapped out.
    pub fn for_backend(kind: BackendKind) -> Self {
        Self::recommended().with_backend(kind)
    }

    /// Quadratic-probing baseline (the "Quad" design of Fig. 5).
    pub fn quad() -> Self {
        Self {
            table: TableKind::quad(),
            ..Self::recommended()
        }
    }

    /// Cuckoo-hashing baseline (the "Cuckoo" design of Fig. 5).
    pub fn cuckoo() -> Self {
        Self {
            table: TableKind::cuckoo(),
            ..Self::recommended()
        }
    }

    /// Replaces the checksum set.
    pub fn with_checksums(mut self, set: ChecksumSet) -> Self {
        self.checksums = set;
        self
    }

    /// Replaces the lock policy.
    pub fn with_lock(mut self, lock: LockPolicy) -> Self {
        self.lock = lock;
        self
    }

    /// Replaces the atomic policy.
    pub fn with_atomic(mut self, atomic: AtomicPolicy) -> Self {
        self.atomic = atomic;
        self
    }

    /// Replaces the reduction strategy.
    pub fn with_reduce(mut self, reduce: ReduceStrategy) -> Self {
        self.reduce = reduce;
        self
    }

    /// Swaps the persistency discipline, keeping every other knob (table
    /// organisation, checksums, reduction) of this design point.
    pub fn with_backend(mut self, kind: BackendKind) -> Self {
        self.backend = kind;
        self
    }

    /// Checks the configuration is self-consistent.
    ///
    /// # Errors
    ///
    /// Rejects parallel reduction with a non-associative checksum set.
    pub fn validate(&self) -> Result<(), String> {
        if self.reduce == ReduceStrategy::ParallelShuffle && !self.checksums.is_associative() {
            return Err("parallel reduction requires associative checksums (no Adler-32)".into());
        }
        Ok(())
    }
}

impl Default for LpConfig {
    fn default() -> Self {
        Self::recommended()
    }
}

/// The policy engine and the durable journal its rungs are rebuilt from.
#[derive(Debug, Clone)]
struct PolicyState {
    engine: PolicyEngine,
    journal: PolicyJournal,
}

/// Everything [`BackendKind::Adaptive`] adds to a runtime.
#[derive(Debug, Clone)]
struct AdaptiveState {
    /// A region's rung lives in the engine and nowhere else in memory. It
    /// moves only *after* the journal has durably recorded the switch, and
    /// is rebuilt from the journal on [`LpRuntime::reload_policy`] — so it
    /// never disagrees with the durable record for longer than the switch
    /// call itself. A `RefCell`, not a lock: `LpRuntime` is `!Sync` (the
    /// table counters are `Cell`s), so there is no second thread to
    /// exclude, and a `RefCell` keeps it `!Sync` by construction.
    policy: RefCell<PolicyState>,
    /// Fixed backends the explicit rungs resolve to.
    eager: EagerBackend,
    epoch: EpochBackend,
}

/// Launch-level LP state: the checksum table and scratch space in device
/// memory, plus the configuration.
///
/// One `LpRuntime` protects one kernel launch (its keys are the launch's
/// thread-block IDs). Applications with several kernels create one runtime
/// per kernel.
///
/// A clone forks the runtime's host-side state — the table's counters and
/// cuckoo hash seeds, the policy engine and the journal cursor — so it and
/// the original evolve independently from there; the device-side state
/// lives in the [`PersistMemory`] and forks with it.
#[derive(Debug, Clone)]
pub struct LpRuntime {
    config: LpConfig,
    num_regions: u64,
    threads_per_block: u64,
    table: ChecksumTable,
    scratch: Option<Addr>,
    /// The persistency model of this launch: what every region resolves to
    /// unless an adaptive rung says otherwise.
    backend: Box<dyn PersistencyBackend>,
    /// Policy engine + journal (adaptive launches only).
    adaptive: Option<AdaptiveState>,
}

impl LpRuntime {
    /// Allocates the checksum table (and scratch, if the sequential
    /// reduction is selected) for a launch of `num_regions` thread blocks
    /// of `threads_per_block` threads.
    ///
    /// # Panics
    ///
    /// Panics if `config` fails [`LpConfig::validate`] or the geometry is
    /// zero.
    pub fn setup(
        mem: &mut PersistMemory,
        num_regions: u64,
        threads_per_block: u64,
        config: LpConfig,
    ) -> Self {
        config.validate().expect("invalid LpConfig");
        assert!(num_regions > 0 && threads_per_block > 0, "empty launch");
        let arity = config.checksums.arity();
        // The hash functions' seeds (the array hashes nothing).
        let seed = match config.table {
            TableKind::QuadraticProbing { .. } => 0x1EAF_5EED,
            TableKind::Cuckoo { .. } => 0xC0C2_005E,
            TableKind::GlobalArray => 0,
        };
        let table = ChecksumTable::create(
            mem,
            config.table,
            num_regions,
            arity,
            config.lock,
            config.atomic,
            seed,
        );
        let scratch = (config.reduce == ReduceStrategy::SequentialMemory).then(|| {
            let slots = num_regions.min(SCRATCH_SLOTS);
            mem.alloc(slots * scratch_words(threads_per_block, arity) * 8, 8)
        });
        let logged = (config.backend, config.eager_flush)
            == (BackendKind::Eager, EagerFlushPolicy::AtCommit);
        let backend: Box<dyn PersistencyBackend> = if logged {
            Box::new(EagerBackend::at_commit(mem, num_regions))
        } else {
            backend_for(config.backend)
        };
        let adaptive = (config.backend == BackendKind::Adaptive).then(|| AdaptiveState {
            policy: RefCell::new(PolicyState {
                engine: PolicyEngine::new(num_regions, config.policy),
                journal: PolicyJournal::create(mem, (num_regions * 8).clamp(64, 8192)),
            }),
            eager: EagerBackend::per_store(),
            epoch: EpochBackend,
        });
        Self {
            config,
            num_regions,
            threads_per_block,
            table,
            scratch,
            backend,
            adaptive,
        }
    }

    /// The durability contract of the active persistency model.
    pub fn contract(&self) -> DurabilityContract {
        self.backend.contract()
    }

    /// The configuration this runtime was built with.
    pub fn config(&self) -> &LpConfig {
        &self.config
    }

    /// Number of LP regions (thread blocks) covered.
    pub fn num_regions(&self) -> u64 {
        self.num_regions
    }

    /// The checksum table.
    pub fn table(&self) -> &ChecksumTable {
        &self.table
    }

    /// Table instrumentation counters (collisions etc. — Table II data).
    pub fn table_stats(&self) -> TableStats {
        self.table.stats()
    }

    /// Clears the table (and its counters) for a fresh launch epoch.
    pub fn reset(&self, mem: &mut PersistMemory) {
        self.table.reset(mem);
    }

    /// Reads back the published checksums for region `key` (recovery path).
    pub fn lookup(&self, mem: &mut PersistMemory, key: u64) -> Option<Vec<u64>> {
        self.table.lookup(mem, key)
    }

    /// Device bytes the checksum table occupies (Table V space column).
    pub fn table_bytes(&self) -> u64 {
        self.table.size_bytes()
    }

    /// Byte ranges `(base, len)` of the checksum-table storage. A cache
    /// line from these ranges lost in a crash shows up as a *validation*
    /// failure of whichever regions' entries it held — it is accounted for
    /// separately from lost workload data by crash-loss oracles.
    pub fn table_ranges(&self) -> Vec<(u64, u64)> {
        let mut ranges = self.table.storage_ranges();
        if let Some(a) = &self.adaptive {
            // The policy journal is instrumentation metadata like the
            // table: losing its lines degrades regions to an older (still
            // well-defined) contract, it never loses workload data.
            ranges.push(a.policy.borrow().journal.storage_range());
        }
        ranges
    }

    /// Whether this runtime runs under the adaptive policy engine.
    pub fn is_adaptive(&self) -> bool {
        self.adaptive.is_some()
    }

    /// The current policy rung of region `key` (`None` for fixed-mode
    /// runtimes; the default rung for a key outside the launch).
    fn policy_mode(&self, key: u64) -> Option<PolicyMode> {
        let a = self.adaptive.as_ref()?;
        Some(a.policy.borrow().engine.current(key).unwrap_or_default())
    }

    /// Snapshot of every region's current policy rung (adaptive only).
    pub fn policy_modes(&self) -> Option<Vec<PolicyMode>> {
        (0..self.num_regions).map(|r| self.policy_mode(r)).collect()
    }

    /// The engine's monotone device-fault floor (adaptive only).
    pub fn policy_floor(&self) -> Option<PolicyMode> {
        let a = self.adaptive.as_ref()?;
        Some(a.policy.borrow().engine.floor())
    }

    /// Every committed mode switch so far, in commit order (adaptive only;
    /// empty after a reload — the journal, not this log, is the durable
    /// record).
    pub fn policy_history(&self) -> Vec<SwitchEvent> {
        match &self.adaptive {
            Some(a) => a.policy.borrow().engine.history().to_vec(),
            None => Vec::new(),
        }
    }

    /// Rebuilds the effective per-region modes from the durable policy
    /// journal — the reboot path, also invoked at the top of
    /// [`LpRuntime::failing_regions`] so every region is judged under the
    /// contract the journal proves it last switched to. A no-op for
    /// fixed-mode runtimes.
    fn reload_policy(&self, mem: &PersistMemory) {
        let Some(a) = &self.adaptive else { return };
        let mut policy = a.policy.borrow_mut();
        let records = policy.journal.replay(mem);
        let modes = PolicyJournal::effective_modes(&records, self.num_regions);
        for (r, m) in modes.into_iter().enumerate() {
            policy.engine.resync(r as u64, m);
        }
    }

    /// Feeds one observation window for `region` into the policy engine.
    /// Returns the engine's proposed switch target once hysteresis is
    /// satisfied (`None` for fixed-mode runtimes, steady state, or a
    /// region outside the launch).
    fn adaptive_observe(&self, region: u64, signals: &RegionSignals) -> Option<PolicyMode> {
        let a = self.adaptive.as_ref()?;
        a.policy.borrow_mut().engine.observe(region, signals)
    }

    /// Durably switches `region` to `target`: appends a journal record,
    /// verifies it against the durable image, and only then moves the
    /// region's rung. Returns `false` — and leaves the region on its old
    /// contract — when the device refused durability, the journal is full,
    /// or `region` is outside the launch. Call between launches, never
    /// while the region is executing.
    pub fn switch_region(&self, mem: &mut PersistMemory, region: u64, target: PolicyMode) -> bool {
        let Some(a) = &self.adaptive else {
            return false;
        };
        let mut policy = a.policy.borrow_mut();
        let Some(old) = policy.engine.current(region) else {
            return false;
        };
        if old == target {
            return true;
        }
        if !policy.journal.append(mem, region, old, target) {
            return false;
        }
        policy.engine.commit(region, target);
        true
    }

    /// Convenience: observe one window for `region` and, if the engine
    /// proposes a switch, perform it. Returns the committed target.
    pub fn adaptive_step(
        &self,
        mem: &mut PersistMemory,
        region: u64,
        signals: &RegionSignals,
    ) -> Option<PolicyMode> {
        let target = self.adaptive_observe(region, signals)?;
        self.switch_region(mem, region, target).then_some(target)
    }

    /// What region `key` runs and is validated under: the backend object to
    /// ask, and whether the checkpoint rung's finalize drain applies. The
    /// backend's contract decides the rest — checksum-validated means
    /// accumulators, a sealed digest and no session; otherwise the region
    /// opens that backend's session and is witnessed by its commit token.
    /// Under adaptive the answer is per region, read from the engine (i.e.
    /// the replayed journal), so validation always judges a region under
    /// the contract it durably switched to.
    fn discipline(&self, key: u64) -> (&dyn PersistencyBackend, bool) {
        let launch = self.backend.as_ref();
        let Some(a) = &self.adaptive else {
            return (launch, false);
        };
        match a.policy.borrow().engine.current(key).unwrap_or_default() {
            PolicyMode::Lp => (launch, false),
            PolicyMode::Checkpoint => (launch, true),
            PolicyMode::Epoch => (&a.epoch, false),
            PolicyMode::Eager => (&a.eager, false),
        }
    }

    /// Whether `recomputed` matches the published checksums of `key`.
    pub fn validate_region(&self, mem: &mut PersistMemory, key: u64, recomputed: &[u64]) -> bool {
        match self.lookup(mem, key) {
            Some(stored) => stored == recomputed,
            None => false,
        }
    }

    /// The regions of `kernel` that fail validation against current memory
    /// (checksum mismatch or missing table entry), ascending — the one
    /// place recovery judges regions.
    ///
    /// Adaptive runtimes first resync every region's contract from the
    /// durable policy journal (a no-op for fixed modes): a region is always
    /// judged under the mode the journal proves it last switched to, never
    /// under a half-applied switch.
    pub fn failing_regions(&self, kernel: &dyn Recoverable, mem: &mut PersistMemory) -> Vec<u64> {
        self.reload_policy(mem);
        (0..kernel.config().num_blocks())
            .filter(|&b| {
                let recomputed = kernel.recompute_block_checksums(mem, b);
                !self.validate_region(mem, b, &recomputed)
            })
            .collect()
    }

    /// Folds the per-region *seal* into a reduced checksum vector.
    ///
    /// The paper's Listing 1 initialises each region's checksum to a
    /// distinctive value (NaN) so that a region that never ran cannot
    /// vacuously match: all-zero output data digests to zero, and a
    /// freshly-allocated table entry is also zero. We implement the same
    /// idea associatively by folding `splitmix64(key + 1)` into the reduced
    /// checksums — both at publish time and at recovery recompute time.
    fn seal(&self, key: u64, mut reduced: Vec<u64>) -> Vec<u64> {
        let seed = crate::table::splitmix64(key + 1);
        for (v, kind) in reduced.iter_mut().zip(self.config.checksums.kinds()) {
            *v = if kind.is_associative() {
                kind.combine(*v, seed)
            } else {
                kind.update(*v, seed)
            };
        }
        reduced
    }

    /// The durable commit token an explicit (commit-token) region `key`
    /// publishes — a per-region constant: data were made durable *before*
    /// the token, so a surviving token implies durable data.
    fn commit_token(&self, key: u64) -> Vec<u64> {
        (0..self.config.checksums.arity() as u64)
            .map(|c| crate::table::splitmix64(key.wrapping_mul(2) + 1 + (c << 32)))
            .collect()
    }

    /// The checksum vector region `key` is *expected* to publish for the
    /// store-image sequence `images` — the recovery-side recomputation
    /// (Listing 7's `validate()` input). Folds in the region seal.
    fn digest_region(&self, key: u64, images: impl IntoIterator<Item = u64>) -> Vec<u64> {
        if self.discipline(key).0.contract().checksum_validated {
            self.seal(key, self.config.checksums.digest(images))
        } else {
            // Explicit-persistency validation does not look at the data:
            // presence of the commit token is the proof of durability.
            self.commit_token(key)
        }
    }

    /// Byte ranges `(base, len)` of device memory that hold *transient*
    /// instrumentation state: the sequential-reduction scratch buffer and
    /// whatever the backend keeps (the logged-eager undo log). Their
    /// contents are consumed within the region that writes them, so cache
    /// lines from these ranges that are lost in a crash do not represent
    /// lost program output. Crash-loss oracles must exclude them when
    /// attributing lost lines to blocks.
    pub fn transient_ranges(&self) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        if let Some(base) = self.scratch {
            let slots = self.num_regions.min(SCRATCH_SLOTS);
            let words = scratch_words(self.threads_per_block, self.config.checksums.arity());
            out.push((base.raw(), slots * words * 8));
        }
        out.extend(self.backend.transient_range());
        out
    }

    fn scratch_for_block(&self, block: u64) -> Option<Addr> {
        self.scratch.map(|base| {
            let slots = self.num_regions.min(SCRATCH_SLOTS);
            let words = scratch_words(self.threads_per_block, self.config.checksums.arity());
            base.index(block % slots, words * 8)
        })
    }
}

/// The programmer's half of a protected kernel: the region body and the
/// read-back of what it folds. [`LpKernel`] supplies the rest.
///
/// Regions must be idempotent (re-executable): re-running a block always
/// reproduces the same output, the property §IV-A relies on for trivial
/// recovery functions.
pub trait Region {
    /// Human-readable kernel name (used in statistics and reports).
    fn name(&self) -> &str;

    /// Grid and block dimensions of the launch.
    fn config(&self) -> LaunchConfig;

    /// Executes one thread block, routing every persistent store through
    /// `lp` (a disabled session's stores are plain stores).
    fn run_region(&self, ctx: &mut BlockCtx<'_>, lp: &mut LpBlockSession<'_>);

    /// The store images block `block` folded, read back from `mem` in the
    /// order its session folded them: the recomputation side of Listing 7.
    fn region_images(&self, mem: &mut PersistMemory, block: u64) -> Vec<u64>;
}

impl<R: Region + ?Sized> Region for &R {
    fn name(&self) -> &str {
        (**self).name()
    }

    fn config(&self) -> LaunchConfig {
        (**self).config()
    }

    fn run_region(&self, ctx: &mut BlockCtx<'_>, lp: &mut LpBlockSession<'_>) {
        (**self).run_region(ctx, lp)
    }

    fn region_images(&self, mem: &mut PersistMemory, block: u64) -> Vec<u64> {
        (**self).region_images(mem, block)
    }
}

/// A [`Region`] launched under an LP runtime: each block opens an
/// [`LpBlockSession`], runs the body, and reduces and publishes its
/// checksums as the block's last action. `rt = None` is the uninstrumented
/// baseline, with the same code path and no LP work.
#[derive(Debug)]
pub struct LpKernel<'rt, R> {
    region: R,
    rt: Option<&'rt LpRuntime>,
}

impl<'rt, R: Region> LpKernel<'rt, R> {
    /// Protects `region` with `rt` (or runs it bare under `None`).
    pub fn new(region: R, rt: Option<&'rt LpRuntime>) -> Self {
        Self { region, rt }
    }

    /// The region this kernel runs.
    pub fn region(&self) -> &R {
        &self.region
    }
}

impl<R: Region> Kernel for LpKernel<'_, R> {
    fn name(&self) -> &str {
        self.region.name()
    }

    fn config(&self) -> LaunchConfig {
        self.region.config()
    }

    fn run_block(&self, ctx: &mut BlockCtx<'_>) {
        let mut lp = LpBlockSession::begin(self.rt, ctx);
        self.region.run_region(ctx, &mut lp);
        lp.finalize(ctx);
    }
}

impl<R: Region> Recoverable for LpKernel<'_, R> {
    fn recompute_block_checksums(&self, mem: &mut PersistMemory, block: u64) -> Vec<u64> {
        let rt = self.rt.expect("recovery needs the LP runtime");
        rt.digest_region(block, self.region.region_images(mem, block))
    }
}

/// Per-block LP instrumentation: per-thread checksum accumulators plus the
/// protected-store wrappers (the code Listing 2 adds to the kernel).
///
/// [`LpKernel`] opens one at block start, hands it to the region body, and
/// finalizes it as the block's last LP action; a body routes every
/// persistent store through it.
#[derive(Debug)]
pub struct LpBlockSession<'rt> {
    rt: Option<&'rt LpRuntime>,
    acc: Vec<u64>,
    arity: usize,
    /// Persistency actions of an explicit (commit-token) region; `None` on
    /// the checksummed path — LP issues zero persist instructions, and its
    /// hot path stays free of dynamic dispatch.
    psession: Option<Box<dyn BlockPersistSession>>,
    /// Line bases the region dirtied — kept only on the adaptive ladder's
    /// checkpoint rung, whose finalize proactively drains each one.
    ckpt_lines: Option<Vec<u64>>,
}

impl<'rt> LpBlockSession<'rt> {
    /// Starts an LP region for the current block: one accumulator vector
    /// per thread, reset to the checksum identity (`ResetCheckSum()` in the
    /// paper's Listing 1). `None` produces a disabled session whose stores
    /// are plain stores and whose `finalize` is a no-op.
    fn begin(rt: Option<&'rt LpRuntime>, ctx: &mut BlockCtx<'_>) -> Self {
        let mut session = Self {
            rt,
            acc: Vec::new(),
            arity: 0,
            psession: None,
            ckpt_lines: None,
        };
        let Some(rt) = rt else { return session };
        session.arity = rt.config.checksums.arity();
        let (backend, drain) = rt.discipline(ctx.block_id());
        if !backend.contract().checksum_validated {
            // Explicit regions keep no accumulators: persistence comes
            // from the backend's flushes/queue acceptances, not checksums.
            session.psession = Some(backend.begin_block(ctx.block_id()));
            return session;
        }
        // Checksummed region opens here: tell any attached access observer
        // (zero-cost; feeds the persistency-coverage pass).
        ctx.note_region_begin();
        let init = rt.config.checksums.init();
        session.acc = init.repeat(ctx.threads_per_block() as usize);
        session.ckpt_lines = drain.then(Vec::new);
        session
    }

    /// Folds an explicit 64-bit store image into thread `t`'s accumulators
    /// (`UpdateCheckSum()` in Listing 1) without performing a store.
    /// A no-op in an explicit (commit-token) region: no checksums there.
    #[inline]
    pub fn update(&mut self, ctx: &mut BlockCtx<'_>, t: u64, value_image: u64) {
        if let Some(rt) = self.rt {
            if self.acc.is_empty() {
                // Explicit region: no checksum accumulators to fold into.
                return;
            }
            let set = &rt.config.checksums;
            let base = t as usize * self.arity;
            set.update(&mut self.acc[base..base + self.arity], value_image);
            ctx.charge_alu(set.update_alu_ops());
        }
    }

    /// Persistency hook for a protected store to `addr`: an explicit region
    /// announces it to its backend session (flush, epoch bookkeeping,
    /// persist-buffer insertion, undo logging — whatever the model does);
    /// a plain checksummed region does nothing at all.
    #[inline]
    fn persist_store(&mut self, ctx: &mut BlockCtx<'_>, addr: Addr) {
        if let Some(lines) = self.ckpt_lines.as_mut() {
            // Checkpoint rung: remember the dirtied line for the finalize
            // drain (regions touch few distinct lines, hence the linear
            // scan).
            let line = addr.raw() & !(ctx.line_size() - 1);
            if !lines.contains(&line) {
                lines.push(line);
            }
        } else if let Some(s) = self.psession.as_deref_mut() {
            s.on_store(ctx, addr);
        }
    }

    /// Marks `addr` as folded into the region's checksum accumulation for
    /// an attached access observer (checksummed regions only — explicit
    /// ones have no checksum coverage to check).
    #[inline]
    fn note_covered(&self, ctx: &mut BlockCtx<'_>, addr: Addr) {
        if self.rt.is_some() && !self.acc.is_empty() {
            ctx.note_protected_store(addr);
        }
    }

    /// Protected `f32` store by thread `t`: performs the global store and
    /// folds the value into the thread's checksums.
    #[inline]
    pub fn store_f32(&mut self, ctx: &mut BlockCtx<'_>, t: u64, addr: Addr, v: f32) {
        ctx.store_f32(addr, v);
        self.update(ctx, t, f32_store_image(v));
        self.note_covered(ctx, addr);
        self.persist_store(ctx, addr);
    }

    /// Protected `f64` store by thread `t`.
    #[inline]
    pub fn store_f64(&mut self, ctx: &mut BlockCtx<'_>, t: u64, addr: Addr, v: f64) {
        ctx.store_f64(addr, v);
        self.update(ctx, t, f64_store_image(v));
        self.note_covered(ctx, addr);
        self.persist_store(ctx, addr);
    }

    /// Protected `u32` store by thread `t`.
    #[inline]
    pub fn store_u32(&mut self, ctx: &mut BlockCtx<'_>, t: u64, addr: Addr, v: u32) {
        ctx.store_u32(addr, v);
        self.update(ctx, t, v as u64);
        self.note_covered(ctx, addr);
        self.persist_store(ctx, addr);
    }

    /// Protected `u64` store by thread `t`.
    #[inline]
    pub fn store_u64(&mut self, ctx: &mut BlockCtx<'_>, t: u64, addr: Addr, v: u64) {
        ctx.store_u64(addr, v);
        self.update(ctx, t, v);
        self.note_covered(ctx, addr);
        self.persist_store(ctx, addr);
    }

    /// Protected atomic compare-and-swap: performs the CAS and, when it
    /// wrote (`old == compare`), routes the dirtied line through the
    /// active explicit backend's session so the mutation is covered by the
    /// model's durability discipline. No checksum fold happens here —
    /// atomic effects have kernel-specific post-state images that the
    /// kernel folds via [`LpBlockSession::update`] (LP recovery recomputes
    /// from post-state, not from the CAS argument), so under LP this is
    /// exactly [`BlockCtx::atomic_cas_u64`].
    pub fn atomic_cas_u64(
        &mut self,
        ctx: &mut BlockCtx<'_>,
        addr: Addr,
        compare: u64,
        new: u64,
    ) -> u64 {
        let old = ctx.atomic_cas_u64(addr, compare, new);
        if old == compare {
            self.persist_store(ctx, addr);
        }
        old
    }

    /// Ends the LP region: reduces the per-thread accumulators with the
    /// configured strategy and publishes the result to the checksum table
    /// under the block's ID.
    fn finalize(mut self, ctx: &mut BlockCtx<'_>) {
        let Some(rt) = self.rt else { return };
        if let Some(mut s) = self.psession.take() {
            // Region boundary of an explicit backend: the session
            // makes every protected store durable per its model
            // (flushes, epoch close, or buffer drain), the commit
            // token is published, and the session persists the token.
            // The ordering makes the token a durable witness for the
            // region's data.
            s.commit(ctx);
            let token = rt.commit_token(ctx.block_id());
            rt.table.insert(ctx, ctx.block_id(), &token);
            s.persist_token(ctx, rt.table.entry_addr(ctx.block_id()));
        } else {
            // The region's protected stores end here: everything the
            // reduction and table insert write below (shuffle staging,
            // scratch spills, the checksum entry itself) is
            // instrumentation, not region data, so close the observed
            // region first.
            ctx.note_region_end();
            let set = &rt.config.checksums;
            let scratch = rt.scratch_for_block(ctx.block_id());
            let reduced = block_reduce(ctx, set, &self.acc, rt.config.reduce, scratch);
            let sealed = rt.seal(ctx.block_id(), reduced);
            ctx.charge_alu(set.arity() as u64); // seal fold
            rt.table.insert(ctx, ctx.block_id(), &sealed);
            if let Some(lines) = self.ckpt_lines.take() {
                // Checkpoint rung: nothing is left to natural eviction.
                // Drain every line the region dirtied (retry + quarantine
                // for refusing lines), then the published checksum entry —
                // the data stays covered end-to-end by the checksums, so a
                // device that lies about these drains is still caught by
                // validation.
                for base in lines {
                    ctx.persist_line_reliably(Addr::new(base), false);
                }
                if let Some(entry) = rt.table.entry_addr(ctx.block_id()) {
                    ctx.persist_line_reliably(entry, false);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::testutil::Rig;

    fn runtime(rig: &mut Rig, config: LpConfig) -> LpRuntime {
        LpRuntime::setup(&mut rig.mem, 64, 64, config)
    }

    #[test]
    fn session_protects_stores_and_publishes() {
        let mut rig = Rig::new();
        let rt = runtime(&mut rig, LpConfig::recommended());
        let out = rig.mem.alloc(64 * 4, 8);
        let mut ctx = simt::BlockCtx::standalone(rig.lc, 3, &mut rig.mem, &mut rig.dev, &rig.cfg);
        let mut lp = LpBlockSession::begin(Some(&rt), &mut ctx);
        for t in 0..64u64 {
            lp.store_f32(&mut ctx, t, out.index(t, 4), t as f32 * 1.5);
        }
        lp.finalize(&mut ctx);
        let _ = ctx.into_cost();

        // The published checksums must equal the sealed digest of the values.
        let want = rt.digest_region(3, (0..64u64).map(|t| f32_store_image(t as f32 * 1.5)));
        assert_eq!(rt.lookup(&mut rig.mem, 3), Some(want));
    }

    #[test]
    fn a_cloned_runtime_forks_its_cuckoo_seeds_and_counters() {
        // Two displacements before a rehash: inserting keeps rehashing, so
        // the hash seeds move (no test-scale subject ever rehashes).
        let config = LpConfig {
            table: TableKind::Cuckoo {
                load_factor: 0.7,
                max_displacements: 2,
            },
            ..LpConfig::cuckoo()
        };
        let mut rig = Rig::new();
        let rt = runtime(&mut rig, config);
        let publish = |rt: &LpRuntime, rig: &mut Rig, keys: std::ops::Range<u64>| {
            for b in keys {
                let mut ctx =
                    simt::BlockCtx::standalone(rig.lc, b, &mut rig.mem, &mut rig.dev, &rig.cfg);
                let mut lp = LpBlockSession::begin(Some(rt), &mut ctx);
                lp.update(&mut ctx, 0, b * 31);
                lp.finalize(&mut ctx);
                let _ = ctx.into_cost();
            }
        };
        publish(&rt, &mut rig, 0..32);
        let before = rt.table_stats();
        assert!(before.rehashes > 0, "{before:?}");

        let fork = rt.clone();
        let mut fork_rig = Rig::new();
        fork_rig.mem = rig.mem.clone();
        for b in 0..32 {
            let want = Some(rt.digest_region(b, [b * 31]));
            assert_eq!(rt.lookup(&mut rig.mem, b), want, "original, key {b}");
            assert_eq!(fork.lookup(&mut fork_rig.mem, b), want, "clone, key {b}");
        }
        assert_eq!(fork.table_stats(), before);

        // Only the clone goes on: it rehashes again under new seeds, while
        // the original keeps its counters and still finds every key under
        // the seeds it had.
        publish(&fork, &mut fork_rig, 32..64);
        assert!(fork.table_stats().rehashes > before.rehashes);
        assert_eq!(rt.table_stats(), before);
        for b in 0..64 {
            let want = Some(fork.digest_region(b, [b * 31]));
            assert_eq!(fork.lookup(&mut fork_rig.mem, b), want, "clone, key {b}");
        }
        for b in 0..32 {
            let want = Some(rt.digest_region(b, [b * 31]));
            assert_eq!(rt.lookup(&mut rig.mem, b), want, "original, key {b}");
        }
    }

    #[test]
    fn validate_region_detects_mismatch() {
        let mut rig = Rig::new();
        let rt = runtime(&mut rig, LpConfig::recommended());
        let mut ctx = simt::BlockCtx::standalone(rig.lc, 0, &mut rig.mem, &mut rig.dev, &rig.cfg);
        let mut lp = LpBlockSession::begin(Some(&rt), &mut ctx);
        lp.update(&mut ctx, 0, 1234);
        lp.finalize(&mut ctx);
        let _ = ctx.into_cost();

        let good = rt.digest_region(0, [1234u64]);
        let bad = rt.digest_region(0, [1235u64]);
        assert!(rt.validate_region(&mut rig.mem, 0, &good));
        assert!(!rt.validate_region(&mut rig.mem, 0, &bad));
        assert!(
            !rt.validate_region(&mut rig.mem, 5, &good),
            "never-published region"
        );
    }

    #[test]
    fn disabled_session_is_transparent() {
        let mut rig = Rig::new();
        let out = rig.mem.alloc(8, 8);
        let mut ctx = simt::BlockCtx::standalone(rig.lc, 0, &mut rig.mem, &mut rig.dev, &rig.cfg);
        let mut lp = LpBlockSession::begin(None, &mut ctx);
        lp.store_u64(&mut ctx, 0, out, 99);
        lp.finalize(&mut ctx);
        let _ = ctx.into_cost();
        assert_eq!(rig.mem.read_u64(out), 99);
    }

    #[test]
    fn all_table_kinds_roundtrip() {
        for config in [
            LpConfig::recommended(),
            LpConfig::quad(),
            LpConfig::cuckoo(),
        ] {
            let mut rig = Rig::new();
            let rt = runtime(&mut rig, config.clone());
            for b in 0..64u64 {
                let mut ctx =
                    simt::BlockCtx::standalone(rig.lc, b, &mut rig.mem, &mut rig.dev, &rig.cfg);
                let mut lp = LpBlockSession::begin(Some(&rt), &mut ctx);
                lp.update(&mut ctx, 0, b * 31);
                lp.finalize(&mut ctx);
                let _ = ctx.into_cost();
            }
            for b in 0..64u64 {
                let want = rt.digest_region(b, [b * 31]);
                assert_eq!(
                    rt.lookup(&mut rig.mem, b),
                    Some(want),
                    "{:?} block {b}",
                    config.table
                );
            }
        }
    }

    #[test]
    fn sequential_reduce_config_allocates_scratch() {
        let mut rig = Rig::new();
        let rt = runtime(
            &mut rig,
            LpConfig::recommended().with_reduce(ReduceStrategy::SequentialMemory),
        );
        assert!(rt.scratch_for_block(0).is_some());
        // And it still produces correct checksums end-to-end.
        let mut ctx = simt::BlockCtx::standalone(rig.lc, 1, &mut rig.mem, &mut rig.dev, &rig.cfg);
        let mut lp = LpBlockSession::begin(Some(&rt), &mut ctx);
        for t in 0..64u64 {
            lp.update(&mut ctx, t, t + 7);
        }
        lp.finalize(&mut ctx);
        let _ = ctx.into_cost();
        let want = rt.digest_region(1, (0..64u64).map(|t| t + 7));
        assert_eq!(rt.lookup(&mut rig.mem, 1), Some(want));
    }

    #[test]
    fn config_validation_rejects_adler_shuffle() {
        let bad = LpConfig::recommended()
            .with_checksums(ChecksumSet::new(vec![crate::ChecksumKind::Adler32]));
        assert!(bad.validate().is_err());
    }

    #[test]
    fn all_zero_data_cannot_vacuously_validate() {
        // Regression: an all-zero store stream digests to the checksum
        // identity, and a freshly-allocated table entry is also zero. The
        // region seal must keep the two apart, for every region key.
        let mut rig = Rig::new();
        let rt = runtime(&mut rig, LpConfig::recommended());
        for key in 0..64u64 {
            let digest = rt.digest_region(key, (0..64).map(|_| 0u64));
            assert!(
                digest.iter().any(|&v| v != 0),
                "region {key}: all-zero data digested to the all-zero vector"
            );
            assert!(
                !rt.validate_region(&mut rig.mem, key, &digest),
                "region {key}: never-published region validated vacuously"
            );
        }
    }

    #[test]
    fn seal_distinguishes_identical_payloads_across_regions() {
        let mut rig = Rig::new();
        let rt = runtime(&mut rig, LpConfig::recommended());
        let a = rt.digest_region(0, [42u64, 43]);
        let b = rt.digest_region(1, [42u64, 43]);
        assert_ne!(
            a, b,
            "two regions with identical stores must not share a digest"
        );
    }

    #[test]
    fn transient_ranges_cover_scratch_and_log() {
        let mut rig = Rig::new();
        let lean = runtime(&mut rig, LpConfig::recommended());
        assert!(
            lean.transient_ranges().is_empty(),
            "shuffle+lazy has no transient state"
        );

        let mut rig2 = Rig::new();
        let seq = runtime(
            &mut rig2,
            LpConfig::recommended().with_reduce(ReduceStrategy::SequentialMemory),
        );
        let ranges = seq.transient_ranges();
        assert_eq!(ranges.len(), 1);
        let scratch = seq.scratch_for_block(0).unwrap().raw();
        assert!(ranges[0].0 <= scratch && scratch < ranges[0].0 + ranges[0].1);

        let mut rig3 = Rig::new();
        let logged = runtime(&mut rig3, LpConfig::eager_logged());
        let ranges = logged.transient_ranges();
        assert_eq!(ranges.len(), 1);
        assert!(ranges[0].1 > 0);
    }

    #[test]
    fn adaptive_regions_follow_the_journal() {
        let mut rig = Rig::new();
        let rt = runtime(&mut rig, LpConfig::for_backend(BackendKind::Adaptive));
        assert!(rt.is_adaptive());
        assert_eq!(rt.policy_mode(3), Some(PolicyMode::Lp));
        // Region 3 switches to epoch; every other region stays checksummed.
        assert!(rt.switch_region(&mut rig.mem, 3, PolicyMode::Epoch));
        assert_eq!(rt.policy_mode(3), Some(PolicyMode::Epoch));
        let out = rig.mem.alloc(64 * 8, 8);
        for b in [2u64, 3] {
            let mut ctx =
                simt::BlockCtx::standalone(rig.lc, b, &mut rig.mem, &mut rig.dev, &rig.cfg);
            let mut lp = LpBlockSession::begin(Some(&rt), &mut ctx);
            lp.store_u64(&mut ctx, 0, out.index(b, 8), b * 7);
            lp.finalize(&mut ctx);
            let _ = ctx.into_cost();
        }
        // Region 2 validates by data checksum; region 3 by token presence.
        let d2 = rt.digest_region(2, [2 * 7u64]);
        assert!(rt.validate_region(&mut rig.mem, 2, &d2));
        let d3 = rt.digest_region(3, [3 * 7u64]);
        assert!(rt.validate_region(&mut rig.mem, 3, &d3));
        assert_eq!(
            rt.digest_region(3, [1u64]),
            rt.digest_region(3, [2u64]),
            "token validation must ignore the data"
        );
        assert_ne!(
            rt.digest_region(2, [1u64]),
            rt.digest_region(2, [2u64]),
            "checksum validation must depend on the data"
        );
    }

    #[test]
    fn reload_policy_restores_journalled_modes_after_a_crash() {
        let mut rig = Rig::new();
        let rt = runtime(&mut rig, LpConfig::for_backend(BackendKind::Adaptive));
        assert!(rt.switch_region(&mut rig.mem, 5, PolicyMode::Checkpoint));
        assert!(rt.switch_region(&mut rig.mem, 6, PolicyMode::Eager));
        rig.mem.crash();
        rig.mem.power_on();
        rt.reload_policy(&rig.mem);
        assert_eq!(rt.policy_mode(5), Some(PolicyMode::Checkpoint));
        assert_eq!(rt.policy_mode(6), Some(PolicyMode::Eager));
        assert_eq!(rt.policy_mode(0), Some(PolicyMode::Lp));
    }

    #[test]
    fn checkpoint_rung_survives_an_immediate_crash() {
        let mut rig = Rig::new();
        let rt = runtime(&mut rig, LpConfig::for_backend(BackendKind::Adaptive));
        assert!(rt.switch_region(&mut rig.mem, 0, PolicyMode::Checkpoint));
        let out = rig.mem.alloc(64 * 8, 8);
        let mut ctx = simt::BlockCtx::standalone(rig.lc, 0, &mut rig.mem, &mut rig.dev, &rig.cfg);
        let mut lp = LpBlockSession::begin(Some(&rt), &mut ctx);
        for t in 0..64u64 {
            lp.store_u64(&mut ctx, t, out.index(t, 8), t + 1);
        }
        lp.finalize(&mut ctx);
        let _ = ctx.into_cost();
        // A crash right after finalize loses nothing: the checkpoint rung
        // drained every dirtied line and the published checksum entry.
        rig.mem.crash();
        rig.mem.power_on();
        for t in 0..64u64 {
            assert_eq!(rig.mem.read_u64(out.index(t, 8)), t + 1);
        }
        let want = rt.digest_region(0, (0..64u64).map(|t| t + 1));
        assert!(rt.validate_region(&mut rig.mem, 0, &want));
    }

    #[test]
    fn a_region_outside_the_launch_is_refused_and_poisons_nothing() {
        let mut rig = Rig::new();
        let rt = runtime(&mut rig, LpConfig::for_backend(BackendKind::Adaptive));
        let n = rt.num_regions();
        let lying = RegionSignals {
            torn_writebacks: 1,
            ..RegionSignals::default()
        };
        assert!(!rt.switch_region(&mut rig.mem, n, PolicyMode::Eager));
        assert_eq!(rt.adaptive_observe(n, &lying), None);
        assert_eq!(rt.adaptive_step(&mut rig.mem, u64::MAX, &lying), None);
        // The policy state is intact and still usable.
        assert_eq!(rt.policy_mode(n), Some(PolicyMode::Lp), "default rung");
        assert_eq!(rt.policy_mode(0), Some(PolicyMode::Lp));
        assert_eq!(rt.policy_floor(), Some(PolicyMode::Lp));
        rt.reload_policy(&rig.mem);
        assert!(rt.switch_region(&mut rig.mem, 0, PolicyMode::Eager));
        assert_eq!(rt.policy_mode(0), Some(PolicyMode::Eager));
    }

    #[test]
    fn validation_follows_the_contract_under_every_discipline() {
        // (design point, adaptive rung to switch to, what its contract says)
        let validated = |k| DurabilityContract::of(k).checksum_validated;
        let mut cases = vec![(
            LpConfig::eager_logged(),
            None,
            validated(BackendKind::Eager),
        )];
        for k in BackendKind::ALL.into_iter().chain([BackendKind::Adaptive]) {
            cases.push((LpConfig::for_backend(k), None, validated(k)));
        }
        for m in PolicyMode::ALL {
            cases.push((
                LpConfig::for_backend(BackendKind::Adaptive),
                Some(m),
                m.checksum_validated(),
            ));
        }
        assert_eq!(cases.len(), 10);
        for (config, rung, checksummed) in cases {
            let what = format!("{} / {:?} / {rung:?}", config.backend, config.eager_flush);
            let mut rig = Rig::new();
            let rt = runtime(&mut rig, config);
            if let Some(rung) = rung {
                for region in [0, 1] {
                    assert!(rt.switch_region(&mut rig.mem, region, rung), "{what}");
                }
            }
            assert_eq!(
                rt.digest_region(0, [1u64]) != rt.digest_region(0, [2u64]),
                checksummed,
                "{what}: digest depends on the data iff the contract validates by checksum"
            );
            let out = rig.mem.alloc(8, 8);
            let mut ctx =
                simt::BlockCtx::standalone(rig.lc, 0, &mut rig.mem, &mut rig.dev, &rig.cfg);
            let mut lp = LpBlockSession::begin(Some(&rt), &mut ctx);
            lp.store_u64(&mut ctx, 0, out, 7);
            lp.finalize(&mut ctx);
            let _ = ctx.into_cost();
            let finalized = rt.digest_region(0, [7u64]);
            assert!(rt.validate_region(&mut rig.mem, 0, &finalized), "{what}");
            let never_ran = rt.digest_region(1, [7u64]);
            assert!(!rt.validate_region(&mut rig.mem, 1, &never_ran), "{what}");
        }
    }

    #[test]
    fn fixed_mode_runtimes_have_no_policy_surface() {
        let mut rig = Rig::new();
        let rt = runtime(&mut rig, LpConfig::recommended());
        assert!(!rt.is_adaptive());
        assert_eq!(rt.policy_mode(0), None);
        assert!(!rt.switch_region(&mut rig.mem, 0, PolicyMode::Eager));
        assert!(rt.policy_history().is_empty());
        rt.reload_policy(&rig.mem); // no-op, must not panic
    }

    #[test]
    fn table_bytes_positive_and_array_minimal() {
        let mut rig = Rig::new();
        let arr = runtime(&mut rig, LpConfig::recommended());
        let mut rig2 = Rig::new();
        let quad = runtime(&mut rig2, LpConfig::quad());
        assert!(arr.table_bytes() > 0);
        // Global array: no key tags, 100% load factor — strictly smaller.
        assert!(arr.table_bytes() < quad.table_bytes());
    }
}
