//! Post-crash validation and recovery (§IV-A), hardened for a faulty device.
//!
//! After a crash, recovery walks every LP region (thread block): it
//! recomputes the region's checksums *from the data now in memory* and
//! compares them with the checksums published in the table
//! ([`LpRuntime::failing_regions`]). A mismatch means some store of the
//! region (possibly the checksum store itself — a safe false alarm) did not
//! persist; the region is re-executed, its stores are flushed, and it is
//! validated again. The paper's recovery is **eager** in exactly this sense:
//! re-execute immediately and re-validate, which guarantees forward
//! progress.
//!
//! [`ResilientRecovery`] is the one engine that runs that loop. On a perfect
//! device (clean power cuts only) it is the paper's algorithm and nothing
//! else fires. A real device also tears write-backs (persists a prefix and
//! reports success), fails persists transiently (the line stays dirty),
//! leaves lines permanently stuck, and lets media cells decay — so the same
//! bounded multi-round loop additionally carries:
//!
//! * **retry with backoff** for transient persist failures, surfaced by
//!   [`PersistMemory::flush_all`];
//! * **quarantine + remap** (via [`PersistMemory::quarantine_line`]) for
//!   lines that keep refusing persists, and predictively for lines whose
//!   fills keep hitting ECC-corrected media errors;
//! * **durable-truth validation**: clean cache lines are invalidated before
//!   each validation round, so a torn write-back — whose intact copy is
//!   still cached — cannot masquerade as persisted;
//! * **degraded mode**: a region that keeps failing validation is
//!   re-executed under observation and its stores flushed eagerly line by
//!   line (flush-per-store persistency at region granularity), the safety
//!   net the paper's MTBF arithmetic presumes exists.
//!
//! The per-region outcome is a [`RegionVerdict`]; the report's honesty
//! invariant is that `all_durable == false` always comes with a non-empty
//! `exhausted_regions` or a non-zero `persist_debt` — recovery either
//! restores correct durable data or says exactly what it could not save,
//! never neither.

use crate::region::LpRuntime;
use nvm::PersistMemory;
use serde::{Deserialize, Serialize};
use simt::{AccessKind, AccessObserver, BlockCost, Gpu, Kernel};
use std::collections::{BTreeMap, BTreeSet};

/// A kernel whose LP regions can be validated and re-executed: one that
/// can read back block `b` into a buffer. The runtime that judges the
/// region ([`LpRuntime::failing_regions`]) owns the buffer, the digest and
/// the compare; [`crate::LpKernel`] implements it with its [`crate::Region`].
pub trait Recoverable: Kernel {
    /// Appends to `images` what region `block` folded, read back in order.
    fn read_back(&self, mem: &mut PersistMemory, block: u64, images: &mut Vec<u64>);
}

/// Validate / repair rounds before [`ResilientRecovery::recover`] gives up
/// on the remaining regions (they are reported as
/// [`RegionVerdict::RetriesExhausted`]).
const MAX_ROUNDS: u32 = 12;
/// Flush attempts per round (whole-cache) and per line (degraded mode)
/// before the offending lines are quarantined.
const FLUSH_RETRIES: u32 = 6;
/// Modelled backoff before the first flush retry, in nanoseconds; doubles
/// per attempt.
const BACKOFF_BASE_NS: u64 = 200;
/// Validation failures a region tolerates before it is switched to degraded
/// (eager flush-per-store) re-execution.
const DEGRADED_AFTER: u32 = 2;
/// ECC-corrected error events on one line before it is predictively
/// quarantined (the page-offlining policy real NVM firmware applies to
/// decaying media).
const CE_QUARANTINE_AFTER: u32 = 2;
/// Recovery attempts [`ResilientRecovery::recover_reentrant`] makes before
/// it reports a restoration that power failures keep interrupting.
const MAX_REENTRANT_ATTEMPTS: u32 = 8;

/// Per-region outcome of a resilient recovery run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RegionVerdict {
    /// The region validated clean against durable data.
    Recovered,
    /// The region validated clean, but only after one or more of its lines
    /// were retired and remapped (its data is correct; the device under it
    /// was not).
    Quarantined,
    /// The round budget ran out (or power failed) with the region still
    /// failing validation or still holding non-durable stores.
    RetriesExhausted,
}

/// Outcome of a [`ResilientRecovery::recover`] run.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ResilientReport {
    /// Total LP regions examined.
    pub regions: u64,
    /// Validate / repair rounds executed.
    pub rounds: u32,
    /// Block re-executions, including degraded ones.
    pub reexecutions: u64,
    /// Re-executions that ran in degraded (eager flush-per-store) mode.
    pub degraded_reexecutions: u64,
    /// Whole-cache and per-line flush retries after device refusals.
    pub flush_retries: u64,
    /// Modelled nanoseconds spent backing off between flush retries.
    pub backoff_ns: u64,
    /// Lines retired and remapped during this run.
    pub quarantined_lines: u64,
    /// Dirty (non-durable) lines remaining at the end — zero whenever
    /// `all_durable`.
    pub persist_debt: u64,
    /// Regions that ended [`RegionVerdict::Recovered`].
    pub recovered_regions: u64,
    /// Regions that ended [`RegionVerdict::Quarantined`], ascending.
    pub quarantined_regions: Vec<u64>,
    /// Regions that ended [`RegionVerdict::RetriesExhausted`], ascending.
    pub exhausted_regions: Vec<u64>,
    /// Modelled nanoseconds spent re-executing regions, scaled by 1000.
    pub reexecution_ns_x1000: u64,
    /// Whether the final validation round was clean *against durable data*
    /// with zero persist debt: every region's output is correct and would
    /// survive an immediate crash.
    pub all_durable: bool,
}

impl ResilientReport {
    /// The verdict for one region. Exhaustion dominates quarantine: a
    /// region both quarantined and still failing is reported as exhausted.
    pub fn verdict_of(&self, region: u64) -> RegionVerdict {
        if self.exhausted_regions.contains(&region) {
            RegionVerdict::RetriesExhausted
        } else if self.quarantined_regions.contains(&region) {
            RegionVerdict::Quarantined
        } else {
            RegionVerdict::Recovered
        }
    }

    /// Modelled total recovery latency: re-execution time plus retry
    /// backoff.
    pub fn latency_ns(&self) -> u64 {
        self.reexecution_ns_x1000 / 1000 + self.backoff_ns
    }

    /// Whether recovery fully succeeded (everything durable and correct).
    pub fn is_success(&self) -> bool {
        self.all_durable
    }
}

/// Outcome of a [`ResilientRecovery::recover_reentrant`] run: the final
/// recovery report plus how many times the loop had to re-enter after a
/// power failure struck recovery itself.
///
/// Long-running services call this instead of [`ResilientRecovery::recover`]
/// because a restoration that is itself crash-prone must be *re-entrant*:
/// every completed repair round flushed its re-executions before the next
/// validation, so a fresh attempt after reboot only has less work to do,
/// never different work. The loop exploits exactly that invariant.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReentrantOutcome {
    /// The report of the final (converged or budget-exhausted) attempt.
    pub report: ResilientReport,
    /// Recovery attempts executed (1 = no interruption).
    pub attempts: u32,
    /// Power failures that struck mid-recovery and forced a re-entry.
    pub interruptions: u32,
    /// Modelled latency summed over every attempt, including the aborted
    /// ones — the service was down for all of them.
    pub total_latency_ns: u64,
}

impl ReentrantOutcome {
    /// Whether the final attempt left everything durable and correct.
    pub fn is_success(&self) -> bool {
        self.report.all_durable
    }
}

/// Records the distinct cache lines a block stores to, for degraded-mode
/// eager flushing.
struct StoreLineRecorder {
    line: u64,
    bases: BTreeSet<u64>,
}

impl AccessObserver for StoreLineRecorder {
    fn on_global_access(
        &mut self,
        _block: u64,
        _thread: u64,
        addr: u64,
        bytes: u64,
        kind: AccessKind,
        _locked: bool,
    ) {
        if kind.writes() {
            let first = addr & !(self.line - 1);
            let last = (addr + bytes.max(1) - 1) & !(self.line - 1);
            let mut b = first;
            loop {
                self.bases.insert(b);
                if b >= last {
                    break;
                }
                b += self.line;
            }
        }
    }
}

/// The recovery driver: bounded multi-round validate / re-execute / flush.
#[derive(Debug)]
pub struct ResilientRecovery<'g> {
    gpu: &'g Gpu,
}

impl<'g> ResilientRecovery<'g> {
    /// Creates a driver on `gpu`.
    pub fn new(gpu: &'g Gpu) -> Self {
        Self { gpu }
    }

    fn charge_backoff(&self, attempt: u32, report: &mut ResilientReport) {
        report.flush_retries += 1;
        report.backoff_ns += BACKOFF_BASE_NS << attempt.min(10);
    }

    /// Flushes the whole cache, retrying (with modelled backoff) while the
    /// device keeps refusing lines; lines still dirty after the retry
    /// budget are quarantined. Their writers are recorded as quarantined
    /// regions.
    fn persist_with_retry(
        &self,
        mem: &mut PersistMemory,
        report: &mut ResilientReport,
        quarantined_regions: &mut BTreeSet<u64>,
    ) {
        for attempt in 0..FLUSH_RETRIES {
            if mem.flush_all() == 0 || mem.power_failed() {
                return;
            }
            self.charge_backoff(attempt, report);
        }
        // The retry budget is spent: whatever is still dirty sits on lines
        // the device keeps refusing. Retire them — the quarantine copy is
        // made durable by firmware, bypassing the failing write-back path.
        for (base, writers) in mem.dirty_line_info() {
            quarantined_regions.extend(writers);
            mem.quarantine_line(base);
            report.quarantined_lines += 1;
        }
    }

    /// Quarantines lines whose fills keep reporting ECC-corrected media
    /// errors: the classic predictive page-offlining policy.
    fn retire_decaying_lines(
        &self,
        mem: &mut PersistMemory,
        ce_counts: &mut BTreeMap<u64, u32>,
        report: &mut ResilientReport,
    ) {
        for base in mem.take_ecc_log() {
            let seen = ce_counts.entry(base).or_insert(0);
            *seen += 1;
            if *seen >= CE_QUARANTINE_AFTER {
                mem.quarantine_line(base);
                report.quarantined_lines += 1;
                ce_counts.remove(&base);
            }
        }
    }

    /// Degraded-mode re-execution: run the block under observation, then
    /// eagerly flush every line it stored to, line by line with retries;
    /// stubborn lines are quarantined on the spot. This is flush-per-store
    /// (eager) persistency at region granularity — slower, but immune to
    /// the lazy path's reliance on the device accepting bulk flushes.
    fn degraded_reexecute(
        &self,
        kernel: &dyn Recoverable,
        mem: &mut PersistMemory,
        block: u64,
        report: &mut ResilientReport,
        quarantined_regions: &mut BTreeSet<u64>,
    ) -> BlockCost {
        let mut rec = StoreLineRecorder {
            line: mem.config().line_size as u64,
            bases: BTreeSet::new(),
        };
        let cost = self
            .gpu
            .run_single_block(kernel, mem, block, Some(&mut rec));
        report.degraded_reexecutions += 1;
        for base in rec.bases {
            let persisted =
                lp_persist::drain_line_with_retry(mem, base, FLUSH_RETRIES, |attempt| {
                    self.charge_backoff(attempt, report)
                });
            if !persisted {
                mem.quarantine_line(base);
                report.quarantined_lines += 1;
                quarantined_regions.insert(block);
            }
        }
        cost
    }

    /// Runs bounded multi-round recovery: persist (with retry and
    /// quarantine), expose durable truth, validate, re-execute failures
    /// (degrading repeat offenders), repeat. See the module docs for the
    /// full state machine; the returned report upholds the honesty
    /// invariant — `all_durable` is only claimed when every region
    /// validates against durable data with zero persist debt, and a
    /// non-`all_durable` report always names the exhausted regions or the
    /// outstanding persist debt.
    pub fn recover(
        &self,
        kernel: &dyn Recoverable,
        rt: &LpRuntime,
        mem: &mut PersistMemory,
    ) -> ResilientReport {
        let regions = kernel.config().num_blocks();
        let mut report = ResilientReport {
            regions,
            ..ResilientReport::default()
        };
        let mut fail_counts: BTreeMap<u64, u32> = BTreeMap::new();
        let mut ce_counts: BTreeMap<u64, u32> = BTreeMap::new();
        let mut quarantined_regions: BTreeSet<u64> = BTreeSet::new();
        let mut last_failed: Vec<u64> = Vec::new();

        for round in 1..=MAX_ROUNDS {
            if mem.power_failed() {
                // Double crash: abort immediately, report honestly. The
                // caller restores power and runs recovery again.
                break;
            }
            report.rounds = round;
            self.persist_with_retry(mem, &mut report, &mut quarantined_regions);
            self.retire_decaying_lines(mem, &mut ce_counts, &mut report);
            // Validation must read what the *device* holds, not what the
            // cache remembers: a torn write-back leaves the intact copy
            // resident and clean, and validating against it would wrongly
            // pass. Dirty lines stay — they are exactly the persist debt
            // the success check charges below.
            mem.invalidate_clean_lines();
            last_failed = rt.failing_regions(kernel, mem);
            // Validation itself fills every protected line from media, so
            // it doubles as a scrub pass: drain the CEs it surfaced before
            // deciding success, or decaying lines found on the last round
            // would never be retired.
            self.retire_decaying_lines(mem, &mut ce_counts, &mut report);
            if last_failed.is_empty() && mem.dirty_lines() == 0 && !mem.power_failed() {
                report.all_durable = true;
                break;
            }
            if round == MAX_ROUNDS {
                break;
            }
            for &b in &last_failed {
                if mem.power_failed() {
                    break;
                }
                let fails = fail_counts.entry(b).or_insert(0);
                *fails += 1;
                let cost = if *fails > DEGRADED_AFTER {
                    self.degraded_reexecute(kernel, mem, b, &mut report, &mut quarantined_regions)
                } else {
                    self.gpu.run_single_block(kernel, mem, b, None)
                };
                let cfg = self.gpu.config();
                report.reexecution_ns_x1000 +=
                    (cost.time_ns(cfg.sm_width, cfg.clock_ghz) * 1000.0) as u64;
                report.reexecutions += 1;
            }
        }

        report.persist_debt = mem.dirty_lines() as u64;
        let mut exhausted: BTreeSet<u64> = last_failed.iter().copied().collect();
        for (_, writers) in mem.dirty_line_info() {
            exhausted.extend(writers);
        }
        if !report.all_durable && exhausted.is_empty() && report.persist_debt == 0 {
            // Power failed before any validation verdict existed: no region
            // is known durable, so none may be reported recovered.
            exhausted.extend(0..regions);
        }
        report.exhausted_regions = exhausted.iter().copied().collect();
        report.quarantined_regions = quarantined_regions
            .difference(&exhausted)
            .copied()
            .collect();
        report.recovered_regions = regions
            - report.exhausted_regions.len() as u64
            - report.quarantined_regions.len() as u64;
        report
    }

    /// Re-entrant recovery: runs [`recover`](Self::recover) repeatedly,
    /// restoring power whenever a crash strikes recovery itself, until the
    /// state is fully durable or eight attempts have run.
    ///
    /// [`recover`](Self::recover) aborts honestly on a mid-recovery power
    /// failure; this wrapper is the other half of that contract — it powers
    /// the machine back on and re-enters. Convergence is monotone: each
    /// aborted attempt left every completed repair round flushed, so the
    /// next attempt validates against strictly-no-worse durable state.
    /// The attempt cap only guards against a pathological device (e.g. a
    /// crash armed to fire on every attempt).
    pub fn recover_reentrant(
        &self,
        kernel: &dyn Recoverable,
        rt: &LpRuntime,
        mem: &mut PersistMemory,
    ) -> ReentrantOutcome {
        let mut out = ReentrantOutcome::default();
        for attempt in 1..=MAX_REENTRANT_ATTEMPTS {
            if mem.power_failed() {
                mem.power_on();
            }
            out.attempts = attempt;
            out.report = self.recover(kernel, rt, mem);
            out.total_latency_ns += out.report.latency_ns();
            if mem.power_failed() {
                out.interruptions += 1;
                continue;
            }
            if out.report.all_durable {
                break;
            }
            // Not durable with power still on: the round budget ran out or
            // lines are stuck beyond quarantine. Re-entering cannot help —
            // report honestly instead of spinning.
            break;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checksum::read_back_images;
    use crate::region::{LpBlockSession, LpConfig, LpKernel, Region};
    use nvm::{Addr, FaultConfig, NvmConfig};
    use simt::{BlockCtx, CrashPlan, DeviceConfig, LaunchConfig};
    use std::cell::Cell;

    /// out[i] = (i % 97) * 0.5 as f32, one value per thread.
    struct Fill {
        out: Addr,
        n: u64,
    }

    impl Region for Fill {
        fn name(&self) -> &str {
            "fill_lp"
        }

        fn config(&self) -> LaunchConfig {
            LaunchConfig::linear(self.n, 64)
        }

        fn run_region(&self, ctx: &mut BlockCtx<'_>, lp: &mut LpBlockSession<'_>) {
            for t in 0..ctx.threads_per_block() {
                let gid = ctx.global_thread_id(t);
                if gid < self.n {
                    let v = (gid % 97) as f32 * 0.5;
                    lp.store_f32(ctx, t, self.out.index(gid, 4), v);
                }
            }
        }

        fn region_images(&self, mem: &mut PersistMemory, block: u64, images: &mut Vec<u64>) {
            let tpb = self.config().threads_per_block();
            let first = block * tpb;
            let count = tpb.min(self.n.saturating_sub(first));
            read_back_images::<1, 4>(mem, [self.out.index(first, 4)], count, images);
        }
    }

    /// [`Fill`], LP-protected.
    type FillLp<'rt> = LpKernel<'rt, Fill>;

    fn fill_lp(out: Addr, n: u64, rt: &LpRuntime) -> FillLp<'_> {
        LpKernel::new(Fill { out, n }, Some(rt))
    }

    /// [`FillLp`] with a validation hook: `hook(mem, block, images)` sees
    /// every read-back, so a test can make a region fail validation or cut
    /// the power while recovery runs.
    struct Hooked<'k, 'rt, F> {
        inner: &'k FillLp<'rt>,
        hook: F,
    }

    impl<F> Kernel for Hooked<'_, '_, F> {
        fn name(&self) -> &str {
            self.inner.name()
        }

        fn config(&self) -> LaunchConfig {
            self.inner.config()
        }

        fn run_block(&self, ctx: &mut BlockCtx<'_>) {
            self.inner.run_block(ctx)
        }
    }

    impl<F: Fn(&mut PersistMemory, u64, &mut Vec<u64>)> Recoverable for Hooked<'_, '_, F> {
        fn read_back(&self, mem: &mut PersistMemory, block: u64, images: &mut Vec<u64>) {
            self.inner.read_back(mem, block, images);
            (self.hook)(mem, block, images);
        }
    }

    /// A hook under which region `bad` fails its next `times` validations.
    fn fails(bad: u64, times: &Cell<u32>) -> impl Fn(&mut PersistMemory, u64, &mut Vec<u64>) + '_ {
        move |_, block, images| {
            if block == bad && times.get() > 0 {
                times.set(times.get() - 1);
                images[0] ^= 1;
            }
        }
    }

    /// Small cache: plenty of natural evictions, so a crash loses only a
    /// suffix-ish subset — the interesting LP regime.
    fn world(n: u64, faults: Option<FaultConfig>) -> (Gpu, PersistMemory, Addr) {
        let mut mem = PersistMemory::new(NvmConfig {
            cache_lines: 64,
            associativity: 4,
            ..NvmConfig::default()
        });
        let out = mem.alloc(4 * n, 8);
        mem.set_fault_config(faults);
        (Gpu::new(DeviceConfig::test_gpu()), mem, out)
    }

    fn verify_output(mem: &mut PersistMemory, out: Addr, n: u64) {
        for i in 0..n {
            assert_eq!(
                mem.read_f32(out.index(i, 4)),
                (i % 97) as f32 * 0.5,
                "wrong value at {i}"
            );
        }
    }

    /// Loses power after `stores` global stores of `k` on a perfect device.
    fn crash_after(gpu: &Gpu, k: &FillLp<'_>, mem: &mut PersistMemory, stores: u64) {
        let outcome = gpu
            .launch_with_plan(k, mem, CrashPlan::after_stores(stores))
            .unwrap();
        assert!(outcome.crashed());
    }

    /// Launch, crash, recover, then hand back the memory so the caller can
    /// verify the *durable* state with faults disabled (so verification
    /// itself cannot corrupt).
    fn run_and_recover(
        n: u64,
        blocks: u64,
        faults: FaultConfig,
    ) -> (ResilientReport, PersistMemory, Addr, u64) {
        let (gpu, mut mem, out) = world(n, Some(faults));
        let rt = LpRuntime::setup(&mut mem, blocks, 64, LpConfig::recommended());
        let k = fill_lp(out, n, &rt);
        gpu.launch(&k, &mut mem).unwrap();
        mem.crash();
        let report = ResilientRecovery::new(&gpu).recover(&k, &rt, &mut mem);
        (report, mem, out, n)
    }

    // ---- perfect device: the paper's algorithm -------------------------

    #[test]
    fn clean_run_validates_clean() {
        let (gpu, mut mem, out) = world(2048, None);
        let rt = LpRuntime::setup(&mut mem, 32, 64, LpConfig::recommended());
        let k = fill_lp(out, 2048, &rt);
        gpu.launch(&k, &mut mem).unwrap();
        mem.flush_all();
        assert!(rt.failing_regions(&k, &mut mem).is_empty());
    }

    #[test]
    fn clean_run_is_all_durable_in_one_round() {
        let (gpu, mut mem, out) = world(1024, None);
        let rt = LpRuntime::setup(&mut mem, 16, 64, LpConfig::recommended());
        let k = fill_lp(out, 1024, &rt);
        gpu.launch(&k, &mut mem).unwrap();
        mem.flush_all();
        let report = ResilientRecovery::new(&gpu).recover(&k, &rt, &mut mem);
        assert!(report.all_durable);
        assert_eq!(report.rounds, 1);
        assert_eq!(report.reexecutions, 0);
        assert_eq!(report.recovered_regions, 16);
        assert_eq!(report.verdict_of(3), RegionVerdict::Recovered);
        verify_output(&mut mem, out, 1024);
    }

    #[test]
    fn crash_then_recover_restores_everything() {
        let (gpu, mut mem, out) = world(2048, None);
        let rt = LpRuntime::setup(&mut mem, 32, 64, LpConfig::recommended());
        let k = fill_lp(out, 2048, &rt);
        crash_after(&gpu, &k, &mut mem, 700);

        let failed = rt.failing_regions(&k, &mut mem);
        assert!(!failed.is_empty(), "a mid-flight crash must lose something");

        let report = ResilientRecovery::new(&gpu).recover(&k, &rt, &mut mem);
        assert!(report.all_durable, "recovery must converge: {report:?}");
        assert!(report.reexecutions >= failed.len() as u64);
        verify_output(&mut mem, out, 2048);
    }

    #[test]
    fn recovery_is_idempotent() {
        let (gpu, mut mem, out) = world(1024, None);
        let rt = LpRuntime::setup(&mut mem, 16, 64, LpConfig::recommended());
        let k = fill_lp(out, 1024, &rt);
        crash_after(&gpu, &k, &mut mem, 300);
        let eng = ResilientRecovery::new(&gpu);
        let r1 = eng.recover(&k, &rt, &mut mem);
        assert!(
            rt.failing_regions(&k, &mut mem).is_empty(),
            "second recovery must find nothing"
        );
        let r2 = eng.recover(&k, &rt, &mut mem);
        assert!(r1.all_durable && r2.all_durable);
        assert_eq!((r2.rounds, r2.reexecutions), (1, 0));
        verify_output(&mut mem, out, 1024);
    }

    #[test]
    fn crash_at_zero_recovers_from_nothing() {
        let (gpu, mut mem, out) = world(512, None);
        let rt = LpRuntime::setup(&mut mem, 8, 64, LpConfig::recommended());
        let k = fill_lp(out, 512, &rt);
        crash_after(&gpu, &k, &mut mem, 0);
        assert_eq!(
            rt.failing_regions(&k, &mut mem).len(),
            8,
            "all regions were lost"
        );
        let report = ResilientRecovery::new(&gpu).recover(&k, &rt, &mut mem);
        assert!(report.all_durable);
        verify_output(&mut mem, out, 512);
    }

    #[test]
    fn recovery_works_for_hash_table_configs() {
        for config in [LpConfig::quad(), LpConfig::cuckoo()] {
            let (gpu, mut mem, out) = world(1024, None);
            let rt = LpRuntime::setup(&mut mem, 16, 64, config);
            let k = fill_lp(out, 1024, &rt);
            crash_after(&gpu, &k, &mut mem, 400);
            let report = ResilientRecovery::new(&gpu).recover(&k, &rt, &mut mem);
            assert!(report.all_durable, "{:?}", rt.config().table);
            verify_output(&mut mem, out, 1024);
        }
    }

    /// What makes one engine sound: without a `FaultConfig` none of the
    /// fault machinery fires, so a crash→recover is the paper's plain
    /// validate / re-execute / flush loop under every table organisation.
    #[test]
    fn perfect_device_recovery_never_engages_the_fault_machinery() {
        for config in [
            LpConfig::recommended(),
            LpConfig::quad(),
            LpConfig::cuckoo(),
        ] {
            let (gpu, mut mem, out) = world(2048, None);
            let rt = LpRuntime::setup(&mut mem, 32, 64, config);
            let k = fill_lp(out, 2048, &rt);
            crash_after(&gpu, &k, &mut mem, 900);
            let lost = rt.failing_regions(&k, &mut mem).len() as u64;
            assert!(lost > 0, "{:?}", rt.config().table);
            let report = ResilientRecovery::new(&gpu).recover(&k, &rt, &mut mem);
            assert!(report.all_durable, "{report:?}");
            assert_eq!(report.reexecutions, lost, "{report:?}");
            assert_eq!(report.degraded_reexecutions, 0, "{report:?}");
            assert_eq!(report.quarantined_lines, 0, "{report:?}");
            assert_eq!(report.flush_retries, 0, "{report:?}");
            assert_eq!(report.backoff_ns, 0, "{report:?}");
            assert_eq!(mem.stats().quarantined_lines, 0);
            verify_output(&mut mem, out, 2048);
        }
    }

    #[test]
    fn power_failure_during_recovery_aborts_then_second_recovery_converges() {
        let (gpu, mut mem, out) = world(2048, None);
        let rt = LpRuntime::setup(&mut mem, 32, 64, LpConfig::recommended());
        let k = fill_lp(out, 2048, &rt);
        crash_after(&gpu, &k, &mut mem, 700);

        // Second crash: power fails partway through the recovery
        // re-executions themselves.
        mem.arm_crash_after_evictions(2);
        let eng = ResilientRecovery::new(&gpu);
        let report = eng.recover(&k, &rt, &mut mem);
        assert!(
            !report.all_durable,
            "a mid-recovery power failure must not report success"
        );
        assert!(mem.power_failed());

        // Reboot and recover again: recovery must converge from whatever
        // the double crash left durable.
        mem.power_on();
        let report = eng.recover(&k, &rt, &mut mem);
        assert!(
            report.all_durable,
            "post-reboot recovery must converge: {report:?}"
        );
        verify_output(&mut mem, out, 2048);
    }

    #[test]
    fn recovery_on_powered_off_memory_is_a_clean_no_progress_abort() {
        let (gpu, mut mem, out) = world(512, None);
        let rt = LpRuntime::setup(&mut mem, 8, 64, LpConfig::recommended());
        let k = fill_lp(out, 512, &rt);
        crash_after(&gpu, &k, &mut mem, 100);
        mem.arm_crash_after_evictions(0);
        // Trip the trigger with a single store.
        mem.write_u64(out, 0);
        assert!(mem.power_failed());
        let report = ResilientRecovery::new(&gpu).recover(&k, &rt, &mut mem);
        assert!(!report.all_durable);
        assert_eq!(
            report.reexecutions, 0,
            "no re-execution can run without power"
        );
    }

    #[test]
    fn flush_after_recovery_makes_state_durable() {
        let (gpu, mut mem, out) = world(512, None);
        let rt = LpRuntime::setup(&mut mem, 8, 64, LpConfig::recommended());
        let k = fill_lp(out, 512, &rt);
        crash_after(&gpu, &k, &mut mem, 100);
        ResilientRecovery::new(&gpu).recover(&k, &rt, &mut mem);
        // A second crash right after recovery must lose nothing.
        mem.crash();
        assert!(rt.failing_regions(&k, &mut mem).is_empty());
        verify_output(&mut mem, out, 512);
    }

    // ---- faulty device --------------------------------------------------

    #[test]
    fn recovers_through_torn_writebacks() {
        let (report, mut mem, out, n) = run_and_recover(
            2048,
            32,
            FaultConfig::torn(11, 2_000), // 20% of write-backs tear
        );
        assert!(report.all_durable, "must converge: {report:?}");
        assert!(
            report.reexecutions > 0,
            "tears + crash must have lost regions"
        );
        mem.set_fault_config(None);
        mem.crash(); // all_durable means this loses nothing
        verify_output(&mut mem, out, n);
    }

    #[test]
    fn recovers_through_transient_failures_with_quarantine() {
        let (report, mut mem, out, n) = run_and_recover(
            2048,
            32,
            FaultConfig::transient(13, 2_000), // 20% persist fails, 5% stuck
        );
        assert!(report.all_durable, "must converge: {report:?}");
        assert_eq!(report.persist_debt, 0);
        assert!(
            mem.stats().transient_persist_fails > 0,
            "the fault class must actually have fired"
        );
        mem.set_fault_config(None);
        mem.crash();
        verify_output(&mut mem, out, n);
    }

    #[test]
    fn stuck_lines_are_quarantined_and_remapped() {
        let (report, mut mem, out, n) = run_and_recover(
            1024,
            16,
            FaultConfig {
                stuck_line_bp: 1_000, // 10% of lines refuse every persist
                ..FaultConfig::none(17)
            },
        );
        assert!(report.all_durable, "must converge: {report:?}");
        assert!(
            report.quarantined_lines > 0,
            "10% stuck lines must force quarantines: {report:?}"
        );
        assert!(mem.stats().quarantined_lines >= report.quarantined_lines);
        mem.set_fault_config(None);
        mem.crash();
        verify_output(&mut mem, out, n);
    }

    #[test]
    fn ecc_storms_trigger_predictive_quarantine() {
        let (gpu, mut mem, out) = world(1024, None);
        let rt = LpRuntime::setup(&mut mem, 16, 64, LpConfig::recommended());
        let k = fill_lp(out, 1024, &rt);
        gpu.launch(&k, &mut mem).unwrap();
        mem.flush_all();
        // Every fill from now on reports a corrected media error. Region 3
        // fails its first validation, so a second round re-validates every
        // region: that scrub is each line's second CE, which retires it.
        mem.set_fault_config(Some(FaultConfig::media(5, 10_000, 0)));
        let once = Cell::new(1);
        let hooked = Hooked {
            inner: &k,
            hook: fails(3, &once),
        };
        let report = ResilientRecovery::new(&gpu).recover(&hooked, &rt, &mut mem);
        assert!(report.all_durable, "CEs corrupt nothing: {report:?}");
        assert_eq!(report.rounds, 2, "{report:?}");
        assert!(
            report.quarantined_lines > 0,
            "repeat CE offenders must be retired: {report:?}"
        );
        mem.set_fault_config(None);
        verify_output(&mut mem, out, 1024);
    }

    #[test]
    fn silent_bit_error_in_region_data_is_caught_by_validation() {
        let (gpu, mut mem, out) = world(1024, None);
        let rt = LpRuntime::setup(&mut mem, 16, 64, LpConfig::recommended());
        let k = fill_lp(out, 1024, &rt);
        gpu.launch(&k, &mut mem).unwrap();
        mem.flush_all();
        // One read under a 100% silent-error model: the fill flips a bit of
        // the durable line, with no notification.
        mem.set_fault_config(Some(FaultConfig::media(23, 0, 10_000)));
        mem.invalidate_clean_lines();
        mem.read_f32(out);
        assert_eq!(mem.stats().silent_bit_errors, 1);
        mem.set_fault_config(None);
        mem.invalidate_clean_lines();
        let report = ResilientRecovery::new(&gpu).recover(&k, &rt, &mut mem);
        assert!(
            report.reexecutions > 0,
            "the checksum must have caught the flip: {report:?}"
        );
        assert!(report.all_durable);
        verify_output(&mut mem, out, 1024);
    }

    #[test]
    fn degraded_mode_flushes_per_store() {
        let (gpu, mut mem, out) = world(1024, None);
        let rt = LpRuntime::setup(&mut mem, 16, 64, LpConfig::recommended());
        let k = fill_lp(out, 1024, &rt);
        gpu.launch(&k, &mut mem).unwrap();
        mem.flush_all();
        // Region 5 fails three validations: two plain repairs, then its
        // third failure routes the repair through degraded mode.
        let thrice = Cell::new(3);
        let hooked = Hooked {
            inner: &k,
            hook: fails(5, &thrice),
        };
        let report = ResilientRecovery::new(&gpu).recover(&hooked, &rt, &mut mem);
        assert!(report.all_durable, "must converge: {report:?}");
        assert_eq!(report.rounds, 4, "{report:?}");
        assert_eq!(report.reexecutions, 3, "{report:?}");
        assert_eq!(report.degraded_reexecutions, 1, "{report:?}");
        assert_eq!(report.verdict_of(5), RegionVerdict::Recovered);
        mem.crash();
        verify_output(&mut mem, out, 1024);
    }

    #[test]
    fn round_budget_exhaustion_reports_honestly() {
        let (gpu, mut mem, out) = world(1024, None);
        let rt = LpRuntime::setup(&mut mem, 16, 64, LpConfig::recommended());
        let k = fill_lp(out, 1024, &rt);
        gpu.launch(&k, &mut mem).unwrap();
        mem.flush_all();
        // Region 5 never validates: rounds 1-11 repair it, degraded from
        // its third failure on, and round 12 ends the budget.
        let always = Cell::new(u32::MAX);
        let hooked = Hooked {
            inner: &k,
            hook: fails(5, &always),
        };
        let report = ResilientRecovery::new(&gpu).recover(&hooked, &rt, &mut mem);
        assert!(!report.all_durable);
        assert_eq!(report.rounds, 12, "{report:?}");
        assert_eq!(report.reexecutions, 11, "{report:?}");
        assert_eq!(report.degraded_reexecutions, 9, "{report:?}");
        assert_eq!(report.persist_debt, 0, "{report:?}");
        assert_eq!(report.exhausted_regions, vec![5], "{report:?}");
        assert_eq!(report.verdict_of(5), RegionVerdict::RetriesExhausted);
        assert_eq!(report.verdict_of(4), RegionVerdict::Recovered);
        assert_eq!(
            report.recovered_regions
                + report.exhausted_regions.len() as u64
                + report.quarantined_regions.len() as u64,
            report.regions
        );
    }

    #[test]
    fn reentrant_recovery_gives_up_after_eight_interrupted_attempts() {
        let (gpu, mut mem, out) = world(1024, None);
        let rt = LpRuntime::setup(&mut mem, 16, 64, LpConfig::recommended());
        let k = fill_lp(out, 1024, &rt);
        crash_after(&gpu, &k, &mut mem, 300);
        // Every validation re-arms a power cut at the next store, so each
        // attempt's first repair store powers the memory off.
        let hooked = Hooked {
            inner: &k,
            hook: |mem: &mut PersistMemory, _: u64, _: &mut Vec<u64>| {
                mem.arm_crash_after_evictions(0)
            },
        };
        let outcome = ResilientRecovery::new(&gpu).recover_reentrant(&hooked, &rt, &mut mem);
        assert_eq!(outcome.attempts, 8, "{outcome:?}");
        assert_eq!(outcome.interruptions, 8, "{outcome:?}");
        assert!(!outcome.is_success(), "{outcome:?}");
        assert!(mem.power_failed());
    }

    #[test]
    fn reentrant_recovery_absorbs_a_mid_recovery_power_failure() {
        let (gpu, mut mem, out) = world(2048, Some(FaultConfig::torn(41, 1_000)));
        let rt = LpRuntime::setup(&mut mem, 32, 64, LpConfig::recommended());
        let k = fill_lp(out, 2048, &rt);
        gpu.launch(&k, &mut mem).unwrap();
        mem.crash();
        mem.arm_crash_after_evictions(2);
        let outcome = ResilientRecovery::new(&gpu).recover_reentrant(&k, &rt, &mut mem);
        mem.disarm_crash();
        assert!(outcome.is_success(), "{outcome:?}");
        assert_eq!(outcome.interruptions, 1, "{outcome:?}");
        assert_eq!(outcome.attempts, 2, "{outcome:?}");
        assert!(
            outcome.total_latency_ns >= outcome.report.latency_ns(),
            "downtime must include the aborted attempt"
        );
        mem.set_fault_config(None);
        mem.crash();
        verify_output(&mut mem, out, 2048);
    }

    #[test]
    fn reentrant_recovery_is_a_plain_recover_when_uninterrupted() {
        let (gpu, mut mem, out) = world(1024, Some(FaultConfig::torn(43, 1_500)));
        let rt = LpRuntime::setup(&mut mem, 16, 64, LpConfig::recommended());
        let k = fill_lp(out, 1024, &rt);
        gpu.launch(&k, &mut mem).unwrap();
        mem.crash();
        let outcome = ResilientRecovery::new(&gpu).recover_reentrant(&k, &rt, &mut mem);
        assert!(outcome.is_success(), "{outcome:?}");
        assert_eq!(outcome.attempts, 1);
        assert_eq!(outcome.interruptions, 0);
        assert_eq!(outcome.total_latency_ns, outcome.report.latency_ns());
        mem.set_fault_config(None);
        verify_output(&mut mem, out, 1024);
    }

    #[test]
    fn power_failure_mid_recovery_aborts_honestly_then_converges() {
        let (gpu, mut mem, out) = world(2048, Some(FaultConfig::torn(37, 1_000)));
        let rt = LpRuntime::setup(&mut mem, 32, 64, LpConfig::recommended());
        let k = fill_lp(out, 2048, &rt);
        gpu.launch(&k, &mut mem).unwrap();
        mem.crash();
        mem.arm_crash_after_evictions(2);
        let rec = ResilientRecovery::new(&gpu);
        let report = rec.recover(&k, &rt, &mut mem);
        assert!(!report.all_durable, "mid-recovery power loss: {report:?}");
        assert!(
            !report.exhausted_regions.is_empty() || report.persist_debt > 0,
            "honesty invariant violated: {report:?}"
        );
        assert!(mem.power_failed());
        mem.power_on();
        let report = rec.recover(&k, &rt, &mut mem);
        assert!(
            report.all_durable,
            "post-reboot run must converge: {report:?}"
        );
        mem.set_fault_config(None);
        mem.crash();
        verify_output(&mut mem, out, 2048);
    }
}
