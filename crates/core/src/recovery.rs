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
//!   [`PersistMemory::flush_all_result`];
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

/// A kernel whose LP regions can be validated and re-executed.
///
/// `recompute_block_checksums` is the generated check-and-recovery logic of
/// Listing 7: it must read back exactly the locations the block's protected
/// stores wrote and fold them in the same per-thread order the kernel's
/// [`crate::LpBlockSession`] did.
///
/// Regions must be idempotent (re-executable): the kernels in this
/// workspace are structured gather-style so that re-running a block always
/// reproduces the same output, the property §IV-A relies on for trivial
/// recovery functions.
pub trait Recoverable: Kernel {
    /// Recomputes region `block`'s checksum vector from current memory.
    fn recompute_block_checksums(&self, mem: &mut PersistMemory, block: u64) -> Vec<u64>;
}

/// Tuning knobs for [`ResilientRecovery`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ResilientConfig {
    /// Maximum validate / repair rounds before giving up on the remaining
    /// regions (they are reported as [`RegionVerdict::RetriesExhausted`]).
    pub max_rounds: u32,
    /// Flush attempts per round (whole-cache) and per line (degraded mode)
    /// before the offending lines are quarantined.
    pub flush_retries: u32,
    /// Modelled backoff before the first flush retry, in nanoseconds;
    /// doubles per attempt.
    pub backoff_base_ns: u64,
    /// Validation failures a region tolerates before it is switched to
    /// degraded (eager flush-per-store) re-execution.
    pub degraded_after: u32,
    /// ECC-corrected error events on one line before it is predictively
    /// quarantined (the page-offlining policy real NVM firmware applies to
    /// decaying media).
    pub ce_quarantine_after: u32,
}

impl Default for ResilientConfig {
    fn default() -> Self {
        Self {
            max_rounds: 12,
            flush_retries: 6,
            backoff_base_ns: 200,
            degraded_after: 2,
            ce_quarantine_after: 2,
        }
    }
}

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
    cfg: ResilientConfig,
}

impl<'g> ResilientRecovery<'g> {
    /// Creates a driver on `gpu` with the default configuration.
    pub fn new(gpu: &'g Gpu) -> Self {
        Self {
            gpu,
            cfg: ResilientConfig::default(),
        }
    }

    /// Creates a driver on `gpu` with an explicit configuration.
    pub fn with_config(gpu: &'g Gpu, cfg: ResilientConfig) -> Self {
        assert!(cfg.max_rounds > 0, "need at least one round");
        assert!(cfg.flush_retries > 0, "need at least one flush attempt");
        Self { gpu, cfg }
    }

    /// The active configuration.
    pub fn config(&self) -> &ResilientConfig {
        &self.cfg
    }

    fn charge_backoff(&self, attempt: u32, report: &mut ResilientReport) {
        report.flush_retries += 1;
        report.backoff_ns += self.cfg.backoff_base_ns << attempt.min(10);
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
        for attempt in 0..self.cfg.flush_retries {
            if mem.flush_all_result() == 0 || mem.power_failed() {
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
            if *seen >= self.cfg.ce_quarantine_after {
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
                lp_persist::drain_line_with_retry(mem, base, self.cfg.flush_retries, |attempt| {
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

        for round in 1..=self.cfg.max_rounds {
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
            if round == self.cfg.max_rounds {
                break;
            }
            for &b in &last_failed {
                if mem.power_failed() {
                    break;
                }
                let fails = fail_counts.entry(b).or_insert(0);
                *fails += 1;
                let cost = if *fails > self.cfg.degraded_after {
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
    /// state is fully durable or `max_attempts` runs out.
    ///
    /// [`recover`](Self::recover) aborts honestly on a mid-recovery power
    /// failure; this wrapper is the other half of that contract — it powers
    /// the machine back on and re-enters. Convergence is monotone: each
    /// aborted attempt left every completed repair round flushed, so the
    /// next attempt validates against strictly-no-worse durable state.
    /// `max_attempts` only guards against a pathological device (e.g. a
    /// crash armed to fire on every attempt).
    pub fn recover_reentrant(
        &self,
        kernel: &dyn Recoverable,
        rt: &LpRuntime,
        mem: &mut PersistMemory,
        max_attempts: u32,
    ) -> ReentrantOutcome {
        assert!(max_attempts > 0, "need at least one attempt");
        let mut out = ReentrantOutcome::default();
        for attempt in 1..=max_attempts {
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
    use crate::checksum::f32_store_image;
    use crate::region::{LpBlockSession, LpConfig};
    use nvm::{Addr, FaultConfig, NvmConfig};
    use simt::{BlockCtx, CrashPlan, DeviceConfig, LaunchConfig};

    /// out[i] = (i % 97) * 0.5 as f32, LP-protected, one value per thread.
    struct FillLp<'rt> {
        out: Addr,
        n: u64,
        rt: &'rt LpRuntime,
    }

    impl Kernel for FillLp<'_> {
        fn name(&self) -> &str {
            "fill_lp"
        }

        fn config(&self) -> LaunchConfig {
            LaunchConfig::linear(self.n, 64)
        }

        fn run_block(&self, ctx: &mut BlockCtx<'_>) {
            let mut lp = LpBlockSession::begin(self.rt, ctx);
            for t in 0..ctx.threads_per_block() {
                let gid = ctx.global_thread_id(t);
                if gid < self.n {
                    let v = (gid % 97) as f32 * 0.5;
                    lp.store_f32(ctx, t, self.out.index(gid, 4), v);
                }
            }
            lp.finalize(ctx);
        }
    }

    impl Recoverable for FillLp<'_> {
        fn recompute_block_checksums(&self, mem: &mut PersistMemory, block: u64) -> Vec<u64> {
            let tpb = self.config().threads_per_block();
            let mut images = Vec::new();
            for t in 0..tpb {
                let gid = block * tpb + t;
                if gid < self.n {
                    images.push(f32_store_image(mem.read_f32(self.out.index(gid, 4))));
                }
            }
            self.rt.digest_region(block, images)
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
        cfg: ResilientConfig,
    ) -> (ResilientReport, PersistMemory, Addr, u64) {
        let (gpu, mut mem, out) = world(n, Some(faults));
        let rt = LpRuntime::setup(&mut mem, blocks, 64, LpConfig::recommended());
        let k = FillLp { out, n, rt: &rt };
        gpu.launch(&k, &mut mem).unwrap();
        mem.crash();
        let report = ResilientRecovery::with_config(&gpu, cfg).recover(&k, &rt, &mut mem);
        (report, mem, out, n)
    }

    // ---- perfect device: the paper's algorithm -------------------------

    #[test]
    fn clean_run_validates_clean() {
        let (gpu, mut mem, out) = world(2048, None);
        let rt = LpRuntime::setup(&mut mem, 32, 64, LpConfig::recommended());
        let k = FillLp {
            out,
            n: 2048,
            rt: &rt,
        };
        gpu.launch(&k, &mut mem).unwrap();
        mem.flush_all();
        assert!(rt.failing_regions(&k, &mut mem).is_empty());
    }

    #[test]
    fn clean_run_is_all_durable_in_one_round() {
        let (gpu, mut mem, out) = world(1024, None);
        let rt = LpRuntime::setup(&mut mem, 16, 64, LpConfig::recommended());
        let k = FillLp {
            out,
            n: 1024,
            rt: &rt,
        };
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
        let k = FillLp {
            out,
            n: 2048,
            rt: &rt,
        };
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
        let k = FillLp {
            out,
            n: 1024,
            rt: &rt,
        };
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
        let k = FillLp {
            out,
            n: 512,
            rt: &rt,
        };
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
            let k = FillLp {
                out,
                n: 1024,
                rt: &rt,
            };
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
            let k = FillLp {
                out,
                n: 2048,
                rt: &rt,
            };
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
        let k = FillLp {
            out,
            n: 2048,
            rt: &rt,
        };
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
        let k = FillLp {
            out,
            n: 512,
            rt: &rt,
        };
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
        let k = FillLp {
            out,
            n: 512,
            rt: &rt,
        };
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
            ResilientConfig::default(),
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
            ResilientConfig::default(),
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
            ResilientConfig::default(),
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
        let k = FillLp {
            out,
            n: 1024,
            rt: &rt,
        };
        gpu.launch(&k, &mut mem).unwrap();
        mem.flush_all();
        // Every fill from now on reports a corrected media error; with the
        // threshold at one event, the validation scrub retires each line it
        // touches on first contact.
        mem.set_fault_config(Some(FaultConfig::media(5, 10_000, 0)));
        let cfg = ResilientConfig {
            ce_quarantine_after: 1,
            ..ResilientConfig::default()
        };
        let report = ResilientRecovery::with_config(&gpu, cfg).recover(&k, &rt, &mut mem);
        assert!(report.all_durable, "CEs corrupt nothing: {report:?}");
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
        let k = FillLp {
            out,
            n: 1024,
            rt: &rt,
        };
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
        let cfg = ResilientConfig {
            degraded_after: 0, // degrade on the first failure
            ..ResilientConfig::default()
        };
        let (report, mut mem, out, n) =
            run_and_recover(1024, 16, FaultConfig::torn(29, 1_500), cfg);
        assert!(report.all_durable, "must converge: {report:?}");
        assert!(
            report.degraded_reexecutions > 0,
            "degraded_after=0 must route every repair through degraded mode"
        );
        assert_eq!(report.degraded_reexecutions, report.reexecutions);
        mem.set_fault_config(None);
        mem.crash();
        verify_output(&mut mem, out, n);
    }

    #[test]
    fn round_budget_exhaustion_reports_honestly() {
        let cfg = ResilientConfig {
            max_rounds: 1, // validate once, never repair
            ..ResilientConfig::default()
        };
        let (report, _mem, _out, _n) = run_and_recover(2048, 32, FaultConfig::torn(31, 3_000), cfg);
        assert!(!report.all_durable);
        assert!(
            !report.exhausted_regions.is_empty() || report.persist_debt > 0,
            "honesty invariant violated: {report:?}"
        );
        let r = report.exhausted_regions[0];
        assert_eq!(report.verdict_of(r), RegionVerdict::RetriesExhausted);
        assert_eq!(
            report.recovered_regions
                + report.exhausted_regions.len() as u64
                + report.quarantined_regions.len() as u64,
            report.regions
        );
    }

    #[test]
    fn reentrant_recovery_absorbs_a_mid_recovery_power_failure() {
        let (gpu, mut mem, out) = world(2048, Some(FaultConfig::torn(41, 1_000)));
        let rt = LpRuntime::setup(&mut mem, 32, 64, LpConfig::recommended());
        let k = FillLp {
            out,
            n: 2048,
            rt: &rt,
        };
        gpu.launch(&k, &mut mem).unwrap();
        mem.crash();
        mem.arm_crash_after_evictions(2);
        let outcome = ResilientRecovery::new(&gpu).recover_reentrant(&k, &rt, &mut mem, 8);
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
        let k = FillLp {
            out,
            n: 1024,
            rt: &rt,
        };
        gpu.launch(&k, &mut mem).unwrap();
        mem.crash();
        let outcome = ResilientRecovery::new(&gpu).recover_reentrant(&k, &rt, &mut mem, 8);
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
        let k = FillLp {
            out,
            n: 2048,
            rt: &rt,
        };
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
