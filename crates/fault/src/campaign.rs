//! Campaign orchestration: enumerate, fan out, judge, shrink, report.
//!
//! A campaign is the cross product `{workload} × {config} × {backend} ×
//! {seed} × {crash site}`, optionally down-sampled to a trial budget by
//! deterministic striding (so two runs of the same spec execute the same
//! trials). The trials that differ only in their site form a *cell*: they
//! share a staged machine and, up to each one's cut, a forward execution,
//! so a cell runs them off one staging, one clean run and one forward
//! execution (`crate::cell`). Cells are independent, so the runner fans
//! them out over OS threads, each worker pulling whole cells from a shared
//! counter; each trial is wrapped in `catch_unwind` so a panicking
//! simulation is recorded as a failure instead of killing the campaign.
//! Results come out in trial order, each the result [`crate::run_trial`]
//! gives its `TrialId` on its own. Every failure is then shrunk
//! ([`crate::shrink()`]) to a minimal reproducer, and the whole thing is
//! serialized as a JSON [`CampaignReport`].

use crate::cell::{run_cell, run_one, Event};
use crate::shrink::{shrink, ShrinkOutcome};
use crate::site::CrashSite;
use crate::stats::{percentiles, Percentiles};
use crate::trial::{TrialId, TrialResult, CONFIG_NAMES};
use gpu_lp::BackendKind;
use lp_kernels::{subject, Scale, SUBJECT_NAMES};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::RecvTimeoutError;
use std::sync::Mutex;
use std::time::Duration;

/// What to sweep. Build with [`CampaignSpec::default_sweep`] and adjust.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CampaignSpec {
    /// Problem-size preset for every trial.
    pub scale: Scale,
    /// Subject names ([`SUBJECT_NAMES`] by default), in any spelling
    /// [`lp_kernels::subject()`] resolves.
    pub workloads: Vec<String>,
    /// Config names resolvable by [`crate::trial_config`].
    pub configs: Vec<String>,
    /// Persistency backends each config runs under (`[LpChecksum]` by
    /// default; sweep [`BackendKind::ALL`] for a cross-model campaign).
    pub backends: Vec<BackendKind>,
    /// Input seeds.
    pub seeds: Vec<u64>,
    /// Crash sites ([`CrashSite::catalog`] by default).
    pub sites: Vec<CrashSite>,
    /// Whether to drop crash sites the static verifier proves
    /// trial-equivalent to a kept site (see [`crate::prune`]). Off by
    /// default so library sweeps stay the full cross product; the campaign
    /// binary turns it on (with `--no-prune` as the escape hatch).
    pub prune: bool,
    /// Optional cap on executed trials (deterministic stride sampling).
    pub budget: Option<usize>,
    /// Worker threads (`0` = one per available core).
    pub threads: usize,
    /// Verification-trial budget per failure shrink.
    pub shrink_attempts: u32,
    /// Cap on failures that get shrunk (shrinking re-runs trials).
    pub max_shrinks: usize,
    /// Per-trial wall-clock watchdog in milliseconds. A trial exceeding it
    /// is abandoned and recorded as a `TimedOut` verdict (the thread
    /// running it is detached, not killed — the simulation is pure compute,
    /// so an abandoned one only wastes a core until it finishes or the
    /// process exits). `None` disables the watchdog (library default; the
    /// campaign binary defaults to 120 s via `--trial-timeout`).
    pub trial_timeout_ms: Option<u64>,
}

impl CampaignSpec {
    /// The default sweep: every subject, the two most interesting design
    /// points, the LP backend, two seeds, the full site catalog —
    /// 11 × 2 × 1 × 2 × 26 = 1144 trials at `scale`.
    pub fn default_sweep(scale: Scale) -> Self {
        CampaignSpec {
            scale,
            workloads: SUBJECT_NAMES.iter().map(|s| s.to_string()).collect(),
            configs: vec![CONFIG_NAMES[0].to_string(), CONFIG_NAMES[1].to_string()],
            backends: vec![BackendKind::LpChecksum],
            seeds: vec![1, 2],
            sites: CrashSite::catalog(),
            prune: false,
            budget: None,
            threads: 0,
            shrink_attempts: 12,
            max_shrinks: 5,
            trial_timeout_ms: None,
        }
    }

    /// Enumerates the trial IDs this spec executes, budget applied.
    pub fn enumerate(&self) -> Vec<TrialId> {
        self.enumerate_explained().0
    }

    /// Like [`enumerate`](Self::enumerate), but also returns the prune
    /// ledger: one record per (cell, dropped site) with the representative
    /// trial that covers it. Empty unless `prune` is set.
    ///
    /// Every trial and record carries its subject's canonical name,
    /// whatever spelling the spec used, so labels, tallies and the ledger
    /// do not depend on it. A name the subject table does not know is kept
    /// as given: its trials fail with `unknown workload` as their detail
    /// (see [`crate::run_trial`]) instead of vanishing from the report.
    pub fn enumerate_explained(&self) -> (Vec<TrialId>, Vec<PruneRecord>) {
        let mut all = Vec::new();
        let mut ledger = Vec::new();
        // Site pruning depends on (workload, backend) only, not on config
        // or seed; memoize per pair.
        let mut cache: BTreeMap<(String, BackendKind), crate::prune::PruneOutcome> =
            BTreeMap::new();
        for workload in &self.workloads {
            let workload =
                &subject(workload).map_or_else(|| workload.clone(), |s| s.name.to_string());
            for config in &self.configs {
                for &backend in &self.backends {
                    for &seed in &self.seeds {
                        let sites: &[CrashSite] = if self.prune {
                            let outcome =
                                cache.entry((workload.clone(), backend)).or_insert_with(|| {
                                    let nb =
                                        crate::prune::subject_num_blocks(workload, self.scale, 1);
                                    let fp = crate::prune::subject_footprint(workload);
                                    crate::prune::prune_sites(&self.sites, backend, nb, fp.as_ref())
                                });
                            for d in &outcome.pruned {
                                ledger.push(PruneRecord {
                                    workload: workload.clone(),
                                    config: config.clone(),
                                    backend,
                                    seed,
                                    decision: d.clone(),
                                });
                            }
                            &cache[&(workload.clone(), backend)].kept
                        } else {
                            &self.sites
                        };
                        for &site in sites {
                            all.push(TrialId {
                                workload: workload.clone(),
                                config: config.clone(),
                                backend,
                                seed,
                                site,
                            });
                        }
                    }
                }
            }
        }
        let sampled = match self.budget {
            // `Some(0)` means zero trials, not "unlimited".
            Some(budget) if budget < all.len() => {
                // Deterministic stride sampling keeps coverage spread
                // across the whole cross product instead of truncating it.
                let stride = all.len() as f64 / budget as f64;
                (0..budget)
                    .map(|i| all[(i as f64 * stride) as usize].clone())
                    .collect()
            }
            _ => all,
        };
        (sampled, ledger)
    }
}

/// One pruned (cell, site) pair in a campaign's ledger.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PruneRecord {
    /// Subject whose cell dropped the site.
    pub workload: String,
    /// Config of the cell.
    pub config: String,
    /// Backend of the cell.
    pub backend: BackendKind,
    /// Seed of the cell.
    pub seed: u64,
    /// The dropped site, its representative and the justification.
    pub decision: crate::prune::PruneDecision,
}

/// Per-key tallies for the report's summary tables.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Tally {
    /// The key being tallied (a site label or a workload name).
    pub label: String,
    /// Trials executed.
    pub trials: u64,
    /// Trials whose injected crash actually fired.
    pub crashed: u64,
    /// Trials failing at least one oracle.
    pub failed: u64,
}

/// One oracle failure, with its shrunk reproducer.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FailureRecord {
    /// The failing trial as the sweep found it.
    pub result: TrialResult,
    /// The shrunk minimal reproducer (when shrinking was budgeted).
    pub shrunk: Option<ShrinkOutcome>,
}

/// The full campaign outcome (serialized to JSON by the campaign binary).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CampaignReport {
    /// The spec that produced this report.
    pub spec: CampaignSpec,
    /// Trials executed.
    pub trials: u64,
    /// Trials whose crash fired.
    pub crashed: u64,
    /// Trials passing every applicable oracle.
    pub passed: u64,
    /// Trials with O2/O3 reported not-applicable (skipped loss oracles).
    pub oracle_skips: u64,
    /// Trials the static pruner removed before execution (zero when
    /// `spec.prune` is off).
    pub pruned_trials: u64,
    /// The prune ledger: every dropped (cell, site) with justification.
    pub pruned: Vec<PruneRecord>,
    /// Tallies keyed by crash-site label, sorted by label.
    pub by_site: Vec<Tally>,
    /// Tallies keyed by workload, sorted by name.
    pub by_workload: Vec<Tally>,
    /// Trials abandoned by the per-trial watchdog (all counted in
    /// `failures` too, but never shrunk — re-running a hung trial would
    /// hang the shrinker).
    pub timed_out: u64,
    /// Restoration-latency distribution (modelled `recovery_ns`) over the
    /// trials whose injected crash fired — the campaign-side view of the
    /// soak engine's per-cycle restoration metric.
    pub restoration_latency: Option<Percentiles>,
    /// Every failure, shrunk where budget allowed.
    pub failures: Vec<FailureRecord>,
}

impl CampaignReport {
    /// `true` iff every executed trial passed its oracles.
    pub fn all_passed(&self) -> bool {
        self.failures.is_empty() && self.passed == self.trials
    }

    /// The process exit code the campaign binary must report.
    ///
    /// In a normal run the campaign succeeds iff every trial passed. In a
    /// `--sabotage` run the logic inverts: the demo exists to prove the
    /// oracles catch a deliberately-broken config, so a fully-passing
    /// report means the bug went *undetected* — a failure. Sanitizer
    /// findings fail the run in either mode.
    pub fn exit_code(&self, sabotage: bool, sanitizer_findings: usize) -> i32 {
        let campaign_ok = if sabotage {
            !self.all_passed()
        } else {
            self.all_passed()
        };
        i32::from(!campaign_ok || sanitizer_findings > 0)
    }
}

/// Runs `cell`'s trials ([`run_cell`]) and hands each result to `out` with
/// its position in `cell`.
///
/// Under the per-trial watchdog the cell runs on a helper thread, and each
/// of its trials must report back within `timeout_ms` of the last thing the
/// cell reported. One that does not is recorded as a distinct `TimedOut`
/// verdict against its [`TrialId`] and abandoned with the helper (the thread
/// is detached — a pure-compute simulation cannot be killed safely, so it
/// is left to run into a dropped channel); the cell's remaining trials then
/// run one at a time, each on a thread of its own under the same watchdog.
fn run_cell_timed(
    cell: &[TrialId],
    scale: Scale,
    timeout_ms: Option<u64>,
    out: &mut dyn FnMut(usize, TrialResult),
) {
    let Some(ms) = timeout_ms else {
        run_cell(cell, scale, &mut |e| {
            if let Event::Finished(i, r) = e {
                out(i, r);
            }
            true
        });
        return;
    };
    let (tx, rx) = std::sync::mpsc::channel();
    let owned = cell.to_vec();
    std::thread::spawn(move || run_cell(&owned, scale, &mut |e| tx.send(e).is_ok()));
    let mut pending: BTreeSet<usize> = (0..cell.len()).collect();
    let mut running = None;
    while let Some(&next) = pending.first() {
        match rx.recv_timeout(Duration::from_millis(ms)) {
            Ok(Event::Started(i)) => running = Some(i),
            Ok(Event::Finished(i, r)) => {
                pending.remove(&i);
                out(i, r);
            }
            Err(RecvTimeoutError::Timeout) => {
                let i = running.filter(|i| pending.contains(i)).unwrap_or(next);
                pending.remove(&i);
                out(i, timed_out(&cell[i], ms));
                break;
            }
            Err(RecvTimeoutError::Disconnected) => break,
        }
    }
    drop(rx);
    for i in pending {
        out(i, run_one_timed(&cell[i], scale, ms));
    }
}

/// The verdict of a trial the watchdog abandoned after `ms` milliseconds.
fn timed_out(id: &TrialId, ms: u64) -> TrialResult {
    TrialResult::aborted(id, true, format!("TimedOut: exceeded {ms} ms wall clock"))
}

/// [`run_one`] on a thread of its own under the per-trial watchdog.
fn run_one_timed(id: &TrialId, scale: Scale, ms: u64) -> TrialResult {
    let (tx, rx) = std::sync::mpsc::sync_channel(1);
    let thread_id = id.clone();
    std::thread::spawn(move || {
        // The receiver may be gone (watchdog fired); a failed send is fine.
        let _ = tx.send(run_one(&thread_id, scale));
    });
    rx.recv_timeout(Duration::from_millis(ms))
        .unwrap_or_else(|_| timed_out(id, ms))
}

/// Runs every trial of `spec` and assembles the report. Trials are grouped
/// into cells (see the module docs); worker threads pull whole cells from a
/// shared counter. `progress` is called after each finished trial with
/// `(done, total)` — pass `|_, _| {}` when no live feedback is wanted.
pub fn run_campaign(spec: &CampaignSpec, progress: impl Fn(usize, usize) + Sync) -> CampaignReport {
    let (ids, prune_ledger) = spec.enumerate_explained();
    let total = ids.len();
    let results = run_trials(&ids, spec, &progress);
    let mut report = CampaignReport {
        spec: spec.clone(),
        trials: total as u64,
        crashed: 0,
        passed: 0,
        oracle_skips: 0,
        pruned_trials: prune_ledger.len() as u64,
        pruned: prune_ledger,
        by_site: Vec::new(),
        by_workload: Vec::new(),
        timed_out: 0,
        restoration_latency: None,
        failures: Vec::new(),
    };
    let mut by_site: BTreeMap<String, Tally> = BTreeMap::new();
    let mut by_workload: BTreeMap<String, Tally> = BTreeMap::new();
    let mut recovery_latencies = Vec::new();
    for r in &results {
        let site_tally = by_site.entry(r.id.site.label()).or_default();
        let wl_tally = by_workload.entry(r.id.workload.clone()).or_default();
        for tally in [site_tally, wl_tally] {
            tally.trials += 1;
            tally.crashed += r.crashed as u64;
            tally.failed += !r.passed as u64;
        }
        report.crashed += r.crashed as u64;
        report.passed += r.passed as u64;
        report.timed_out += r.timed_out as u64;
        report.oracle_skips += (r.o2.is_none() || r.o3.is_none()) as u64;
        if r.crashed {
            recovery_latencies.push(r.recovery_ns);
        }
    }
    report.restoration_latency = percentiles(&recovery_latencies);
    let labelled = |m: BTreeMap<String, Tally>| {
        m.into_iter()
            .map(|(label, t)| Tally { label, ..t })
            .collect()
    };
    report.by_site = labelled(by_site);
    report.by_workload = labelled(by_workload);
    for r in results {
        if r.passed {
            continue;
        }
        // A timed-out trial is never shrunk: shrinking re-runs the trial,
        // and re-running a hung simulation would hang the shrinker too.
        let shrunk = (!r.timed_out && report.failures.len() < spec.max_shrinks)
            .then(|| shrink(&r.id, spec.scale, spec.shrink_attempts));
        report.failures.push(FailureRecord { result: r, shrunk });
    }
    report
}

/// Every trial of `ids` — the campaign `spec` enumerates — fanned out over
/// `spec.threads` workers, in `ids` order. The trials of a cell are
/// adjacent in enumeration order (the site varies fastest, and budget
/// sampling keeps the order), so a cell is a maximal run of trials that
/// agree on everything but the site.
fn run_trials(
    ids: &[TrialId],
    spec: &CampaignSpec,
    progress: &(impl Fn(usize, usize) + Sync),
) -> Vec<TrialResult> {
    let threads = if spec.threads == 0 {
        std::thread::available_parallelism().map_or(4, |n| n.get())
    } else {
        spec.threads
    }
    .max(1);
    let mut cells = Vec::new();
    let mut first = 0;
    for cell in ids.chunk_by(|a, b| {
        (&a.workload, &a.config, a.backend, a.seed) == (&b.workload, &b.config, b.backend, b.seed)
    }) {
        cells.push((first, cell));
        first += cell.len();
    }

    let next = AtomicUsize::new(0);
    let done = AtomicUsize::new(0);
    let results = Mutex::new(vec![None; ids.len()]);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                while let Some(&(first, cell)) = cells.get(next.fetch_add(1, Ordering::Relaxed)) {
                    run_cell_timed(cell, spec.scale, spec.trial_timeout_ms, &mut |i, r| {
                        results
                            .lock()
                            .expect("no thread panics holding the result table")[first + i] =
                            Some(r);
                        progress(done.fetch_add(1, Ordering::Relaxed) + 1, ids.len());
                    });
                }
            });
        }
    });
    results
        .into_inner()
        .expect("no thread panics holding the result table")
        .into_iter()
        .map(|r| r.expect("every trial reports a result"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trial::{run_trial, SABOTAGE_CONFIG};

    fn tiny_spec() -> CampaignSpec {
        CampaignSpec {
            workloads: vec!["SPMV".to_string(), "TMM".to_string()],
            configs: vec!["recommended".to_string()],
            seeds: vec![1],
            sites: vec![
                CrashSite::AfterStores { pct: 50 },
                CrashSite::BetweenKernels,
                CrashSite::MidCheckpoint { pct: 50 },
            ],
            ..CampaignSpec::default_sweep(Scale::Test)
        }
    }

    #[test]
    fn every_campaign_result_is_the_from_scratch_trial() {
        // Six cells of the whole site catalog (so forks start at every
        // kind of boundary), together every config and every backend.
        let cells = [
            ("SPMV", SABOTAGE_CONFIG, BackendKind::LpChecksum),
            ("TMM", "quad", BackendKind::Adaptive),
            ("MEGAKV-INSERT", "cuckoo", BackendKind::Eager),
            ("MRI-GRIDDING", "seq-reduce", BackendKind::Sbrp),
            ("HISTO", "recommended", BackendKind::Epoch),
            ("CUTCP", "cuckoo", BackendKind::LpChecksum),
        ];
        let ids: Vec<TrialId> = cells
            .iter()
            .flat_map(|&(workload, config, backend)| {
                CampaignSpec {
                    workloads: vec![workload.to_string()],
                    configs: vec![config.to_string()],
                    backends: vec![backend],
                    seeds: vec![2],
                    ..CampaignSpec::default_sweep(Scale::Test)
                }
                .enumerate()
            })
            .collect();
        let line = |r: &TrialResult| serde_json::to_string(r).expect("serialises");
        let want: Vec<String> = ids
            .iter()
            .map(|id| line(&run_trial(id, Scale::Test)))
            .collect();
        assert!(want.iter().any(|l| l.contains("\"passed\":false")));
        // With and without the watchdog: the cell runs on the worker or
        // on a helper thread, and must not notice.
        for trial_timeout_ms in [None, Some(600_000)] {
            let spec = CampaignSpec {
                threads: 2,
                trial_timeout_ms,
                ..CampaignSpec::default_sweep(Scale::Test)
            };
            let got: Vec<String> = run_trials(&ids, &spec, &|_, _| {})
                .iter()
                .map(line)
                .collect();
            assert_eq!(got.len(), want.len());
            for (got, want) in got.iter().zip(&want) {
                assert_eq!(got, want, "{trial_timeout_ms:?}");
            }
        }
    }

    #[test]
    fn enumeration_is_the_full_cross_product() {
        let mut spec = CampaignSpec::default_sweep(Scale::Test);
        assert_eq!(spec.enumerate().len(), 11 * 2 * 2 * 26);
        spec.backends = BackendKind::ALL.to_vec();
        assert_eq!(spec.enumerate().len(), 11 * 2 * 4 * 2 * 26);
    }

    #[test]
    fn every_spelling_of_a_subject_enumerates_the_same_campaign() {
        // Regression: the name resolvers used to disagree on case and
        // aliases, so "spmv" lost the footprint family (20 prune records
        // for SPMV's 28) and "MRIQ" enumerated trials that all panicked.
        let enumerate = |name: &str| {
            let spec = CampaignSpec {
                workloads: vec![name.to_string()],
                prune: true,
                ..CampaignSpec::default_sweep(Scale::Test)
            };
            let (ids, ledger) = spec.enumerate_explained();
            let labels: Vec<String> = ids.iter().map(TrialId::label).collect();
            let ledger: Vec<String> = ledger
                .iter()
                .map(|r| format!("{}/{}/{:?}", r.workload, r.config, r.decision))
                .collect();
            (labels, ledger)
        };
        for (canonical, spellings) in [("SPMV", ["spmv", "Spmv"]), ("MRI-Q", ["MRIQ", "mri-q"])] {
            let want = enumerate(canonical);
            assert!(want.0.iter().all(|l| l.starts_with(canonical)));
            assert!(
                want.1.iter().any(|r| r.contains("footprint")),
                "{canonical}"
            );
            for spelling in spellings {
                assert_eq!(enumerate(spelling), want, "{spelling}");
            }
        }
        // A name the table does not know still shows up, as failures.
        let spec = CampaignSpec {
            workloads: vec!["NO-SUCH".to_string()],
            sites: vec![CrashSite::BetweenKernels],
            prune: true,
            max_shrinks: 0,
            ..CampaignSpec::default_sweep(Scale::Test)
        };
        let report = run_campaign(&spec, |_, _| {});
        assert_eq!((report.trials, report.passed), (4, 0));
        assert!(report
            .failures
            .iter()
            .all(|f| f.result.detail == "unknown workload \"NO-SUCH\""));
    }

    #[test]
    fn backend_sweep_campaign_is_green_for_every_backend() {
        let spec = CampaignSpec {
            workloads: vec!["SPMV".to_string()],
            configs: vec!["recommended".to_string()],
            backends: BackendKind::ALL.to_vec(),
            seeds: vec![1],
            sites: vec![
                CrashSite::AfterStores { pct: 50 },
                CrashSite::BetweenKernels,
            ],
            ..CampaignSpec::default_sweep(Scale::Test)
        };
        let report = run_campaign(&spec, |_, _| {});
        assert_eq!(report.trials, 4 * 2);
        assert!(report.all_passed(), "{:#?}", report.failures);
        // Non-LP backends skip the loss-attribution oracles by contract.
        assert_eq!(report.oracle_skips, 3 * 2);
    }

    #[test]
    fn pruning_removes_at_least_a_fifth_of_the_default_sweep() {
        let mut spec = CampaignSpec::default_sweep(Scale::Test);
        let full = spec.enumerate().len();
        spec.prune = true;
        let (kept, ledger) = spec.enumerate_explained();
        assert_eq!(kept.len() + ledger.len(), full, "pruning loses no trial");
        assert!(
            ledger.len() * 5 >= full,
            "only {}/{full} trials pruned (< 20%)",
            ledger.len()
        );
        // The footprint family must prune strictly past the 248/1144
        // (21.7%) the contract + geometry families reached on their own,
        // and its decisions must be visible in the ledger.
        assert!(
            ledger.len() > 248,
            "footprint family regressed: only {}/{full} pruned",
            ledger.len()
        );
        let footprint_records = ledger
            .iter()
            .filter(|r| r.decision.why.contains("footprint"))
            .count();
        assert!(
            footprint_records > 0,
            "no footprint-based decision in the ledger"
        );
        // Off by default: the ledger stays empty and the product full.
        let (unpruned, empty) = CampaignSpec::default_sweep(Scale::Test).enumerate_explained();
        assert_eq!(unpruned.len(), full);
        assert!(empty.is_empty());
    }

    #[test]
    fn pruned_sites_agree_with_their_representatives_at_sampled_scale() {
        // The pruning oracle: for every (dropped site, representative)
        // pair in a sampled sweep, run both trials and demand identical
        // verdicts — a pruned site must never be a failing site unless its
        // representative fails too.
        let mut spec = CampaignSpec::default_sweep(Scale::Test);
        spec.prune = true;
        spec.workloads = vec!["SPMV".to_string(), "MEGAKV-DELETE".to_string()];
        spec.configs = vec!["recommended".to_string()];
        spec.seeds = vec![1];
        let (kept, ledger) = spec.enumerate_explained();
        assert!(!ledger.is_empty(), "sample must exercise the pruner");
        for rec in &ledger {
            let pruned_id = TrialId {
                workload: rec.workload.clone(),
                config: rec.config.clone(),
                backend: rec.backend,
                seed: rec.seed,
                site: rec.decision.site,
            };
            let rep_id = crate::prune::representative_trial(&pruned_id, &rec.decision);
            assert!(
                kept.contains(&rep_id),
                "representative of {pruned_id:?} must still run"
            );
            let a = run_one(&pruned_id, spec.scale);
            let b = run_one(&rep_id, spec.scale);
            assert_eq!(
                a.passed, b.passed,
                "verdicts diverge for {:?} vs {:?}: {} / {}",
                rec.decision.site, rec.decision.replaced_by, a.detail, b.detail
            );
        }
    }

    #[test]
    fn budget_stride_samples_deterministically_across_the_product() {
        let mut spec = CampaignSpec::default_sweep(Scale::Test);
        spec.budget = Some(100);
        let a = spec.enumerate();
        let b = spec.enumerate();
        assert_eq!(a.len(), 100);
        assert_eq!(a, b);
        // Striding must reach past the front of the product.
        assert!(a.iter().any(|id| id.workload != a[0].workload));
    }

    #[test]
    fn tiny_campaign_passes_all_oracles() {
        let report = run_campaign(&tiny_spec(), |_, _| {});
        assert_eq!(report.trials, 6);
        assert!(report.all_passed(), "{:#?}", report.failures);
        assert!(report.crashed >= 4, "most sites should fire: {report:#?}");
        let json = serde_json::to_string(&report).unwrap();
        assert!(json.contains("by_site"));
    }

    #[test]
    fn exit_code_covers_all_mode_and_outcome_combinations() {
        let mut report = run_campaign(
            &CampaignSpec {
                budget: Some(0),
                ..tiny_spec()
            },
            |_, _| {},
        );
        // Zero trials: vacuously all-passed.
        assert!(report.all_passed());
        assert_eq!(report.exit_code(false, 0), 0);
        assert_eq!(report.exit_code(false, 1), 1, "sanitizer findings fail");
        assert_eq!(report.exit_code(true, 0), 1, "undetected sabotage fails");
        // Simulate a failing trial.
        report.passed = 0;
        report.trials = 1;
        assert_eq!(report.exit_code(false, 0), 1);
        assert_eq!(report.exit_code(true, 0), 0, "caught sabotage succeeds");
        assert_eq!(report.exit_code(true, 2), 1, "sanitizer still gates");
    }

    #[test]
    fn device_fault_campaign_has_zero_silent_corruption() {
        let spec = CampaignSpec {
            workloads: vec![
                "TMM".to_string(),
                "SPMV".to_string(),
                "MEGAKV-INSERT".to_string(),
            ],
            configs: vec!["recommended".to_string()],
            seeds: vec![1],
            sites: CrashSite::catalog()
                .into_iter()
                .filter(|s| s.is_device_fault())
                .collect(),
            ..CampaignSpec::default_sweep(Scale::Test)
        };
        let report = run_campaign(&spec, |_, _| {});
        assert_eq!(report.trials, 3 * 6);
        if let Some(f) = report.failures.first() {
            panic!("device-fault trial failed: {:?}", f.result);
        }
        assert!(report.all_passed());
        assert_eq!(report.exit_code(false, 0), 0);
    }

    #[test]
    fn tiny_campaign_reports_restoration_percentiles() {
        let report = run_campaign(&tiny_spec(), |_, _| {});
        let p = report
            .restoration_latency
            .expect("crashed trials must yield a latency distribution");
        assert_eq!(p.samples, report.crashed);
        assert!(p.p50 <= p.p95 && p.p95 <= p.p99 && p.p99 <= p.max);
    }

    #[test]
    fn watchdog_reports_timed_out_verdicts_without_wedging() {
        // A 0 ms budget times every trial out deterministically — the
        // point is the *reporting* path, not the race.
        let spec = CampaignSpec {
            trial_timeout_ms: Some(0),
            ..tiny_spec()
        };
        let report = run_campaign(&spec, |_, _| {});
        assert_eq!(report.timed_out, report.trials);
        assert_eq!(report.passed, 0);
        assert_eq!(report.failures.len(), report.trials as usize);
        for f in &report.failures {
            assert!(f.result.timed_out);
            assert!(f.result.detail.contains("TimedOut"), "{}", f.result.detail);
            assert!(f.shrunk.is_none(), "timed-out trials must not be shrunk");
        }
        // A generous budget changes nothing about a healthy campaign.
        let spec = CampaignSpec {
            trial_timeout_ms: Some(120_000),
            ..tiny_spec()
        };
        let report = run_campaign(&spec, |_, _| {});
        assert_eq!(report.timed_out, 0);
        assert!(report.all_passed(), "{:#?}", report.failures);
    }

    #[test]
    fn sabotaged_campaign_reports_shrunk_failures() {
        let mut spec = tiny_spec();
        spec.workloads = vec!["SPMV".to_string()];
        spec.configs = vec![SABOTAGE_CONFIG.to_string()];
        spec.sites = vec![CrashSite::AfterStores { pct: 75 }];
        spec.seeds = vec![2];
        let report = run_campaign(&spec, |_, _| {});
        assert!(!report.all_passed(), "sabotage must be caught");
        let failure = &report.failures[0];
        let shrunk = failure.shrunk.as_ref().expect("first failure gets shrunk");
        assert_eq!(shrunk.minimal.config, SABOTAGE_CONFIG);
        assert_eq!(shrunk.minimal.seed, 1);
    }
}
