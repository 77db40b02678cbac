//! One campaign cell: the trials that share workload, config, backend and
//! seed, run off one staging, one clean run and one forward execution.
//!
//! Every trial of a cell stages the same machine and, up to its crash
//! point, executes the same launch; only the cut differs. So a cell stages
//! its instance once ([`stage_instance`]) and then:
//!
//! 1. **The clean run** (only when a trial needs it) runs on a copy of the
//!    staging: one crash-free launch recording the store clock and the
//!    natural evictions at every block boundary, and the clean store count.
//! 2. **The forward execution** is a second crash-free launch, on the
//!    staging itself. At each boundary some trial starts from, the cell
//!    forks `(Instance, Launch)`, runs the trial to its verdict on the fork
//!    ([`execute`]) and drops the fork; the forward execution steps on. A
//!    trial starts from the last boundary its crash point is not behind
//!    ([`fork_boundary`]), where the fork and a launch from block 0 are the
//!    same execution — `simt`'s `Launch` is pinned to that by a proptest,
//!    and the campaign to [`run_trial`] by a differential test.
//! 3. **Everything else runs from scratch** ([`run_trial`]): the
//!    device-fault trials, whose fault model changes the run from block 0,
//!    and whatever the shared execution did not reach — a subject or config
//!    that does not resolve, or a panic outside any one trial.
//!
//! A worker so holds at most two machines at once: the staging and the
//! clean run, then the forward execution and one fork. Each trial is
//! wrapped in `catch_unwind`, as a trial run on its own is.

use crate::site::CrashSite;
use crate::trial::{execute, resolve, run_trial, stage_instance, start, TrialId, TrialResult};
use lp_kernels::Scale;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// What a cell reports as it runs, by position in its trial list.
pub(crate) enum Event {
    /// The trial at this position starts running.
    Started(usize),
    /// The trial at this position finished with this result.
    Finished(usize, TrialResult),
}

/// Runs one trial from scratch; a panicking trial still yields a (failing)
/// result.
pub(crate) fn run_one(id: &TrialId, scale: Scale) -> TrialResult {
    guarded(id, || run_trial(id, scale))
}

/// `f`'s result or, if it panics, the failing result recording the panic
/// against `id`.
fn guarded(id: &TrialId, f: impl FnOnce() -> TrialResult) -> TrialResult {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|payload| {
        let msg = payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| payload.downcast_ref::<&str>().copied())
            .unwrap_or("non-string panic payload");
        TrialResult::aborted(id, false, format!("panic: {msg}"))
    })
}

/// Runs the trials of one cell — `ids`, all sharing workload, config,
/// backend and seed — reporting each to `sink` as it starts and as it
/// finishes. Stops early once `sink` returns `false`.
pub(crate) fn run_cell(ids: &[TrialId], scale: Scale, sink: &mut dyn FnMut(Event) -> bool) {
    let mut done = vec![false; ids.len()];
    let mut report = |e: Event| {
        if let Event::Finished(i, _) = e {
            done[i] = true;
        }
        sink(e)
    };
    if let Ok(false) = catch_unwind(AssertUnwindSafe(|| fork_trials(ids, scale, &mut report))) {
        return;
    }
    for (i, id) in ids.iter().enumerate().filter(|&(i, _)| !done[i]) {
        if !(sink(Event::Started(i)) && sink(Event::Finished(i, run_one(id, scale)))) {
            return;
        }
    }
}

/// The clean run's store clock and natural evictions at every block
/// boundary (indexed by blocks completed), and its store count.
struct CleanRun {
    boundaries: Vec<(u64, u64)>,
    stores: u64,
}

impl CleanRun {
    /// Whether a trial at `site` starts from a boundary only the clean run
    /// can place.
    fn needed_by(site: CrashSite) -> bool {
        site.needs_store_count() || matches!(site, CrashSite::AfterEvictions { .. })
    }

    /// The last boundary whose store clock is at most `cut`.
    fn last_at_or_before_store(&self, cut: u64) -> u64 {
        let last = self
            .boundaries
            .iter()
            .rposition(|&(stores, _)| stores <= cut);
        last.unwrap_or(0) as u64
    }

    /// The last boundary with fewer than `nth` natural evictions.
    fn last_before_eviction(&self, nth: u64) -> u64 {
        let last = self
            .boundaries
            .iter()
            .rposition(|&(_, evictions)| evictions < nth);
        last.unwrap_or(0) as u64
    }
}

/// The block boundary a trial at `site` forks from: the last one its crash
/// point is not behind. `None` for the device-fault sites, which run from
/// scratch. `clean` must be given for the sites [`CleanRun::needed_by`]
/// names.
fn fork_boundary(site: CrashSite, num_blocks: u64, clean: Option<&CleanRun>) -> Option<u64> {
    let clean = || clean.expect("the clean run places this site");
    Some(match site {
        CrashSite::TornWriteback { .. }
        | CrashSite::TransientPersist { .. }
        | CrashSite::MediaBitErrors { .. } => return None,
        CrashSite::AfterStores { pct } => {
            clean().last_at_or_before_store(clean().stores * pct / 100)
        }
        CrashSite::DuringRecovery { .. } => clean().last_at_or_before_store(clean().stores * 2 / 5),
        CrashSite::AfterEvictions { nth } => clean().last_before_eviction(nth),
        CrashSite::BlockBoundary { pct } => (num_blocks * pct / 100).min(num_blocks),
        CrashSite::BetweenKernels
        | CrashSite::MidCheckpoint { .. }
        | CrashSite::MidPolicySwitch { .. } => num_blocks,
    })
}

/// The shared execution of [`run_cell`]: the clean run and the forward
/// execution, forking every trial [`fork_boundary`] places. Returns
/// `false` once `sink` refuses an event; forks nothing when the cell's
/// subject or config does not resolve.
fn fork_trials(ids: &[TrialId], scale: Scale, sink: &mut dyn FnMut(Event) -> bool) -> bool {
    let Some(Ok((subject, cfg))) = ids.first().map(resolve) else {
        return true;
    };
    let (gpu, w, staged) = stage_instance(subject, scale, ids[0].seed, &cfg.lp);
    let w = w.as_ref();
    let num_blocks = w.launch_config().num_blocks();

    let clean = ids.iter().any(|id| CleanRun::needed_by(id.site)).then(|| {
        let mut run = staged.clone();
        let kernel = w.kernel(Some(&run.rt));
        let mut launch = start(&gpu, w, &run);
        let mut boundaries = Vec::with_capacity(num_blocks as usize + 1);
        loop {
            boundaries.push((launch.store_clock(), run.mem.stats().natural_evictions));
            if !launch.step(kernel.as_ref(), &mut run.mem, None) {
                break;
            }
        }
        let out = launch.finish(kernel.as_ref(), &mut run.mem);
        CleanRun {
            boundaries,
            stores: out.stats().nvm.store_ops,
        }
    });
    let mut forks: Vec<(u64, usize)> = ids
        .iter()
        .enumerate()
        .filter_map(|(i, id)| Some((fork_boundary(id.site, num_blocks, clean.as_ref())?, i)))
        .collect();
    forks.sort_unstable();
    let clean_stores = clean.map(|c| c.stores);

    let mut forward = staged;
    let kernel = w.kernel(Some(&forward.rt));
    let mut launch = start(&gpu, w, &forward);
    for (b, i) in forks {
        while launch.next_block() < b && launch.step(kernel.as_ref(), &mut forward.mem, None) {}
        if !sink(Event::Started(i)) {
            return false;
        }
        let (id, mut fork, fork_launch) = (&ids[i], forward.clone(), launch.clone());
        let result = guarded(id, || {
            execute(id, &cfg, &gpu, w, &mut fork, fork_launch, clean_stores)
        });
        if !sink(Event::Finished(i, result)) {
            return false;
        }
    }
    true
}
