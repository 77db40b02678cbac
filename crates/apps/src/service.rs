//! The durable-service driver: the *intent → launch → validate → success*
//! commit protocol and its roll-forward restore, written once.
//!
//! A service is a [`Protocol`] — its step regions, seeded generators and
//! audit — wrapped in a [`Service`], which owns the [`DurableManifest`],
//! the volatile host cache of it, and the only `impl RecoverableApp` in
//! the crate. The manifest record is `[committed, started, cursors…]`:
//!
//! * **step** `s`: commit the intent `[committed, s, cursors]`, reset the
//!   step's runtime slot, launch. On every `WINDOW`-th step, validate
//!   `committed+1 ..= s` oldest-first against durable media and commit the
//!   success record `[s, s, cursors']`. A window of 1 commits every step
//!   (queue, kvtxn); the training loop checkpoints every `K = 4` epochs.
//! * **restore**: load `[c, s, cursors]` with `c ≤ s ≤ c + WINDOW`, roll
//!   `c+1 ..= s` forward oldest-first through re-entrant resilient
//!   recovery — each step's recovery input is the (by then durable) output
//!   of the one before — drain, commit `[s, s, cursors']`, and rebuild the
//!   host cache from the manifest.
//!
//! A crash can tear an intent or success commit, which reverts the manifest
//! to the previous record; either way `restore` finds nothing in flight or
//! a window it can re-derive from `(seed, step, cursors)` alone.

use gpu_lp::{LpKernel, LpRuntime, Region, ResilientRecovery};
use nvm::PersistMemory;
use simt::Gpu;

use crate::manifest::DurableManifest;
use crate::{RecoverableApp, RestoreReport, StepReport};

/// Modelled cost of validating one store image during restoration, ns.
/// Restoration latency is dominated by the validation sweep plus repair
/// re-execution (the GPM/GPMBench Table-5 shape); recovery's own report
/// charges the repair half, this constant charges the sweep.
const VALIDATE_NS_PER_IMAGE: u64 = 4;

/// Fixed modelled reboot cost (device bring-up + manifest load), ns.
pub(crate) const REBOOT_NS: u64 = 2_000;

/// Whole-cache drain attempts before the refusing lines are quarantined.
const DRAIN_RETRIES: u32 = 8;

/// Manifest fields ahead of the cursors: `committed`, `started`.
const HEADER: usize = 2;

/// What a service supplies to the driver: everything that is its own.
pub(crate) trait Protocol {
    /// Service name (report row label).
    const NAME: &'static str;

    /// Checkpoint window: the success record is validated and committed on
    /// every `WINDOW`-th step, so at most `WINDOW` steps are ever in flight.
    const WINDOW: u64;

    /// What the audit calls a step that `restore` left in flight.
    const IN_FLIGHT: &'static str;

    /// Reboot charge per rolled-forward step, on top of the one every
    /// restore pays up front.
    const ROLL_FORWARD_REBOOT_NS: u64;

    /// Durable cursors of the committed prefix, `[u64; N]`; they ride in
    /// the manifest record behind `committed` and `started`.
    type Cursors: Copy + Default + AsRef<[u64]> + AsMut<[u64]>;

    /// One step's LP region, re-derivable from `(step, cursors)` alone.
    type Step<'a>: Region
    where
        Self: 'a;

    /// The checksum runtime step `step` publishes through.
    fn runtime(&self, step: u64) -> &LpRuntime;

    /// Step `step`'s region, given the cursors of the steps before it.
    fn region(&self, step: u64, cursors: Self::Cursors) -> Self::Step<'_>;

    /// The cursors after `region`'s step, given the ones it was built from.
    fn advance(&self, _region: &Self::Step<'_>, cursors: Self::Cursors) -> Self::Cursors {
        cursors
    }

    /// Store images one validation sweep over `region`'s step reads (the
    /// restoration charge's work term).
    fn images(&self, region: &Self::Step<'_>) -> u64;

    /// The audit's host model of a committed prefix, derived from the seed
    /// alone.
    type Reference;

    /// The model before step 1.
    fn reference(&self) -> Self::Reference;

    /// Applies step `step` to the model of the steps before it.
    fn apply(&self, reference: &mut Self::Reference, step: u64);

    /// Audits the data of the `committed`-step prefix against `reference`,
    /// its model, appending one line per kind of violation.
    fn audit(
        &self,
        mem: &mut PersistMemory,
        committed: u64,
        cursors: Self::Cursors,
        reference: &Self::Reference,
        violations: &mut Vec<String>,
    );
}

/// A [`Protocol`] behind the commit protocol. See the module docs.
pub(crate) struct Service<P: Protocol> {
    app: P,
    manifest: DurableManifest,
    max_steps: u64,
    /// Host cache of the manifest (dropped by `crash`, rebuilt by
    /// `restore`): the last launched step, the last success record and
    /// its cursors.
    completed: u64,
    committed: u64,
    cursors: P::Cursors,
    last_restore_ns: u64,
    /// The audit's reference model and the step it models, built by the
    /// first `verify_invariants` and advanced by every later one. Oracle
    /// state derived from the seed alone: `step` and `restore` never read
    /// it, so `crash` keeps it.
    audited: Option<(u64, P::Reference)>,
}

impl<P: Protocol> Service<P> {
    /// Allocates the manifest and commits the empty-history record. Its own
    /// call because each service allocates it between its data arenas and
    /// its runtimes, and the addresses are part of the simulated result.
    pub(crate) fn manifest(mem: &mut PersistMemory) -> DurableManifest {
        DurableManifest::create(mem, HEADER + P::Cursors::default().as_ref().len())
    }

    /// Makes the freshly allocated arenas durable and starts serving.
    pub(crate) fn start(
        mem: &mut PersistMemory,
        manifest: DurableManifest,
        max_steps: u64,
        app: P,
    ) -> Self {
        // `step` derives its kernel from the cached cursors, which are the
        // last success record's — right only while no earlier step is
        // open. No windowed service has cursors, so that combination is
        // ruled out here rather than built.
        const {
            assert!(P::WINDOW == 1 || std::mem::size_of::<P::Cursors>() == 0);
        }
        drain_all(mem);
        Service {
            app,
            manifest,
            max_steps,
            completed: 0,
            committed: 0,
            cursors: P::Cursors::default(),
            last_restore_ns: 0,
            audited: None,
        }
    }

    /// Commits the record `[committed, started, cursors…]`.
    fn commit(
        &mut self,
        mem: &mut PersistMemory,
        committed: u64,
        started: u64,
        cursors: P::Cursors,
    ) -> bool {
        // Six fields fill a slot: seq + fields + checksum is one 64-byte line.
        let mut fields = [committed, started, 0, 0, 0, 0];
        let n = HEADER + cursors.as_ref().len();
        fields[HEADER..n].copy_from_slice(cursors.as_ref());
        self.manifest.commit(mem, &fields[..n])
    }

    /// Decodes a manifest record into `(committed, started, cursors)`.
    fn decode(fields: &[u64]) -> (u64, u64, P::Cursors) {
        let mut cursors = P::Cursors::default();
        cursors.as_mut().copy_from_slice(&fields[HEADER..]);
        (fields[0], fields[1], cursors)
    }

    /// Loads the durable record and resumes the commit sequence from it.
    fn load(&mut self, mem: &PersistMemory) -> (u64, u64, P::Cursors) {
        Self::decode(&self.manifest.load(mem).1)
    }

    /// Step `step`'s kernel: its region under its runtime.
    fn kernel(&self, step: u64, cursors: P::Cursors) -> LpKernel<'_, P::Step<'_>> {
        LpKernel::new(self.app.region(step, cursors), Some(self.app.runtime(step)))
    }

    /// The body of `step` for `rep.step`: `false` as soon as power fails or
    /// a validation cannot prove the window durable.
    fn try_step(&mut self, gpu: &Gpu, mem: &mut PersistMemory, rep: &mut StepReport) -> bool {
        let step = rep.step;
        // Intent first: after this commit a crash anywhere in the step is
        // recoverable from the manifest alone.
        if !self.commit(mem, self.committed, step, self.cursors) {
            return false;
        }
        self.app.runtime(step).reset(mem);
        let stats = gpu
            .launch(&self.kernel(step, self.cursors), mem)
            .expect("service step launch");
        rep.exec_ns = stats.kernel_ns as u64;
        if mem.power_failed() {
            return false;
        }
        self.completed = step;
        if !step.is_multiple_of(P::WINDOW) {
            return true;
        }
        // Checkpoint: validate-then-commit over the whole window, oldest
        // first (each step's re-execution input is the step the previous
        // iteration just proved durable). A torn write-back ACKs success
        // while persisting garbage, so only checksums recomputed from the
        // durable media view prove the window — never the drain ACK.
        let mut cursors = self.cursors;
        for e in self.committed + 1..=step {
            let k = self.kernel(e, cursors);
            let durable = ResilientRecovery::new(gpu)
                .recover(&k, self.app.runtime(e), mem)
                .all_durable;
            if !durable || mem.power_failed() {
                return false;
            }
            cursors = self.app.advance(k.region(), cursors);
        }
        if !self.commit(mem, step, step, cursors) {
            return false;
        }
        (self.committed, self.cursors) = (step, cursors);
        true
    }
}

impl<P: Protocol> RecoverableApp for Service<P> {
    fn name(&self) -> &'static str {
        P::NAME
    }

    fn step(&mut self, gpu: &Gpu, mem: &mut PersistMemory) -> StepReport {
        let step = self.completed + 1;
        assert!(
            step <= self.max_steps,
            "{} arenas are provisioned for {} steps",
            P::NAME,
            self.max_steps
        );
        let mut rep = StepReport {
            step,
            ..StepReport::default()
        };
        rep.committed = self.try_step(gpu, mem, &mut rep);
        rep.crashed = !rep.committed;
        rep
    }

    fn crash(&mut self, mem: &mut PersistMemory) {
        if !mem.power_failed() {
            mem.crash();
        }
        // Drop every volatile host cache: restore may trust durable state
        // only. The audit's memo is the oracle's, not the service's, and
        // stays.
        (self.completed, self.committed, self.cursors) = (0, 0, P::Cursors::default());
    }

    fn restore(&mut self, gpu: &Gpu, mem: &mut PersistMemory) -> RestoreReport {
        if mem.power_failed() {
            mem.power_on();
        }
        let (committed, started, mut cursors) = self.load(mem);
        let mut rep = RestoreReport {
            recovered_step: committed,
            latency_ns: REBOOT_NS,
            all_durable: true,
            attempts: 1,
            ..RestoreReport::default()
        };
        // Roll forward every step since the success record, oldest first:
        // step e's recovery re-derives its kernel from the durable cursors
        // and reads what step e-1's recovery just made durable.
        for e in committed + 1..=started {
            let k = self.kernel(e, cursors);
            let outcome =
                ResilientRecovery::new(gpu).recover_reentrant(&k, self.app.runtime(e), mem);
            rep.rolled_forward = true;
            rep.attempts = rep.attempts.max(outcome.attempts);
            rep.interruptions += outcome.interruptions;
            rep.reexecutions += outcome.report.reexecutions;
            rep.degraded_reexecutions += outcome.report.degraded_reexecutions;
            rep.quarantined_lines += outcome.report.quarantined_lines;
            // One validation sweep per round over every image, plus the
            // repair latency the recovery report already carries.
            let sweeps = u64::from(outcome.report.rounds.max(1));
            rep.latency_ns += P::ROLL_FORWARD_REBOOT_NS
                + outcome.total_latency_ns
                + self.app.images(k.region()) * VALIDATE_NS_PER_IMAGE * sweeps;
            if !outcome.is_success() {
                rep.all_durable = false;
                break;
            }
            rep.recovered_step = e;
            cursors = self.app.advance(k.region(), cursors);
        }
        if rep.all_durable
            && started > committed
            && (!drain_all(mem) || !self.commit(mem, started, started, cursors))
        {
            rep.all_durable = false;
        }
        // Rebuild the volatile cache from durable truth.
        let (committed, _, cursors) = self.load(mem);
        (self.completed, self.committed, self.cursors) = (committed, committed, cursors);
        self.last_restore_ns = rep.latency_ns;
        rep
    }

    fn verify_invariants(&mut self, mem: &mut PersistMemory) -> Vec<String> {
        let mut violations = Vec::new();
        let (committed, started, cursors) = self.load(mem);
        if started != committed {
            violations.push(format!(
                "{} in flight after restore: started={started} committed={committed}",
                P::IN_FLIGHT
            ));
        }
        let reference = reference_at(&self.app, &mut self.audited, committed);
        self.app
            .audit(mem, committed, cursors, reference, &mut violations);
        violations
    }

    fn restoration_latency(&self) -> u64 {
        self.last_restore_ns
    }

    fn progress(&self, mem: &mut PersistMemory) -> u64 {
        Self::decode(&self.manifest.read(mem).1).0
    }
}

/// The reference model of the `committed`-step prefix: `memo` advanced
/// over the steps committed since it was last asked for, or rebuilt from
/// step 1 when a reverted manifest moved progress below it.
fn reference_at<'m, P: Protocol>(
    app: &P,
    memo: &'m mut Option<(u64, P::Reference)>,
    committed: u64,
) -> &'m P::Reference {
    if memo.as_ref().is_some_and(|(at, _)| *at > committed) {
        *memo = None;
    }
    let (at, reference) = memo.get_or_insert_with(|| (0, app.reference()));
    for step in *at + 1..=committed {
        app.apply(reference, step);
    }
    *at = committed;
    reference
}

/// Drains the whole cache with bounded retries; lines the device keeps
/// refusing are retired and remapped (their quarantine copy is durable).
/// Returns `false` only if power failed mid-drain.
fn drain_all(mem: &mut PersistMemory) -> bool {
    for _ in 0..DRAIN_RETRIES {
        if mem.power_failed() {
            return false;
        }
        if mem.flush_all() == 0 {
            return true;
        }
    }
    for base in mem.dirty_line_bases() {
        mem.quarantine_line(base);
    }
    !mem.power_failed() && mem.dirty_lines() == 0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kvtxn::KvTxn;
    use crate::queue::DurableQueue;
    use crate::train::TrainingLoop;
    use crate::{build_app, world, AppKind, AppParams};
    use gpu_lp::BackendKind;
    use nvm::FaultConfig;

    fn params(seed: u64, max_steps: u64) -> AppParams {
        AppParams::small(BackendKind::LpChecksum, seed, max_steps)
    }

    fn clean_steps_commit_and_audit_clean(kind: AppKind) {
        let (seed, max_steps, steps) = match kind {
            AppKind::Queue => (11, 16, 5),
            AppKind::Train => (31, 32, 8), // two checkpoints of K = 4
            AppKind::KvTxn => (41, 32, 6),
        };
        let (gpu, mut mem) = world(None);
        let mut app = build_app(kind, params(seed, max_steps), &mut mem);
        for _ in 0..steps {
            let rep = app.step(&gpu, &mut mem);
            assert!(rep.committed, "{kind}: clean step must commit");
        }
        assert_eq!(app.progress(&mut mem), steps, "{kind}");
        assert!(app.verify_invariants(&mut mem).is_empty(), "{kind}");
    }

    fn a_crash_on_a_commit_boundary_restores_without_roll_forward(kind: AppKind) {
        let (max_steps, steps) = match kind {
            AppKind::Queue => (16, 3),
            AppKind::Train => (32, 4),
            AppKind::KvTxn => (32, 3),
        };
        let (gpu, mut mem) = world(None);
        let mut app = build_app(kind, params(13, max_steps), &mut mem);
        for _ in 0..steps {
            assert!(app.step(&gpu, &mut mem).committed, "{kind}");
        }
        app.crash(&mut mem);
        let rep = app.restore(&gpu, &mut mem);
        assert!(!rep.rolled_forward, "{kind}: {rep:?}");
        assert_eq!(app.progress(&mut mem), steps, "{kind}");
        assert!(app.verify_invariants(&mut mem).is_empty(), "{kind}");
    }

    fn survives_an_actively_faulty_device(kind: AppKind) {
        // `cut`: one more step with power armed to fail inside its drain.
        let (seed, max_steps, steps, cut) = match kind {
            AppKind::Queue => (21, 16, 1, Some(4)),
            AppKind::Train => (35, 32, 3, None),
            AppKind::KvTxn => (44, 32, 1, Some(3)),
        };
        let (gpu, mut mem) = world(Some(FaultConfig::torn(seed, 300)));
        let mut app = build_app(kind, params(seed, max_steps), &mut mem);
        for _ in 0..steps {
            assert!(app.step(&gpu, &mut mem).committed, "{kind}");
        }
        if let Some(flushes) = cut {
            mem.arm_crash_during_flush(flushes);
            let _ = app.step(&gpu, &mut mem);
        }
        app.crash(&mut mem);
        let restored = app.restore(&gpu, &mut mem);
        assert!(restored.all_durable, "{kind}: {restored:?}");
        mem.set_fault_config(None);
        assert!(app.verify_invariants(&mut mem).is_empty(), "{kind}");
        // The cut step may or may not have reached its intent; without one
        // the restore lands exactly on the clean steps.
        let progress = app.progress(&mut mem);
        match cut {
            Some(_) => assert!(progress >= steps, "{kind}: {progress}"),
            None => assert_eq!(progress, steps, "{kind}"),
        }
    }

    #[test]
    fn every_service_passes_the_generic_scenarios() {
        for kind in AppKind::ALL {
            clean_steps_commit_and_audit_clean(kind);
            a_crash_on_a_commit_boundary_restores_without_roll_forward(kind);
            survives_an_actively_faulty_device(kind);
        }
    }

    #[test]
    fn the_success_record_lands_on_every_window_th_step_only() {
        fn check<P: Protocol>(create: fn(&mut PersistMemory, AppParams) -> Service<P>) {
            let (gpu, mut mem) = world(None);
            let mut svc = create(&mut mem, params(17, 16));
            for step in 1..=9 {
                assert!(svc.step(&gpu, &mut mem).committed);
                let expect = step - step % P::WINDOW;
                assert_eq!(svc.progress(&mut mem), expect, "{} step {step}", P::NAME);
            }
        }
        assert_eq!((DurableQueue::WINDOW, KvTxn::WINDOW), (1, 1));
        assert_eq!(TrainingLoop::WINDOW, 4);
        check(DurableQueue::create);
        check(TrainingLoop::create);
        check(KvTxn::create);
    }

    #[test]
    fn the_audit_memo_equals_a_fold_from_step_1_at_every_committed_value() {
        fn check<P: Protocol>(create: fn(&mut PersistMemory, AppParams) -> Service<P>)
        where
            P::Reference: PartialEq + std::fmt::Debug,
        {
            let (_gpu, mut mem) = world(None);
            let app = create(&mut mem, params(23, 16)).app;
            let mut memo = None;
            let (mut committed, mut drops) = (0u64, 0);
            for i in 0..80 {
                // Mostly forward by 0..=3 steps, one time in five back to
                // an earlier value (a reverted manifest).
                let r = nvm::splitmix64(0x3E30 ^ i);
                committed = if r.is_multiple_of(5) {
                    drops += 1;
                    (r >> 8) % (committed + 1)
                } else {
                    committed + (r >> 8) % 4
                };
                let fresh = (1..=committed).fold(app.reference(), |mut reference, step| {
                    app.apply(&mut reference, step);
                    reference
                });
                let memoised = reference_at(&app, &mut memo, committed);
                assert_eq!(memoised, &fresh, "{} at step {committed}", P::NAME);
            }
            assert!(drops > 0 && committed > 0, "{}", P::NAME);
        }
        check(DurableQueue::create);
        check(TrainingLoop::create);
        check(KvTxn::create);
    }

    #[test]
    #[should_panic(expected = "kvtxn arenas are provisioned for 2 steps")]
    fn stepping_past_the_provisioned_horizon_panics() {
        let (gpu, mut mem) = world(None);
        let mut app = build_app(AppKind::KvTxn, params(19, 2), &mut mem);
        for _ in 0..3 {
            app.step(&gpu, &mut mem);
        }
    }
}
