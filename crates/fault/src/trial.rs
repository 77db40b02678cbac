//! One crash-injection trial: identity, construction, execution.
//!
//! A [`TrialId`] is a compact, serializable coordinate — `(workload,
//! config, seed, site)` — that *fully determines* a trial: the simulated
//! machine, inputs, crash instant and recovery path are all derived from it
//! deterministically. Campaign reports carry `TrialId`s so any failure can
//! be replayed (and shrunk) in isolation.
//!
//! [`run_trial`] executes one trial end to end: stage the subject on a
//! fresh world, run it under Lazy Persistency, lose power at the requested
//! [`CrashSite`], recover, and judge the outcome with the three oracles of
//! [`crate::oracle`]. The execution itself (`execute`) takes the machine
//! and a launch standing at some block boundary, so a campaign cell runs the
//! same code on a fork of its shared execution (see `crate::cell`).

use crate::oracle::{self, OracleInput};
use crate::site::CrashSite;
use gpu_lp::{
    BackendKind, LpConfig, LpRuntime, PolicyMode, Recoverable, ReduceStrategy, ResilientRecovery,
    ResilientReport, TableKind,
};
use lp_kernels::{stage, subject, world, Scale, Subject, Workload};
use nvm::{CrashLoss, FaultConfig, PersistMemory};
use serde::{Deserialize, Serialize};
use simt::{CrashPlan, DeviceConfig, Gpu, Launch};

/// LP design points a campaign sweeps by default.
pub const CONFIG_NAMES: [&str; 4] = ["recommended", "quad", "cuckoo", "seq-reduce"];

/// The deliberately-broken design point: validation runs but failed
/// regions are never re-executed. Exists to prove the campaign catches
/// real persistency bugs and shrinks them.
pub const SABOTAGE_CONFIG: &str = "broken-skip-recovery";

/// The full coordinate of one trial.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TrialId {
    /// Subject name, resolved through [`lp_kernels::subject`].
    pub workload: String,
    /// Config name resolvable by [`trial_config`].
    pub config: String,
    /// Persistency backend the trial runs under (the config's design point
    /// with the discipline swapped via `LpConfig::with_backend`).
    pub backend: BackendKind,
    /// Input-generation seed.
    pub seed: u64,
    /// Where the trial loses power.
    pub site: CrashSite,
}

impl TrialId {
    /// Compact human-readable label, e.g. `SPMV/recommended/s1/stores@50%`
    /// (non-default backends show up as `config+backend`).
    pub fn label(&self) -> String {
        let config = if self.backend == BackendKind::default() {
            self.config.clone()
        } else {
            format!("{}+{}", self.config, self.backend)
        };
        format!(
            "{}/{config}/s{}/{}",
            self.workload,
            self.seed,
            self.site.label()
        )
    }
}

/// A named LP design point plus any deliberate sabotage flags.
#[derive(Debug, Clone)]
pub struct TrialConfig {
    /// The name this config resolves from.
    pub name: String,
    /// The LP design point.
    pub lp: LpConfig,
    /// Sabotage: validate after the crash but never re-execute failed
    /// regions (so lost data stays lost and the output oracle must fire).
    pub skip_recovery: bool,
}

/// Resolves a config name from [`CONFIG_NAMES`] or [`SABOTAGE_CONFIG`].
pub fn trial_config(name: &str) -> Option<TrialConfig> {
    let (lp, skip_recovery) = match name {
        "recommended" => (LpConfig::recommended(), false),
        "quad" => (LpConfig::quad(), false),
        "cuckoo" => (LpConfig::cuckoo(), false),
        "seq-reduce" => (
            LpConfig::recommended().with_reduce(ReduceStrategy::SequentialMemory),
            false,
        ),
        SABOTAGE_CONFIG => (LpConfig::recommended(), true),
        _ => return None,
    };
    Some(TrialConfig {
        name: name.to_string(),
        lp,
        skip_recovery,
    })
}

/// The judged outcome of one trial.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrialResult {
    /// The trial's coordinate (replayable).
    pub id: TrialId,
    /// Whether the injected crash actually fired. Sites can miss (e.g. a
    /// tiny working set never evicts); a missed site degenerates to a
    /// clean run, which the oracles still check.
    pub crashed: bool,
    /// Regions failing the post-crash validation pass.
    pub failed_regions: u64,
    /// Region re-executions recovery performed.
    pub reexecutions: u64,
    /// Validate/repair rounds recovery ran.
    pub recovery_rounds: u32,
    /// Lines recovery retired and remapped.
    pub quarantined_lines: u64,
    /// Re-executions that ran in degraded (eager flush-per-store) mode.
    pub degraded_reexecutions: u64,
    /// Modelled recovery latency in nanoseconds.
    pub recovery_ns: u64,
    /// O1: recovery converged and the output matches the CPU reference.
    pub o1_output: bool,
    /// O2: no phantom validation failures (`None` = not applicable).
    pub o2: Option<bool>,
    /// O3: no false-negative validations (`None` = not applicable).
    pub o3: Option<bool>,
    /// O4: no silent corruption — recovery either restored correct durable
    /// data or honestly reported what it could not save. Only applicable
    /// (`Some`) for device-fault sites.
    pub o4_no_silent_corruption: Option<bool>,
    /// O5: the policy journal and the data it governs agree — after
    /// recovery and a clean power cycle, re-validating from the durable
    /// image alone finds zero failing regions. Only applicable (`Some`)
    /// for mid-policy-switch trials on the adaptive backend.
    pub o5_journal_agreement: Option<bool>,
    /// All applicable oracles passed.
    pub passed: bool,
    /// The trial exceeded the campaign's per-trial wall-clock watchdog and
    /// was abandoned: a distinct verdict (`passed = false`) so a hung or
    /// runaway simulation is reported with its [`TrialId`] instead of
    /// wedging the whole run.
    pub timed_out: bool,
    /// Diagnostics for failures and skipped oracles.
    pub detail: String,
}

impl TrialResult {
    /// A result carrying `report`'s recovery figures and no oracle verdict
    /// yet (`passed = false`): each trial path fills in the oracles it
    /// applies.
    pub(crate) fn unjudged(
        id: &TrialId,
        crashed: bool,
        failed_regions: usize,
        report: &ResilientReport,
        detail: String,
    ) -> Self {
        Self {
            id: id.clone(),
            crashed,
            failed_regions: failed_regions as u64,
            reexecutions: report.reexecutions,
            recovery_rounds: report.rounds,
            quarantined_lines: report.quarantined_lines,
            degraded_reexecutions: report.degraded_reexecutions,
            recovery_ns: report.latency_ns(),
            o1_output: false,
            o2: None,
            o3: None,
            o4_no_silent_corruption: None,
            o5_journal_agreement: None,
            passed: false,
            timed_out: false,
            detail,
        }
    }

    /// A non-verdict result for a trial that never produced one: it named
    /// an unknown workload or config, it panicked, or (`timed_out`) the
    /// watchdog abandoned it.
    pub(crate) fn aborted(id: &TrialId, timed_out: bool, detail: String) -> Self {
        Self {
            timed_out,
            ..Self::unjudged(id, false, 0, &ResilientReport::default(), detail)
        }
    }
}

/// The recovery report of a sabotaged trial: claims success without
/// having repaired anything.
fn sabotage_report(regions: u64) -> ResilientReport {
    ResilientReport {
        regions,
        all_durable: true,
        ..ResilientReport::default()
    }
}

/// The device fault model a site implies, derived deterministically from
/// the trial seed. `None` for the crash-only (perfect-device) sites.
pub fn device_fault_config(site: &CrashSite, seed: u64) -> Option<FaultConfig> {
    let fseed = seed ^ 0xFA17_C0DE;
    match *site {
        CrashSite::TornWriteback { bp } => Some(FaultConfig::torn(fseed, bp)),
        CrashSite::TransientPersist { bp } => Some(FaultConfig::transient(fseed, bp)),
        CrashSite::MediaBitErrors { bp } => Some(FaultConfig::media(fseed, bp, 0)),
        _ => None,
    }
}

/// The simulated machine every trial runs on: the test GPU and a small
/// (256-line) cache so natural evictions — the mechanism under test —
/// happen even at test scale.
pub fn fault_world() -> (Gpu, PersistMemory) {
    world(DeviceConfig::test_gpu(), 256, 8)
}

/// One machine a trial runs on: a staged memory and the LP runtime staged
/// with it. Cloning it — with the [`Launch`] running on it — forks the
/// machine: everything a power cut can keep is in the memory, and what the
/// runtime accumulates on the host forks with the runtime.
#[derive(Debug, Clone)]
pub(crate) struct Instance {
    pub(crate) mem: PersistMemory,
    pub(crate) rt: LpRuntime,
}

/// `subject` staged under `lp` on a fresh [`fault_world`]
/// ([`lp_kernels::stage`]): the device, the workload, and the instance
/// every trial of `(subject, scale, seed, lp)` starts from — the only way
/// `lp-fault` puts a subject on a machine. Everything in it is derived from
/// the arguments, so a copy of the instance is the instance a second call
/// would build.
pub(crate) fn stage_instance(
    subject: &Subject,
    scale: Scale,
    seed: u64,
    lp: &LpConfig,
) -> (Gpu, Box<dyn Workload>, Instance) {
    let (gpu, mut mem) = fault_world();
    let mut w = (subject.build)(scale, seed);
    let rt = stage(w.as_mut(), &gpu, &mut mem, lp);
    (gpu, w, Instance { mem, rt })
}

/// What the injection phase of a trial produced.
struct Injected {
    crashed: bool,
    blocks_executed: u64,
    loss: Option<CrashLoss>,
    /// O2/O3 are only meaningful when exactly one crash-loss record
    /// explains the validation failures (not in the double-crash case).
    loss_oracles: bool,
    note: String,
}

/// Restores power if it is off and collects the loss inventory.
fn reboot(mem: &mut PersistMemory) -> Option<CrashLoss> {
    if mem.power_failed() {
        mem.power_on();
    }
    mem.take_crash_loss()
}

/// Loses power at `site`. `launch` is the subject's launch standing at a
/// block boundary the site's crash point is not behind — block 0, or a
/// later one when the trial is a fork of a shared execution.
fn inject(
    site: CrashSite,
    gpu: &Gpu,
    mem: &mut PersistMemory,
    mut launch: Launch<'_>,
    kernel: &dyn Recoverable,
    rt: &LpRuntime,
    clean_stores: Option<u64>,
) -> Injected {
    let num_blocks = kernel.config().num_blocks();
    let mut note = String::new();
    let (crashed, blocks_executed, loss, loss_oracles) = match site {
        CrashSite::AfterStores { pct } => {
            let total = clean_stores.expect("AfterStores needs the clean store count");
            launch.arm(CrashPlan::after_stores(total * pct / 100));
            let out = launch.finish(kernel, mem);
            let crashed = out.crashed();
            if !crashed {
                mem.flush_all();
            }
            (crashed, out.stats().blocks_executed, reboot(mem), true)
        }
        CrashSite::AfterEvictions { nth } => {
            // The launch's `nth` natural eviction: staging zeroed the
            // counters, so the memory's count is the launch's.
            mem.arm_crash_after_evictions(nth.saturating_sub(mem.stats().natural_evictions));
            let out = launch.finish(kernel, mem);
            mem.disarm_crash();
            let crashed = out.crashed();
            if !crashed {
                note.push_str("site missed: kernel finished without enough evictions; ");
                mem.flush_all();
            }
            (crashed, out.stats().blocks_executed, reboot(mem), true)
        }
        CrashSite::BlockBoundary { pct } => {
            launch.arm(CrashPlan {
                after_global_stores: None,
                after_blocks: Some(num_blocks * pct / 100),
            });
            let out = launch.finish(kernel, mem);
            let crashed = out.crashed();
            if !crashed {
                mem.flush_all();
            }
            (crashed, out.stats().blocks_executed, reboot(mem), true)
        }
        CrashSite::BetweenKernels => {
            let out = launch.finish(kernel, mem);
            // The kernel finished but no checkpoint ran: whatever is still
            // in cache vanishes. `crash()` models the instant reboot.
            mem.crash();
            (true, out.stats().blocks_executed, reboot(mem), true)
        }
        CrashSite::MidCheckpoint { pct } => {
            let out = launch.finish(kernel, mem);
            let blocks_executed = out.stats().blocks_executed;
            let dirty = mem.dirty_lines() as u64;
            if dirty == 0 {
                note.push_str("site missed: nothing dirty at checkpoint; ");
                (false, blocks_executed, None, true)
            } else {
                mem.arm_crash_during_flush(dirty * pct / 100);
                mem.flush_all();
                mem.disarm_crash();
                let crashed = mem.power_failed();
                (crashed, blocks_executed, reboot(mem), true)
            }
        }
        CrashSite::TornWriteback { .. }
        | CrashSite::TransientPersist { .. }
        | CrashSite::MediaBitErrors { .. } => {
            // The fault model is already attached (see `execute`). Run to
            // completion under device faults, then lose power before any
            // checkpoint: natural evictions were the only persists, and
            // some of them tore, failed, or read back corrupted. The loss
            // record cannot attribute torn lines (the device claimed
            // success for them), so O2/O3 are replaced by O4.
            let out = launch.finish(kernel, mem);
            mem.crash();
            let _ = reboot(mem);
            (true, out.stats().blocks_executed, None, false)
        }
        CrashSite::MidPolicySwitch { .. } => {
            // Fixed backends have no policy engine to switch, so the site
            // degenerates to a between-kernels power loss: the backend
            // still pays for a crash at that instant. Adaptive trials
            // never reach here — `execute` routes them to the dedicated
            // switch-window path.
            note.push_str("no policy engine: degraded to between-kernels; ");
            let out = launch.finish(kernel, mem);
            mem.crash();
            (true, out.stats().blocks_executed, reboot(mem), true)
        }
        CrashSite::DuringRecovery { nth } => {
            // First crash mid-kernel, then a second power loss while the
            // recovery engine is re-executing. Only the output oracle is
            // checked: two overlapping loss records defeat line-level
            // attribution.
            let total = clean_stores.expect("DuringRecovery needs the clean store count");
            launch.arm(CrashPlan::after_stores(total * 2 / 5));
            let out = launch.finish(kernel, mem);
            let crashed = out.crashed();
            if crashed {
                let _first = reboot(mem);
                mem.arm_crash_after_evictions(nth);
                let r1 = ResilientRecovery::new(gpu).recover(kernel, rt, mem);
                mem.disarm_crash();
                if mem.power_failed() {
                    assert!(
                        !r1.all_durable,
                        "recovery reported success despite a mid-recovery power loss"
                    );
                    note.push_str("double crash hit recovery; ");
                } else {
                    note.push_str("second crash missed (recovery evicted too little); ");
                }
                let _second = reboot(mem);
            } else {
                mem.flush_all();
            }
            (crashed, out.stats().blocks_executed, None, false)
        }
    };
    Injected {
        crashed,
        blocks_executed,
        loss,
        loss_oracles,
        note,
    }
}

/// Runs one trial end to end at `scale`, from scratch: a fresh world, the
/// subject staged on it, one launch from block 0. This is the reference a
/// campaign's shared executions are held to, and the replay path of every
/// reported `TrialId`. An `id` naming a workload or config that does not
/// exist runs nothing and fails with that as its detail.
///
/// # Panics
///
/// Panics on simulator-level launch failures — campaign drivers catch
/// panics and record them as failures.
pub fn run_trial(id: &TrialId, scale: Scale) -> TrialResult {
    let (subject, cfg) = match resolve(id) {
        Ok(found) => found,
        Err(unknown) => return TrialResult::aborted(id, false, unknown),
    };
    let (gpu, w, mut inst) = stage_instance(subject, scale, id.seed, &cfg.lp);
    // Sites defined relative to the store stream need the clean run's
    // length, measured on an identical instance.
    let clean_stores = id.site.needs_store_count().then(|| {
        let mut clean = inst.clone();
        let kernel = w.kernel(Some(&clean.rt));
        let stats = gpu
            .launch(kernel.as_ref(), &mut clean.mem)
            .expect("clean launch");
        stats.nvm.store_ops
    });
    let launch = start(&gpu, w.as_ref(), &inst);
    execute(id, &cfg, &gpu, w.as_ref(), &mut inst, launch, clean_stores)
}

/// The subject and config `id` names, with the trial's backend swapped
/// in — or which name is unknown.
pub(crate) fn resolve(id: &TrialId) -> Result<(&'static Subject, TrialConfig), String> {
    let unknown = |what: &str, name: &str| format!("unknown {what} {name:?}");
    let subject = subject(&id.workload).ok_or_else(|| unknown("workload", &id.workload))?;
    let mut cfg = trial_config(&id.config).ok_or_else(|| unknown("config", &id.config))?;
    cfg.lp = cfg.lp.with_backend(id.backend);
    Ok((subject, cfg))
}

/// A crash-free launch of `w`'s kernel on `inst`, standing at block 0.
pub(crate) fn start<'g>(gpu: &'g Gpu, w: &dyn Workload, inst: &Instance) -> Launch<'g> {
    gpu.start(
        w.kernel(Some(&inst.rt)).as_ref(),
        &inst.mem,
        CrashPlan::never(),
    )
    .expect("launch")
}

/// Runs trial `id` on `inst` and judges it. `launch` is the subject's
/// crash-free launch on `inst` standing at a block boundary the trial's
/// crash point is not behind: block 0 from scratch, a later one in a fork.
/// `clean_stores` is the clean run's store count, for the sites that need
/// it.
pub(crate) fn execute(
    id: &TrialId,
    cfg: &TrialConfig,
    gpu: &Gpu,
    w: &dyn Workload,
    inst: &mut Instance,
    launch: Launch<'_>,
    clean_stores: Option<u64>,
) -> TrialResult {
    let Instance { mem, rt } = inst;
    let kernel = w.kernel(Some(rt));
    let kernel = kernel.as_ref();
    let mut verify = |m: &mut PersistMemory| w.verify(m);
    let num_blocks = kernel.config().num_blocks();

    // The switch window only exists on the adaptive backend, where the
    // trial must drive the policy engine explicitly; every other backend
    // degrades the site inside `inject`.
    if let CrashSite::MidPolicySwitch { step } = id.site {
        if id.backend == BackendKind::Adaptive {
            return policy_switch_trial(id, step, gpu, mem, launch, kernel, rt, &mut verify);
        }
    }

    if let Some(fc) = device_fault_config(&id.site, id.seed) {
        mem.set_fault_config(Some(fc));
    }
    let injected = inject(id.site, gpu, mem, launch, kernel, rt, clean_stores);
    let mut detail = injected.note.clone();

    if id.site.is_device_fault() {
        return judge_device_trial(id, cfg, gpu, mem, kernel, rt, &mut verify, &injected);
    }

    let failed = rt.failing_regions(kernel, mem);
    let report = if cfg.skip_recovery {
        detail.push_str("sabotage: recovery skipped; ");
        sabotage_report(num_blocks)
    } else {
        ResilientRecovery::new(gpu).recover(kernel, rt, mem)
    };

    // O2/O3 attribute validation failures to the crash-loss record line by
    // line, which presumes LP semantics: checksummed data persisting only
    // through natural eviction. The explicit backends persist (some) lines
    // on their own schedule, so the attribution logic does not apply —
    // they are judged by O1 against their own durability contract instead.
    let loss_oracles = injected.loss_oracles && id.backend == BackendKind::LpChecksum;
    let verdict = if loss_oracles {
        oracle::check(&OracleInput {
            loss: injected.loss.as_ref(),
            failed: &failed,
            incomplete_from: injected.blocks_executed,
            num_blocks,
            transient: rt.transient_ranges(),
            table: rt.table_ranges(),
            line_size: mem.config().line_size as u64,
            hash_table: !matches!(rt.config().table, TableKind::GlobalArray),
        })
    } else {
        detail.push_str(if injected.loss_oracles {
            "loss oracles skipped (non-LP backend); "
        } else {
            "loss oracles skipped (double crash); "
        });
        Default::default()
    };
    detail.push_str(&verdict.detail);

    let o1 = report.all_durable && verify(mem);
    if !o1 {
        detail.push_str("O1: output wrong after recovery; ");
    }
    TrialResult {
        o1_output: o1,
        o2: verdict.o2,
        o3: verdict.o3,
        passed: o1 && verdict.ok(),
        ..TrialResult::unjudged(id, injected.crashed, failed.len(), &report, detail)
    }
}

/// Runs a mid-policy-switch trial on the adaptive backend.
///
/// The subject first completes one launch (`launch`, finished) under the
/// initial all-LP policy and drains it to media, so the switch window is
/// the only thing under test. One region (seed-derived) is then switched to
/// a deterministic non-LP rung, with power lost at the requested step of
/// the window: before the journal record, while the record's write-back
/// tears, after the record is durable, or mid-run under the new mode.
/// Recovery must restore the output under exactly the old or the new
/// contract (O1), and a post-recovery power cycle must find the journal and
/// the data in full agreement — zero failing regions on a fresh validation
/// (O5).
#[allow(clippy::too_many_arguments)]
fn policy_switch_trial(
    id: &TrialId,
    step: u8,
    gpu: &Gpu,
    mem: &mut PersistMemory,
    launch: Launch<'_>,
    kernel: &dyn Recoverable,
    rt: &LpRuntime,
    verify: &mut dyn FnMut(&mut PersistMemory) -> bool,
) -> TrialResult {
    assert!(
        rt.is_adaptive(),
        "policy-switch trials need the adaptive backend"
    );
    let num_blocks = kernel.config().num_blocks();
    launch.finish(kernel, mem);
    mem.flush_all();

    // Deterministic transition: region and target rung are functions of
    // the seed, so the trial is fully replayable.
    let region = id.seed % num_blocks;
    let target =
        [PolicyMode::Epoch, PolicyMode::Eager, PolicyMode::Checkpoint][(id.seed % 3) as usize];
    let mut detail = format!("switch r{region} -> {target}; ");
    match step {
        0 => {
            // Power dies before the journal record is attempted: recovery
            // must see the old (all-LP) policy untouched.
            mem.crash();
        }
        1 => {
            // Every write-back tears while the record is appended. The
            // append either survives (the torn prefix kept the whole
            // record) or is refused after retries — both are legal, and
            // replay must land on whichever happened.
            mem.set_fault_config(Some(FaultConfig::torn(id.seed ^ 0xFA17_C0DE, 10_000)));
            let committed = rt.switch_region(mem, region, target);
            mem.set_fault_config(None);
            detail.push_str(if committed {
                "journal survived the tears; "
            } else {
                "journal append refused under tears; "
            });
            mem.crash();
        }
        2 => {
            // The record is durable but the region never runs under the
            // new mode before power dies.
            assert!(
                rt.switch_region(mem, region, target),
                "clean switch must commit"
            );
            mem.crash();
        }
        3 => {
            // Mid-run under the new mode.
            assert!(
                rt.switch_region(mem, region, target),
                "clean switch must commit"
            );
            mem.arm_crash_after_evictions(2);
            gpu.launch(kernel, mem).expect("relaunch");
            mem.disarm_crash();
            if !mem.power_failed() {
                detail.push_str("site missed mid-run, crashing between kernels; ");
                mem.crash();
            }
        }
        _ => unreachable!("the switch window has steps 0-3"),
    }
    let _ = reboot(mem);

    // Recovery reloads the journal before judging any region, so each
    // region is validated under exactly one contract — the old or the new,
    // never a hybrid.
    let failed = rt.failing_regions(kernel, mem);
    let report = ResilientRecovery::new(gpu).recover(kernel, rt, mem);
    let o1 = report.all_durable && verify(mem);
    if !o1 {
        detail.push_str("O1: output wrong after recovery; ");
    }

    // O5: journal/data agreement. Drain everything, power-cycle, and
    // re-validate from the durable image alone — a fresh journal replay
    // must agree with the data it governs.
    mem.flush_all();
    mem.crash();
    let _ = reboot(mem);
    let disagreements = rt.failing_regions(kernel, mem);
    let o5 = disagreements.is_empty();
    if !o5 {
        detail.push_str(&format!(
            "O5: journal/data disagreement in {} region(s) after a clean power cycle; ",
            disagreements.len()
        ));
    }

    TrialResult {
        o1_output: o1,
        o5_journal_agreement: Some(o5),
        passed: o1 && o5,
        ..TrialResult::unjudged(id, true, failed.len(), &report, detail)
    }
}

/// Judges a device-fault trial with the O4 (no-silent-corruption) oracle:
/// either the resilient engine claims `all_durable` and the output — read
/// back after a fault-free power cycle — matches the reference, or it
/// honestly names its exhausted regions / outstanding persist debt.
/// Claiming success with a wrong output, or failing without naming any
/// loss, is silent corruption and fails O4.
#[allow(clippy::too_many_arguments)]
fn judge_device_trial(
    id: &TrialId,
    cfg: &TrialConfig,
    gpu: &Gpu,
    mem: &mut PersistMemory,
    kernel: &dyn Recoverable,
    rt: &LpRuntime,
    verify: &mut dyn FnMut(&mut PersistMemory) -> bool,
    injected: &Injected,
) -> TrialResult {
    let mut detail = injected.note.clone();
    let failed = rt.failing_regions(kernel, mem);

    let (report, o1, o4) = if cfg.skip_recovery {
        // Sabotage: claim success without repairing anything. Whatever the
        // device faults corrupted stays corrupted, so O4 must fire.
        detail.push_str("sabotage: recovery skipped; ");
        let ok = verify(mem);
        (sabotage_report(kernel.config().num_blocks()), ok, ok)
    } else {
        let report = ResilientRecovery::new(gpu).recover(kernel, rt, mem);
        if report.all_durable {
            // The durability claim must hold on a perfect device: disable
            // faults, cut power, and check the output that actually
            // reached media.
            mem.set_fault_config(None);
            mem.crash();
            let ok = verify(mem);
            // Faults where the device *claims success* while corrupting
            // data (torn write-backs, silent media flips) are detectable
            // only by a model that validates data content. A backend whose
            // contract has no checksum validation is blind to them by
            // design — that exposure is the paper's argument for LP, not a
            // backend bug, so it is recorded rather than failed. Corruption
            // without any such device lie stays a hard failure.
            let device_lied = mem.stats().torn_writebacks > 0 || mem.stats().silent_bit_errors > 0;
            if !ok && !rt.contract().checksum_validated && device_lied {
                detail.push_str(
                    "O4 waived by contract: device claimed success while corrupting data \
                     (torn/silent faults); a token-based model cannot detect this; ",
                );
                (report, false, true)
            } else {
                if !ok {
                    detail.push_str("O4: silent corruption — durable claim, wrong output; ");
                }
                (report, ok, ok)
            }
        } else {
            let honest = !report.exhausted_regions.is_empty() || report.persist_debt > 0;
            detail.push_str(if honest {
                "recovery gave up honestly (exhausted/debt reported); "
            } else {
                "O4: gave up without naming any loss; "
            });
            (report, false, honest)
        }
    };

    TrialResult {
        o1_output: o1,
        o4_no_silent_corruption: Some(o4),
        passed: o4,
        ..TrialResult::unjudged(id, injected.crashed, failed.len(), &report, detail)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(workload: &str, config: &str, site: CrashSite) -> TrialId {
        TrialId {
            workload: workload.to_string(),
            config: config.to_string(),
            backend: BackendKind::default(),
            seed: 1,
            site,
        }
    }

    fn backend_id(workload: &str, backend: BackendKind, site: CrashSite) -> TrialId {
        TrialId {
            backend,
            ..id(workload, "recommended", site)
        }
    }

    #[test]
    fn every_config_name_resolves() {
        for name in CONFIG_NAMES {
            assert!(trial_config(name).is_some(), "{name}");
        }
        assert!(trial_config(SABOTAGE_CONFIG).unwrap().skip_recovery);
        assert!(trial_config("nonsense").is_none());
    }

    #[test]
    fn unknown_names_fail_the_trial_without_running_it() {
        for (workload, config, what) in [
            ("NO-SUCH", "recommended", "unknown workload \"NO-SUCH\""),
            ("SPMV", "no-such", "unknown config \"no-such\""),
        ] {
            let r = run_trial(
                &id(workload, config, CrashSite::BetweenKernels),
                Scale::Test,
            );
            assert!(!r.passed && !r.crashed && !r.timed_out, "{r:?}");
            assert_eq!(r.detail, what);
        }
    }

    #[test]
    fn any_spelling_of_a_subject_runs_the_same_trial() {
        let site = CrashSite::AfterStores { pct: 50 };
        let canonical = run_trial(&id("MRI-Q", "recommended", site), Scale::Test);
        for spelling in ["mri-q", "MRIQ", "mriq"] {
            let r = run_trial(&id(spelling, "recommended", site), Scale::Test);
            assert_eq!(
                (r.passed, r.failed_regions, r.reexecutions, r.recovery_ns),
                (
                    canonical.passed,
                    canonical.failed_regions,
                    canonical.reexecutions,
                    canonical.recovery_ns
                ),
                "{spelling}"
            );
        }
    }

    #[test]
    fn labels_name_non_default_backends() {
        let lp = id("SPMV", "recommended", CrashSite::BetweenKernels);
        assert_eq!(lp.label(), "SPMV/recommended/s1/between-kernels");
        let sbrp = backend_id("SPMV", BackendKind::Sbrp, CrashSite::BetweenKernels);
        assert_eq!(sbrp.label(), "SPMV/recommended+sbrp/s1/between-kernels");
    }

    #[test]
    fn every_backend_survives_a_mid_store_crash() {
        for backend in BackendKind::ALL {
            let r = run_trial(
                &backend_id("SPMV", backend, CrashSite::AfterStores { pct: 50 }),
                Scale::Test,
            );
            assert!(r.passed, "{backend}: {r:?}");
            if backend != BackendKind::LpChecksum {
                assert_eq!(r.o2, None, "{backend} must skip the loss oracles");
                assert_eq!(r.o3, None, "{backend} must skip the loss oracles");
            }
        }
    }

    #[test]
    fn every_backend_survives_a_between_kernel_crash() {
        for backend in BackendKind::ALL {
            let r = run_trial(
                &backend_id("TMM", backend, CrashSite::BetweenKernels),
                Scale::Test,
            );
            assert!(r.crashed, "{backend}: {r:?}");
            assert!(r.passed, "{backend}: {r:?}");
        }
    }

    #[test]
    fn spmv_mid_store_crash_trial_passes() {
        let r = run_trial(
            &id("SPMV", "recommended", CrashSite::AfterStores { pct: 50 }),
            Scale::Test,
        );
        assert!(r.crashed, "{r:?}");
        assert!(r.passed, "{r:?}");
    }

    #[test]
    fn trial_results_are_reproducible() {
        let tid = id("TMM", "recommended", CrashSite::AfterStores { pct: 25 });
        let a = run_trial(&tid, Scale::Test);
        let b = run_trial(&tid, Scale::Test);
        assert_eq!(a.crashed, b.crashed);
        assert_eq!(a.failed_regions, b.failed_regions);
        assert_eq!(a.reexecutions, b.reexecutions);
        assert_eq!(a.passed, b.passed);
    }

    #[test]
    fn block_boundary_zero_loses_everything_and_recovers() {
        let r = run_trial(
            &id("TMM", "recommended", CrashSite::BlockBoundary { pct: 0 }),
            Scale::Test,
        );
        assert!(r.crashed);
        assert!(r.passed, "{r:?}");
    }

    #[test]
    fn megakv_insert_between_kernels_crash_passes() {
        let r = run_trial(
            &id("MEGAKV-INSERT", "recommended", CrashSite::BetweenKernels),
            Scale::Test,
        );
        assert!(r.crashed);
        assert!(r.passed, "{r:?}");
    }

    #[test]
    fn double_crash_trial_still_restores_output() {
        let r = run_trial(
            &id("SPMV", "recommended", CrashSite::DuringRecovery { nth: 1 }),
            Scale::Test,
        );
        assert!(r.o1_output, "{r:?}");
        assert!(r.passed, "{r:?}");
    }

    #[test]
    fn torn_writeback_trial_recovers_without_silent_corruption() {
        let r = run_trial(
            &id("TMM", "recommended", CrashSite::TornWriteback { bp: 400 }),
            Scale::Test,
        );
        assert_eq!(r.o4_no_silent_corruption, Some(true), "{r:?}");
        assert!(r.o1_output, "moderate tear rates must fully recover: {r:?}");
        assert!(r.passed, "{r:?}");
    }

    #[test]
    fn transient_persist_trial_quarantines_and_recovers() {
        let r = run_trial(
            &id(
                "SPMV",
                "recommended",
                CrashSite::TransientPersist { bp: 400 },
            ),
            Scale::Test,
        );
        assert_eq!(r.o4_no_silent_corruption, Some(true), "{r:?}");
        assert!(r.o1_output, "{r:?}");
        assert!(r.passed, "{r:?}");
    }

    #[test]
    fn media_error_trial_passes_with_megakv() {
        let r = run_trial(
            &id(
                "MEGAKV-INSERT",
                "recommended",
                CrashSite::MediaBitErrors { bp: 400 },
            ),
            Scale::Test,
        );
        assert_eq!(r.o4_no_silent_corruption, Some(true), "{r:?}");
        assert!(r.o1_output, "{r:?}");
    }

    #[test]
    fn device_trials_are_reproducible() {
        let tid = id("TMM", "recommended", CrashSite::TornWriteback { bp: 400 });
        let a = run_trial(&tid, Scale::Test);
        let b = run_trial(&tid, Scale::Test);
        assert_eq!(a.failed_regions, b.failed_regions);
        assert_eq!(a.reexecutions, b.reexecutions);
        assert_eq!(a.recovery_rounds, b.recovery_rounds);
        assert_eq!(a.quarantined_lines, b.quarantined_lines);
        assert_eq!(a.recovery_ns, b.recovery_ns);
        assert_eq!(a.passed, b.passed);
    }

    #[test]
    fn sabotaged_device_trial_fails_the_silent_corruption_oracle() {
        let r = run_trial(
            &id(
                "TMM",
                SABOTAGE_CONFIG,
                CrashSite::TornWriteback { bp: 2_000 },
            ),
            Scale::Test,
        );
        assert_eq!(
            r.o4_no_silent_corruption,
            Some(false),
            "claiming success over torn data is silent corruption: {r:?}"
        );
        assert!(!r.passed);
    }

    #[test]
    fn sabotaged_config_fails_the_output_oracle() {
        let r = run_trial(
            &id("SPMV", SABOTAGE_CONFIG, CrashSite::AfterStores { pct: 50 }),
            Scale::Test,
        );
        assert!(r.crashed, "sabotage demo needs a crash that loses data");
        assert!(
            !r.o1_output,
            "skipping recovery must corrupt the output: {r:?}"
        );
        assert!(!r.passed);
    }

    #[test]
    fn adaptive_backend_survives_the_standard_crash_sites() {
        for site in [
            CrashSite::AfterStores { pct: 50 },
            CrashSite::BetweenKernels,
        ] {
            let r = run_trial(
                &backend_id("SPMV", BackendKind::Adaptive, site),
                Scale::Test,
            );
            assert!(r.passed, "{site:?}: {r:?}");
            assert_eq!(r.o2, None, "adaptive must skip the loss oracles");
        }
    }

    #[test]
    fn every_switch_window_step_lands_on_exactly_one_contract() {
        for step in 0..=3 {
            let r = run_trial(
                &backend_id(
                    "TMM",
                    BackendKind::Adaptive,
                    CrashSite::MidPolicySwitch { step },
                ),
                Scale::Test,
            );
            assert!(r.o1_output, "step {step}: {r:?}");
            assert_eq!(r.o5_journal_agreement, Some(true), "step {step}: {r:?}");
            assert!(r.passed, "step {step}: {r:?}");
        }
    }

    #[test]
    fn switch_window_covers_every_target_rung_across_seeds() {
        // Seeds 1..=3 pick Eager, Checkpoint and Epoch as the target rung;
        // the torn-journal step must hold for each of them.
        for seed in 1..=3 {
            let r = run_trial(
                &TrialId {
                    seed,
                    ..backend_id(
                        "SPMV",
                        BackendKind::Adaptive,
                        CrashSite::MidPolicySwitch { step: 1 },
                    )
                },
                Scale::Test,
            );
            assert_eq!(r.o5_journal_agreement, Some(true), "seed {seed}: {r:?}");
            assert!(r.passed, "seed {seed}: {r:?}");
        }
    }

    #[test]
    fn fixed_backends_degrade_the_switch_site_to_a_between_kernels_crash() {
        let r = run_trial(
            &backend_id(
                "SPMV",
                BackendKind::Sbrp,
                CrashSite::MidPolicySwitch { step: 2 },
            ),
            Scale::Test,
        );
        assert!(r.crashed, "{r:?}");
        assert!(r.passed, "{r:?}");
        assert!(r.detail.contains("degraded to between-kernels"), "{r:?}");
        assert_eq!(r.o5_journal_agreement, None);
    }

    #[test]
    fn policy_switch_trials_are_reproducible() {
        let tid = backend_id(
            "SPMV",
            BackendKind::Adaptive,
            CrashSite::MidPolicySwitch { step: 1 },
        );
        let a = run_trial(&tid, Scale::Test);
        let b = run_trial(&tid, Scale::Test);
        assert_eq!(a.detail, b.detail);
        assert_eq!(a.failed_regions, b.failed_regions);
        assert_eq!(a.reexecutions, b.reexecutions);
        assert_eq!(a.passed, b.passed);
    }

    #[test]
    fn megakv_cas_effects_reach_every_explicit_backend() {
        // Regression: MEGA-KV's key-claim and tombstone CAS used to bypass
        // the persist session, so explicit backends published durable
        // commit tokens over volatile slots.
        for backend in [BackendKind::Eager, BackendKind::Epoch, BackendKind::Sbrp] {
            for (workload, site) in [
                ("MEGAKV-INSERT", CrashSite::AfterStores { pct: 50 }),
                ("MEGAKV-DELETE", CrashSite::BetweenKernels),
            ] {
                let r = run_trial(&backend_id(workload, backend, site), Scale::Test);
                assert!(r.passed, "{workload}/{backend}: {r:?}");
            }
        }
    }

    #[test]
    fn transient_refusals_are_retried_not_waived() {
        // Transient write-back refusals produce no device lie, so the
        // contract waiver never applies: explicit backends must pass O4
        // strictly by retrying (and, at worst, quarantining) the line.
        for backend in [BackendKind::Eager, BackendKind::Epoch, BackendKind::Sbrp] {
            let r = run_trial(
                &backend_id("SPMV", backend, CrashSite::TransientPersist { bp: 400 }),
                Scale::Test,
            );
            assert!(r.passed, "{backend}: {r:?}");
            assert!(!r.detail.contains("O4 waived"), "{backend}: {r:?}");
        }
    }

    #[test]
    fn torn_writebacks_are_waived_only_for_token_contracts() {
        // A device that claims success while tearing the line is invisible
        // to token-based durability; only the checksum contract detects it.
        let site = CrashSite::TornWriteback { bp: 400 };
        let sbrp = run_trial(&backend_id("SPMV", BackendKind::Sbrp, site), Scale::Test);
        assert!(sbrp.passed, "{sbrp:?}");
        if sbrp.o4_no_silent_corruption == Some(false) {
            assert!(
                sbrp.detail.contains("O4 waived"),
                "a token contract's tear exposure must be an explicit waiver: {sbrp:?}"
            );
        }
        let lp = run_trial(
            &backend_id("SPMV", BackendKind::LpChecksum, site),
            Scale::Test,
        );
        assert!(lp.passed, "{lp:?}");
        assert!(
            !lp.detail.contains("O4 waived"),
            "the checksum contract is judged strictly: {lp:?}"
        );
    }
}
