//! `lp-apps` — recoverable long-running services on the Lazy Persistency
//! runtime.
//!
//! Everything below this crate runs *one launch and recovers it once*. A
//! production durability story is a **service**: a process that commits a
//! step, loses power, reboots, rolls the interrupted step forward, and is
//! back serving — hundreds of times in a row, on a device that tears
//! write-backs and refuses persists while it happens. This crate hosts
//! three such services, each a different shape of durable state:
//!
//! * [`AppKind::Queue`] — an append-only log/queue: enqueue and consume
//!   batches with exactly-once-observable consume semantics (consumption
//!   is a durable, idempotent receipt, so replaying a step can never
//!   deliver twice);
//! * [`AppKind::Train`] — an iterative trainer with periodic checkpoints:
//!   epochs ping-pong through a rotating buffer ring so re-execution is
//!   idempotent, and a crash resumes from the last durable epoch;
//! * [`AppKind::KvTxn`] — a durable-transaction variant of the MEGA-KV
//!   store: each step is an all-or-nothing batch of put/delete
//!   transactions over a bounded key universe, judged against a CPU model
//!   of the committed transactions.
//!
//! Each is a kernel, a seeded generator and an audit behind the one
//! [`RecoverableApp`] implementation, the crate-private driver in
//! `service.rs`: `step` / `crash` / `restore` / `verify_invariants` /
//! `restoration_latency` / `progress`. The queue and the store commit
//! every step; the trainer is the same protocol with a checkpoint window
//! of four. The lifecycle contract is the core of the crate:
//!
//! 1. **Intent before work.** Before a step launches, the driver commits
//!    an intent record (step counter + pre-state cursors) to a
//!    [`DurableManifest`] — a two-slot, checksummed commit record that a
//!    torn write-back can only ever revert to the previous valid state,
//!    never corrupt.
//! 2. **Roll-forward restore.** After power loss, `restore` reads the
//!    manifest from durable truth, rebuilds every in-flight step's kernel
//!    deterministically from `(seed, step, cursors)`, and drives the
//!    re-entrant resilient recovery loop
//!    ([`gpu_lp::ResilientRecovery::recover_reentrant`]) until the steps'
//!    regions validate against durable data — even if power fails again
//!    *during* the restore. The window is then committed, so progress is
//!    strictly monotone across crash cycles.
//! 3. **Audit from durable state.** `verify_invariants` compares memory
//!    against a host reference model of the committed prefix — zero data
//!    loss and zero silent corruption are checked, not assumed. The model
//!    is derived from the seed alone: each service keeps one, advances it
//!    by the steps committed since the previous audit, and rebuilds it from
//!    step 1 only when the durable counter moved backwards. It belongs to
//!    the oracle, not the service — `step` and `restore` never read it, so
//!    `crash` keeps it.
//!
//! The chaos-soak engine in `lp-fault` (`soak.rs`) drives these apps
//! through seeded crash→recover→resume schedules and aggregates the
//! restoration latencies this trait reports.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod kvtxn;
pub mod manifest;
mod queue;
mod service;
mod train;

pub use manifest::DurableManifest;

use gpu_lp::BackendKind;
use nvm::{splitmix64, PersistMemory};
use serde::{Deserialize, Serialize};
use simt::Gpu;

/// Which recoverable service to build (CLI surface of the soak sweep).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum AppKind {
    /// The durable append-only queue.
    Queue,
    /// The checkpointed training loop.
    Train,
    /// The transactional MEGA-KV store.
    KvTxn,
}

impl AppKind {
    /// Every service, in sweep order.
    pub const ALL: [AppKind; 3] = [AppKind::Queue, AppKind::Train, AppKind::KvTxn];

    /// Short stable name (CLI flag value, report row label).
    pub fn name(self) -> &'static str {
        match self {
            AppKind::Queue => "queue",
            AppKind::Train => "train",
            AppKind::KvTxn => "kvtxn",
        }
    }
}

impl std::fmt::Display for AppKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for AppKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "queue" | "log" => Ok(AppKind::Queue),
            "train" | "training" => Ok(AppKind::Train),
            "kvtxn" | "kv" | "megakv-txn" => Ok(AppKind::KvTxn),
            other => Err(format!("unknown app {other:?} (queue|train|kvtxn)")),
        }
    }
}

/// Sizing and identity parameters shared by every app constructor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct AppParams {
    /// Persistency backend the service's launches run under.
    pub backend: BackendKind,
    /// Seed that (together with the step counter) derives every batch,
    /// payload and schedule decision — the whole service is replayable.
    pub seed: u64,
    /// Upper bound on service steps the durable arenas are provisioned
    /// for (append-only logs are sized up front; exceeding it panics).
    pub max_steps: u64,
    /// Per-step work width (batch size / weight count scale knob).
    pub width: u64,
}

impl AppParams {
    /// Parameters for a quick smoke-sized service.
    pub fn small(backend: BackendKind, seed: u64, max_steps: u64) -> Self {
        AppParams {
            backend,
            seed,
            max_steps,
            width: 48,
        }
    }
}

/// Outcome of one service step.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StepReport {
    /// The service step this launch belonged to (1-based).
    pub step: u64,
    /// Power failed, or a validation could not prove the step durable,
    /// before the step completed.
    pub crashed: bool,
    /// The step completed: its intent is durable and its launch ran to the
    /// end. Whether its effects already survive a crash is what `progress`
    /// reports — a service that checkpoints every few steps completes
    /// steps ahead of it, and `restore` rolls those forward.
    pub committed: bool,
    /// Modelled kernel execution time, ns (zero when the launch crashed).
    pub exec_ns: u64,
}

/// Outcome of one `restore` call (crash → back-serving).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RestoreReport {
    /// Committed progress counter after roll-forward.
    pub recovered_step: u64,
    /// Whether an in-flight step existed and was completed.
    pub rolled_forward: bool,
    /// Recovery attempts (1 = no interruption; more = power failed during
    /// the restore itself and the loop re-entered).
    pub attempts: u32,
    /// Power failures absorbed mid-restore.
    pub interruptions: u32,
    /// Region re-executions across all attempts.
    pub reexecutions: u64,
    /// Re-executions that ran in degraded (flush-per-store) mode.
    pub degraded_reexecutions: u64,
    /// Device lines retired and remapped during the restore.
    pub quarantined_lines: u64,
    /// Modelled restoration latency: reboot + validation sweeps + repair
    /// re-execution + retry backoff, summed over every attempt.
    pub latency_ns: u64,
    /// The final recovery attempt left everything durable. `false` means
    /// the device defeated the retry/quarantine budget — the service is up
    /// but must report the exposure.
    pub all_durable: bool,
}

/// A long-running service that can crash at any instant and restore itself
/// from durable state alone.
///
/// Lifecycle: any number of `step` calls, then (at any point, including
/// mid-`step`) `crash`, then `restore`, after which `verify_invariants`
/// must return no violations and `progress` must have strictly advanced
/// past the last pre-crash committed value whenever at least one step was
/// attempted. After a `step` reports `crashed`, the volatile host state is
/// stale: the only valid continuation is `crash` → `restore`.
pub trait RecoverableApp {
    /// Service name (report row label).
    fn name(&self) -> &'static str;

    /// Runs one service step: derive the batch from `(seed, step)`, commit
    /// the intent record, launch and — when the step closes a checkpoint
    /// window — validate and commit. Returns early (without committing) if
    /// power fails at any point. Panics past `AppParams::max_steps`.
    fn step(&mut self, gpu: &Gpu, mem: &mut PersistMemory) -> StepReport;

    /// Models process death + power loss: cuts power if an armed trigger
    /// has not already done so, and drops every volatile host-side cache
    /// so `restore` can only rely on durable state. The audit's reference
    /// model (see `verify_invariants`) is kept: it is derived from the seed
    /// alone and nothing but the audit reads it.
    fn crash(&mut self, mem: &mut PersistMemory);

    /// Reboots, reloads the manifest from durable truth, rolls the
    /// in-flight steps (if any) forward through re-entrant resilient
    /// recovery, commits them, and rebuilds volatile host state. Safe to
    /// be interrupted by further power failures.
    fn restore(&mut self, gpu: &Gpu, mem: &mut PersistMemory) -> RestoreReport;

    /// Audits every invariant the service promises (no data loss, no
    /// silent corruption, cursor consistency) against memory, returning a
    /// human-readable violation list — empty means healthy. The expected
    /// state is a host reference model the service keeps across calls and
    /// crashes, advanced by the steps committed since the previous audit
    /// (rebuilt from step 1 if the durable counter went backwards), so an
    /// audit costs the new steps, not the whole history. Callers disable
    /// device fault injection around the audit so the audit's own reads
    /// cannot corrupt.
    fn verify_invariants(&mut self, mem: &mut PersistMemory) -> Vec<String>;

    /// Modelled restoration latency (ns) of the most recent `restore` —
    /// zero before the first one.
    fn restoration_latency(&self) -> u64;

    /// The durable committed progress counter (steps/epochs/batches). Must
    /// never decrease across a crash→restore cycle.
    fn progress(&self, mem: &mut PersistMemory) -> u64;
}

/// Builds the requested service with its durable arenas allocated from
/// `mem`. The arenas are flushed so the baseline state is durable.
pub fn build_app(
    kind: AppKind,
    params: AppParams,
    mem: &mut PersistMemory,
) -> Box<dyn RecoverableApp> {
    match kind {
        AppKind::Queue => Box::new(queue::DurableQueue::create(mem, params)),
        AppKind::Train => Box::new(train::TrainingLoop::create(mem, params)),
        AppKind::KvTxn => Box::new(kvtxn::KvTxn::create(mem, params)),
    }
}

/// Mixes three coordinates into one deterministic 64-bit value.
pub(crate) fn mix3(a: u64, b: u64, c: u64) -> u64 {
    splitmix64(a ^ splitmix64(b ^ splitmix64(c ^ 0xA993_5EED_C0FF_EE01)))
}

/// The unit tests' machine: the test GPU and a 256-line cache under the
/// given device-fault model.
#[cfg(test)]
pub(crate) fn world(faults: Option<nvm::FaultConfig>) -> (Gpu, PersistMemory) {
    let mut mem = PersistMemory::new(nvm::NvmConfig {
        cache_lines: 256,
        associativity: 8,
        ..nvm::NvmConfig::default()
    });
    mem.set_fault_config(faults);
    (Gpu::new(simt::DeviceConfig::test_gpu()), mem)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn app_kind_round_trips_through_names() {
        for kind in AppKind::ALL {
            assert_eq!(kind.name().parse::<AppKind>().unwrap(), kind);
        }
        assert!("nonsense".parse::<AppKind>().is_err());
    }

    #[test]
    fn mixers_are_deterministic_and_spread() {
        assert_eq!(mix3(1, 2, 3), mix3(1, 2, 3));
        assert_ne!(mix3(1, 2, 3), mix3(1, 2, 4));
        assert_ne!(splitmix64(0), splitmix64(1));
    }
}
