//! `lp-fault` — a systematic crash-injection campaign engine for the Lazy
//! Persistency stack.
//!
//! The paper's correctness story (§IV-A, §VI) rests on a claim that is
//! easy to state and hard to trust: *whenever* power is lost — mid-kernel,
//! at a block boundary, between launches, halfway through a checkpoint
//! flush, even during recovery itself — validation finds exactly the
//! regions whose data did not persist, and eager re-execution restores a
//! correct output. This crate tests that claim exhaustively instead of
//! anecdotally:
//!
//! * [`CrashSite`] is a taxonomy of power-loss instants, parameterised and
//!   serializable, covering every phase of the LP pipeline (including the
//!   double-crash during recovery);
//! * [`TrialId`] = `(workload, config, backend, seed, site)` fully
//!   determines one trial — including which persistency backend the
//!   subject runs under — so every result in a report is replayable
//!   bit-for-bit;
//! * [`run_trial`] executes one trial from scratch — a freshly staged
//!   machine, one launch from block 0 — and judges it with three oracles:
//!   **O1** the recovered output matches the CPU reference, **O2** no
//!   region failed validation that the crash cannot explain (no phantom
//!   failures), **O3** no region validated despite demonstrably losing its
//!   own data (no false negatives) — the last two powered by the NVM's
//!   crash-loss forensics ([`nvm::CrashLoss`]);
//! * [`run_campaign`] groups the cross product into cells — the trials that
//!   share workload, config, backend and seed — and fans the cells over
//!   worker threads. A cell stages its machine once, runs one clean launch
//!   and one forward execution, and forks each trial off that execution at
//!   its cut, with the same result [`run_trial`] gives; it tallies by site
//!   and workload and emits a JSON [`CampaignReport`];
//! * [`shrink()`] reduces every failure to a minimal reproducer by re-running
//!   progressively simpler trials.
//!
//! The `lp-bench` crate exposes all of this as the `campaign` binary;
//! `--sabotage` runs a deliberately-broken config (recovery skipped) to
//! demonstrate the engine catching and shrinking a real persistency bug.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod campaign;
mod cell;
pub mod oracle;
pub mod prune;
pub mod sanitize;
pub mod shrink;
pub mod site;
pub mod soak;
pub mod stats;
pub mod trial;

pub use campaign::{run_campaign, CampaignReport, CampaignSpec, FailureRecord, PruneRecord, Tally};
pub use oracle::{OracleInput, OracleVerdict};
pub use prune::{
    prune_sites, representative_trial, subject_footprint, subject_num_blocks, subject_twin,
    PruneDecision, PruneOutcome, SubjectFootprint,
};
pub use sanitize::{
    observe_subject, sanitize_subject, sanitize_sweep, ObservedSubject, SanitizeRecord,
};
pub use shrink::{shrink, ShrinkOutcome};
pub use site::CrashSite;
pub use soak::{run_soak, soak_world, CrashMode, CycleRecord, SoakReport, SoakSpec};
pub use stats::{percentiles, Percentiles};
pub use trial::{
    device_fault_config, fault_world, run_trial, trial_config, TrialConfig, TrialId, TrialResult,
    CONFIG_NAMES, SABOTAGE_CONFIG,
};
