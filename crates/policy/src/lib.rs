//! `lp-policy` — the adaptive durability policy engine.
//!
//! The paper fixes one durability discipline (Lazy Persistency with
//! checksums) per run; our own spectrum measurements show each backend
//! dominating a different write-density / crash-rate / device-fault
//! regime. This crate picks the discipline *online*, per region:
//!
//! * [`PolicyMode`] — the degradation ladder (LP → epoch → eager →
//!   checkpoint+quarantine), ordered by resilience.
//! * [`RegionSignals`] — the observation vector: store density and
//!   eviction pressure from [`nvm::NvmStats`], transient-persist / ECC /
//!   quarantine history from the device fault model, crash and recovery
//!   cost from the resilient-recovery reports.
//! * [`PolicyEngine`] — deterministic decisions with hysteresis (a noisy
//!   signal cannot thrash) and a monotone fault floor (rising device-fault
//!   rates shed performance, never correctness).
//! * [`PolicyJournal`] — the durable, checksummed switch journal that
//!   makes every transition crash-consistent: a crash at any point during
//!   a switch recovers under exactly one well-defined contract — the old
//!   one or the new one, never a hybrid.
//!
//! The LP runtime (`gpu-lp`) consumes all four to implement
//! `BackendKind::Adaptive`; this crate deliberately depends only on `nvm`
//! and `lp-persist` so the runtime can sit on top of it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod journal;
pub mod mode;
pub mod signals;

pub use engine::{PolicyConfig, PolicyEngine, SwitchEvent};
pub use journal::{JournalRecord, PolicyJournal, RECORD_BYTES};
pub use mode::PolicyMode;
pub use signals::RegionSignals;
