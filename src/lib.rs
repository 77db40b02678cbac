//! Umbrella crate for the LPGPU workspace: a full reproduction of
//! *"Scalable and Fast Lazy Persistency on GPUs"* (IISWC 2020) in Rust.
//!
//! Everything lives in the member crates; this crate re-exports them so the
//! examples and integration tests have a single dependency:
//!
//! * [`nvm`] — persistent-memory model (write-back cache, crash injection).
//! * [`simt`] — deterministic SIMT GPU simulator with a timing model.
//! * [`gpu_lp`] — the Lazy Persistency runtime (checksums, checksum tables,
//!   reductions, recovery) — the paper's core contribution.
//! * [`lp_kernels`] — the subject table (TMM + Parboil kernels, MEGA-KV
//!   batches) and the one way to stage a subject on a simulated machine.
//! * [`megakv`] — a batched GPU key-value store (the paper's §VII-4 app).
//! * [`lp_persist`] — the persistency-model spectrum: the
//!   `PersistencyBackend` trait plus LP / eager / epoch / SBRP backends.
//! * [`lp_directive`] — the `#pragma nvm lpcuda_*` compiler front end (§VI).
//! * [`lp_fault`] — systematic crash-injection campaigns: site taxonomy,
//!   trial oracles, failure shrinking, JSON reports.
//!
//! # Quickstart
//!
//! See `examples/quickstart.rs` for an end-to-end run: launch a kernel with
//! LP instrumentation, crash mid-flight, validate checksums, and recover.

pub use gpu_lp;
pub use lp_bench;
pub use lp_directive;
pub use lp_fault;
pub use lp_kernels;
pub use lp_persist;
pub use megakv;
pub use nvm;
pub use simt;
