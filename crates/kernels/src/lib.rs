//! The subjects of the Lazy Persistency study: tiled matrix multiply plus
//! the seven Parboil kernels of Table I, and §VII-4's three MEGA-KV batch
//! operations, each with a baseline and an LP-instrumented variant behind
//! a single code path. [`SUBJECTS`] is the one table of them; [`world`] and
//! [`stage`] are the one way to put any of them on a simulated machine.
//!
//! Every workload follows the same contract ([`Workload`]):
//!
//! * seeded, reproducible input generation written into simulated device
//!   memory and flushed (the checkpoint boundary — inputs are durable);
//! * a [`simt::Kernel`] whose thread blocks are **independent and
//!   idempotent** — scatter-style algorithms (histograms, gridding) are
//!   restructured gather-style with block-private partials so any block can
//!   be re-executed in isolation, which is exactly the associativity
//!   requirement LP regions carry (§IV-A of the paper);
//! * a CPU reference implementation for output verification;
//! * the recovery-side checksum recomputation ([`gpu_lp::Recoverable`]).
//!
//! Block counts at [`Scale::Paper`] follow Table III; [`Scale::Bench`]
//! preserves the paper's *ordering* of block counts (SAD ≫ MRI-GRIDDING ≫
//! TMM ≫ SPMV ≫ MRI-Q > TPACF > CUTCP > HISTO) at simulation-friendly
//! sizes, and [`Scale::Test`] is for fast unit tests.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod common;
pub mod cutcp;
pub mod histo;
pub mod kv;
pub mod mri_gridding;
pub mod mri_q;
pub mod sad;
pub mod spmv;
pub mod subject;
pub mod tmm;
pub mod tpacf;
pub mod workload;

pub use kv::KvBatch;
pub use subject::{
    all_workloads, stage, stage_baseline, subject, test_world, workload_by_name, world, Subject,
    SUBJECTS, SUBJECT_NAMES, WORKLOAD_NAMES,
};
pub use workload::{Scale, Workload};
