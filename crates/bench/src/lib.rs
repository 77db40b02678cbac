//! `lp-bench` — the experiment harness that regenerates every table and
//! figure of the paper's evaluation.
//!
//! One `lp` binary serves every experiment: `lp list` prints the index
//! ([`EXPERIMENTS`] — Fig. 5, Tables II–V, the §IV/§VII studies, the
//! fault campaigns, sweeps and soak), `lp <name|E-code> [flags]` runs one,
//! and `lp all [flags]` regenerates the whole evaluation behind
//! EXPERIMENTS.md. Each experiment is a module under `src/experiments/`;
//! `lpcuda-lint` is the one that also ships under its own name.
//!
//! The rest of the library is the shared measurement machinery: stage a
//! fresh instance in a fresh simulated world per run (`lp_kernels::world`
//! and `stage`), launch the baseline and the LP variants of a workload,
//! and report overheads plus the model's cost breakdown.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cli;
mod driver;
mod experiments;
mod measure;
mod report;

use cli::{Args, Failure};
use measure::{geometric_mean, measure_configs, GeoMean, Sweep};
use report::{fmt_overhead, fmt_slowdown, Table};

pub use driver::{lint_main, lp_main};
pub use experiments::{Experiment, EXPERIMENTS};
pub use measure::{measure_workload, Measurement};
