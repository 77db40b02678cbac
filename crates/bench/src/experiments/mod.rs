//! The experiment index: one module per artefact, one row per experiment.
//!
//! [`EXPERIMENTS`] is the only list of experiments in the repository —
//! `lp list` prints it, `lp all` walks it, `lp <name|E-code>` looks one
//! row up, and the documentation points here instead of keeping a copy.

use crate::cli::{Args, Failure, Flags};

mod adaptive_sweep;
mod atomics_ablation;
mod backend_sweep;
mod campaign;
mod device_faults;
mod ep_comparison;
mod false_negatives;
mod fig5_hash_tables;
mod footprint_engine;
pub(crate) mod lint_cli;
mod megakv_overhead;
mod multi_checksum;
mod recovery_cost;
mod sanitizer_overhead;
mod soak;
mod table2_collisions;
mod table3_locking;
mod table4_reduction;
mod table5_global_array;
mod write_amplification;

/// One row of the experiment index.
#[derive(Debug)]
pub struct Experiment {
    /// The code EXPERIMENTS.md and DESIGN.md §4 file the experiment under.
    pub code: &'static str,
    /// The name `lp <name>` runs it by (its module under
    /// `src/experiments/`, or the tool it drives).
    pub name: &'static str,
    /// The paper artefact or claim it reproduces.
    pub artefact: &'static str,
    /// The command line `lp all` announces it as.
    pub tool: &'static str,
    /// The flags `lp all` runs it with in place of the forwarded sweep
    /// flags, for the tools whose flag set is their own; they also stand
    /// in when `lp <name>` is given no flags. Empty for the sweeps.
    pub fixed: &'static [&'static str],
    pub(crate) flags: Flags,
    pub(crate) run: fn(&Args) -> Result<(), Failure>,
}

const fn sweep(
    code: &'static str,
    name: &'static str,
    artefact: &'static str,
    run: fn(&Args) -> Result<(), Failure>,
) -> Experiment {
    Experiment {
        code,
        name,
        artefact,
        tool: name,
        fixed: &[],
        flags: Flags::Sweep,
        run,
    }
}

/// Every experiment, in the order `lp all` runs them.
#[rustfmt::skip]
pub const EXPERIMENTS: [Experiment; 21] = [
    sweep("E0", "ep_comparison", "eager-vs-lazy motivation", ep_comparison::run),
    sweep("E1", "fig5_hash_tables", "Fig. 5", fig5_hash_tables::run),
    sweep("E2", "table2_collisions", "Table II", table2_collisions::run),
    sweep("E3", "atomics_ablation", "§IV-D3", atomics_ablation::run),
    sweep("E4", "table3_locking", "Table III", table3_locking::run),
    sweep("E5", "table4_reduction", "Table IV", table4_reduction::run),
    sweep("E6", "table5_global_array", "Table V", table5_global_array::run),
    sweep("E7", "multi_checksum", "§VII-2", multi_checksum::run),
    sweep("E8", "write_amplification", "§VII-3", write_amplification::run),
    sweep("E9", "megakv_overhead", "§VII-4", megakv_overhead::run),
    sweep("E13", "recovery_cost", "recovery-cost trade-off", recovery_cost::run),
    sweep("E15", "sanitizer_overhead", "sanitizer overhead", sanitizer_overhead::run),
    sweep("E16", "device_faults", "device-fault resilience", device_faults::run),
    sweep("E18", "backend_sweep", "persistency-model spectrum", backend_sweep::run),
    sweep("E19", "adaptive_sweep", "adaptive durability policy", adaptive_sweep::run),
    sweep("E21", "soak", "recoverable-services chaos soak", soak::run),
    sweep("E22", "footprint_engine", "store-footprint engine", footprint_engine::run),
    sweep("E12", "false_negatives", "§IV-B", false_negatives::run),
    // The campaign sweeps its own seed set and is bounded by a budget, so
    // it gets a fixed, quick invocation instead of the forwarded flags.
    Experiment {
        code: "E14",
        name: "campaign",
        artefact: "crash-injection campaign",
        tool: "campaign",
        fixed: &["--scale", "test", "--budget", "200", "--sanitize", "--quiet"],
        flags: Flags::Campaign,
        run: campaign::run,
    },
    // The static-analysis differential: the embedded clean corpus must
    // lint to zero findings.
    Experiment {
        code: "E17",
        name: "lpcuda-lint",
        artefact: "static LP-safety analysis",
        tool: "lpcuda-lint",
        fixed: &["--fixtures"],
        flags: Flags::Lint,
        run: lint_cli::run,
    },
    // Static crash-site pruning: the same sampled sweep pruned and
    // unpruned must agree on every failure verdict.
    Experiment {
        code: "E20",
        name: "prune_smoke",
        artefact: "static pruning",
        tool: "campaign --prune-smoke",
        fixed: &["--prune-smoke", "--scale", "test"],
        flags: Flags::Campaign,
        run: campaign::run,
    },
];
