//! E18 — cross-model characterisation of the persistency spectrum. Runs
//! every suite kernel plus MEGA-KV (insert) under all four persistency
//! backends — LP-checksum, eager flush-per-store, strict/epoch, and
//! SBRP-style scoped buffered persistency — in one sweep, and reports
//! the two costs the models trade against each other: run-time overhead on
//! every execution, and recovery cost after a mid-kernel crash.
//!
//! `--backend lp|eager|epoch|sbrp|adaptive` restricts the sweep to one
//! model (`adaptive` runs the policy engine over the fixed disciplines;
//! the phase-change comparison lives in `adaptive_sweep`/E19);
//! `--workload NAME` to one subject.

use super::megakv_overhead;
use crate::{fmt_overhead, geometric_mean, measure_configs, Args, Failure, Table};
use gpu_lp::{BackendKind, LpConfig};
use lp_fault::{run_trial, CrashSite, TrialId};
use lp_kernels::{Workload, SUBJECTS, WORKLOAD_NAMES};
use megakv::app::OpKind;

/// Builds a fresh instance of a row's workload.
type Build = Box<dyn Fn() -> Box<dyn Workload>>;

pub(crate) fn run(args: &Args) -> Result<(), Failure> {
    let backends: Vec<BackendKind> = match args.backend {
        Some(b) => vec![b],
        None => BackendKind::ALL.to_vec(),
    };
    // A row is the workload whose run-time overhead is measured; its
    // recovery cost comes from the campaign's crash trial of the subject
    // with the same name. The suite rows are the subject table's; the
    // MEGA-KV (insert) row, named by the table's first MEGA-KV row, is the
    // batch §VII-4 measures (E9), so its overhead is at that record count
    // and its recovery at the campaign's.
    let (scale, seed) = (args.scale, args.seed);
    let mut rows: Vec<(&str, Build)> = SUBJECTS[..WORKLOAD_NAMES.len()]
        .iter()
        .map(|s| (s.name, Box::new(move || (s.build)(scale, seed)) as Build))
        .collect();
    let kv_insert = move || megakv_overhead::batch(OpKind::Insert, scale, seed);
    rows.push((SUBJECTS[WORKLOAD_NAMES.len()].name, Box::new(kv_insert)));
    let all_subjects: Vec<&str> = rows.iter().map(|(name, _)| *name).collect();
    let subjects = match args.workload_in(&all_subjects)? {
        Some(only) => vec![only.name],
        None => all_subjects,
    };
    rows.retain(|(name, _)| subjects.contains(name));
    let configs: Vec<LpConfig> = backends.iter().map(|&b| LpConfig::for_backend(b)).collect();

    println!(
        "# E18 — persistency-model spectrum: run-time overhead and recovery cost\n\
         # subjects: {} | backends: {}\n",
        subjects.join(", "),
        backends
            .iter()
            .map(|b| b.name())
            .collect::<Vec<_>>()
            .join(", ")
    );

    let mut table = Table::new(&[
        "Workload",
        "Backend",
        "Baseline (ns)",
        "Run (ns)",
        "Overhead",
        "Recovery (ns)",
        "Re-execs",
    ]);
    let mut json_rows = Vec::new();
    let mut overheads: Vec<(BackendKind, f64)> = Vec::new();

    for (name, build) in &rows {
        let costs = measure_configs(name, build, false, &configs);
        for (&backend, m) in backends.iter().zip(&costs) {
            let (base_ns, run_ns, overhead) = (m.baseline.kernel_ns, m.lp.kernel_ns, m.overhead);
            // Recovery cost: crash halfway through the store stream, then
            // recover and judge with the fault engine's oracles — each
            // backend is held to its own durability contract.
            let trial = run_trial(
                &TrialId {
                    workload: name.to_string(),
                    config: "recommended".to_string(),
                    backend,
                    seed: args.seed,
                    site: CrashSite::AfterStores { pct: 50 },
                },
                args.scale,
            );
            if !trial.passed {
                eprintln!(
                    "E18 FAILED: {name}/{backend}: crash trial failed its oracles: {trial:?}"
                );
                return Err(Failure::Gate);
            }

            table.row(&[
                name.to_string(),
                backend.name().to_string(),
                format!("{base_ns:.0}"),
                format!("{run_ns:.0}"),
                fmt_overhead(overhead),
                trial.recovery_ns.to_string(),
                trial.reexecutions.to_string(),
            ]);
            json_rows.push(serde_json::json!({
                "workload": name,
                "backend": backend.name(),
                "baseline_ns": base_ns,
                "run_ns": run_ns,
                "overhead": overhead,
                "recovery_ns": trial.recovery_ns,
                "reexecutions": trial.reexecutions,
                "recovery_passed": trial.passed,
            }));
            overheads.push((backend, 1.0 + overhead));
        }
    }
    println!("{}", table.to_markdown());

    println!("\nGeometric-mean slowdown per backend:");
    for &backend in &backends {
        let vals: Vec<f64> = overheads
            .iter()
            .filter(|(b, _)| *b == backend)
            .map(|&(_, v)| v)
            .collect();
        println!("  {:>5}: {:.4}x", backend.name(), geometric_mean(&vals));
    }
    println!(
        "\n(LP pays checksums only and recovers by re-execution; eager pays a flush per\n\
         store; epoch pays a fence per region; SBRP buffers persists and pays drains.\n\
         Recovery (ns) sums per-block re-execution serially — an upper bound.)"
    );

    if args.json {
        println!("{}", serde_json::to_string_pretty(&json_rows).unwrap());
    }
    Ok(())
}
