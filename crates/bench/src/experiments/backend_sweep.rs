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

use crate::measure::measure_megakv;
use crate::{fmt_overhead, geometric_mean, measure_configs, Args, Failure, Table};
use gpu_lp::{BackendKind, LpConfig};
use lp_fault::{run_trial, CrashSite, TrialId};
use lp_kernels::WORKLOAD_NAMES;
use megakv::app::OpKind;

/// The MEGA-KV subject name understood by the fault crate's trial runner.
const MEGAKV_SUBJECT: &str = "MEGAKV-INSERT";

pub(crate) fn run(args: &Args) -> Result<(), Failure> {
    let backends: Vec<BackendKind> = match args.backend {
        Some(b) => vec![b],
        None => BackendKind::ALL.to_vec(),
    };
    let all_subjects: Vec<&str> = [&WORKLOAD_NAMES[..], &[MEGAKV_SUBJECT]].concat();
    let subjects = match args.workload_in(&all_subjects)? {
        Some(w) => vec![w],
        None => all_subjects,
    };
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

    for &name in &subjects {
        // Run-time overhead per backend: (baseline ns, run ns, overhead).
        let costs: Vec<(f64, f64, f64)> = if name == MEGAKV_SUBJECT {
            configs
                .iter()
                .map(|c| measure_megakv(args.scale, args.seed, OpKind::Insert, c))
                .collect()
        } else {
            measure_configs(name, args.scale, args.seed, false, &configs)
                .iter()
                .map(|m| (m.baseline.kernel_ns, m.lp.kernel_ns, m.overhead))
                .collect()
        };
        for (&backend, (base_ns, run_ns, overhead)) in backends.iter().zip(costs) {
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
