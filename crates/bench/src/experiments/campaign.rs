//! E14 — the systematic crash-injection campaign.
//!
//! Sweeps `{workload} × {LP config} × {backend} × {seed} × {crash site}` with the
//! `lp-fault` engine: every trial crashes a simulated machine at one
//! taxonomy site, recovers, and is judged by three oracles (output
//! correctness, no phantom validation failures, no false negatives). The
//! trials of one `(workload, config, backend, seed)` cell fork off one
//! shared execution, each with the result a from-scratch replay of its
//! `TrialId` gives.
//! Failures are shrunk to minimal reproducers. `--sabotage` swaps in the
//! deliberately-broken `broken-skip-recovery` config to demonstrate the
//! campaign catching (and shrinking) a real persistency bug.
//!
//! Its knobs (budget, threads, sabotage, …) are the `Flags::Campaign`
//! surface of `crate::cli`.

use crate::{Args, Failure};
use gpu_lp::BackendKind;
use lp_fault::{
    representative_trial, run_campaign, sanitize_sweep, CampaignReport, CampaignSpec, CrashSite,
    TrialId, SABOTAGE_CONFIG,
};
use lp_kernels::SUBJECT_NAMES;
use std::collections::{BTreeMap, BTreeSet};
use std::io::Write;

fn print_report(report: &CampaignReport) {
    println!(
        "\n{} trials, {} crashed, {} passed, {} loss-oracle skips, {} failures",
        report.trials,
        report.crashed,
        report.passed,
        report.oracle_skips,
        report.failures.len()
    );
    if report.timed_out > 0 {
        println!(
            "{} trial(s) abandoned by the per-trial watchdog (TimedOut)",
            report.timed_out
        );
    }
    if report.pruned_trials > 0 {
        println!(
            "{} trials statically pruned (each replaced by a proven-equivalent site)",
            report.pruned_trials
        );
    }
    if let Some(p) = &report.restoration_latency {
        println!(
            "restoration latency over {} crashed trials (model ns): \
             p50 {} / p95 {} / p99 {} / max {}",
            p.samples, p.p50, p.p95, p.p99, p.max
        );
    }
    println!(
        "\n{:<24} {:>7} {:>8} {:>7}",
        "site", "trials", "crashed", "failed"
    );
    for t in &report.by_site {
        println!(
            "{:<24} {:>7} {:>8} {:>7}",
            t.label, t.trials, t.crashed, t.failed
        );
    }
    println!(
        "\n{:<24} {:>7} {:>8} {:>7}",
        "workload", "trials", "crashed", "failed"
    );
    for t in &report.by_workload {
        println!(
            "{:<24} {:>7} {:>8} {:>7}",
            t.label, t.trials, t.crashed, t.failed
        );
    }
    for f in &report.failures {
        println!("\nFAILURE {}", f.result.id.label());
        println!("  detail: {}", f.result.detail);
        if let Some(s) = &f.shrunk {
            println!(
                "  shrunk to {} ({} simplifications in {} attempts)",
                s.minimal.label(),
                s.accepted,
                s.attempts
            );
        }
    }
}

/// CI gate for the static pruner: run the same sampled sweep twice — once
/// unpruned, once pruned — and demand the failure verdicts agree. A pruned
/// site may only ever fail if its statically-chosen representative fails
/// too, so the unpruned run's failures, with every pruned site mapped to
/// its representative, must equal the pruned run's failures exactly.
fn prune_smoke(args: &Args, workload: Option<&str>) -> Result<(), Failure> {
    let mut spec = CampaignSpec::default_sweep(args.scale);
    spec.threads = args.threads;
    // A deliberately small sample: one config, one seed, two workloads
    // whose launch geometries exercise every prune family (policy-switch,
    // checkpoint-at-zero, and block-boundary collapse at 16 and 2 blocks).
    spec.configs = vec!["recommended".to_string()];
    spec.seeds = vec![1];
    spec.workloads = match workload {
        Some(w) => vec![w.to_string()],
        None => vec!["SPMV".to_string(), "MEGAKV-DELETE".to_string()],
    };

    spec.prune = false;
    let full = run_campaign(&spec, |_, _| {});
    spec.prune = true;
    let pruned = run_campaign(&spec, |_, _| {});

    eprintln!(
        "# prune-smoke: {} unpruned trials, {} pruned run trials, {} sites pruned",
        full.trials, pruned.trials, pruned.pruned_trials
    );
    let mut bad = 0usize;
    if pruned.pruned_trials == 0 {
        eprintln!("prune-smoke: sample pruned nothing — the smoke test is vacuous");
        bad += 1;
    }
    // The footprint family must be exercised, not just the contract and
    // geometry families: SPMV's store-footprint certificate collapses its
    // block-boundary sites, so a default sample with zero
    // footprint-justified decisions means the family silently regressed.
    // (The representative-verdict comparison below then covers those
    // decisions like any other: a footprint-pruned site that fails in the
    // unpruned run must map to a failing representative.)
    if workload.is_none() {
        let fp = pruned
            .pruned
            .iter()
            .filter(|r| r.decision.why.contains("footprint"))
            .count();
        if fp == 0 {
            eprintln!("prune-smoke: no footprint-certified decision in the default sample");
            bad += 1;
        } else {
            eprintln!("# prune-smoke: {fp} footprint-certified prune decisions in sample");
        }
    }
    if pruned.trials + pruned.pruned_trials != full.trials {
        eprintln!(
            "prune-smoke: trial accounting broken: {} kept + {} pruned != {} full",
            pruned.trials, pruned.pruned_trials, full.trials
        );
        bad += 1;
    }

    // Map each dropped trial to the representative the pruner kept.
    let mut rep_of: BTreeMap<String, String> = BTreeMap::new();
    for rec in &pruned.pruned {
        let dropped = TrialId {
            workload: rec.workload.clone(),
            config: rec.config.clone(),
            backend: rec.backend,
            seed: rec.seed,
            site: rec.decision.site,
        };
        let rep = representative_trial(&dropped, &rec.decision);
        rep_of.insert(dropped.label(), rep.label());
    }

    let full_failures: BTreeSet<String> = full
        .failures
        .iter()
        .map(|f| {
            let label = f.result.id.label();
            rep_of.get(&label).cloned().unwrap_or(label)
        })
        .collect();
    let pruned_failures: BTreeSet<String> = pruned
        .failures
        .iter()
        .map(|f| f.result.id.label())
        .collect();
    for only_full in full_failures.difference(&pruned_failures) {
        eprintln!("prune-smoke: fails unpruned but not pruned: {only_full}");
        bad += 1;
    }
    for only_pruned in pruned_failures.difference(&full_failures) {
        eprintln!("prune-smoke: fails pruned but not unpruned: {only_pruned}");
        bad += 1;
    }

    if bad == 0 {
        println!(
            "prune-smoke OK: {} trials pruned, failure verdicts identical ({} failures)",
            pruned.pruned_trials,
            pruned_failures.len()
        );
        return Ok(());
    }
    eprintln!("prune-smoke FAILED: {bad} disagreement(s)");
    Err(Failure::Gate)
}

pub(crate) fn run(args: &Args) -> Result<(), Failure> {
    let workload = args.workload_in(&SUBJECT_NAMES)?.map(|s| s.name);
    if args.prune_smoke {
        return prune_smoke(args, workload);
    }
    let mut spec = CampaignSpec::default_sweep(args.scale);
    spec.budget = args.budget;
    spec.threads = args.threads;
    spec.prune = args.prune;
    spec.trial_timeout_ms = args.trial_timeout_ms;
    if let Some(w) = workload {
        spec.workloads = vec![w.to_string()];
    }
    if args.all_backends {
        // The whole spectrum: the four fixed models plus the adaptive
        // meta-policy over them.
        spec.backends = BackendKind::ALL.to_vec();
        spec.backends.push(BackendKind::Adaptive);
    } else if let Some(backend) = args.backend {
        spec.backends = vec![backend];
    } else {
        // An unknown --backend value hard-errors in the parser; an omitted
        // flag still names the backend the sweep will actually run.
        eprintln!(
            "campaign: --backend not given, defaulting to {}",
            BackendKind::default()
        );
    }
    if args.sabotage {
        spec.configs = vec![SABOTAGE_CONFIG.to_string()];
        // Sabotage demo: sites that reliably lose mid-stream data, so the
        // broken config fails fast and the shrinker has work to do.
        spec.sites = CrashSite::catalog()
            .into_iter()
            .filter(|s| matches!(s, CrashSite::AfterStores { pct } if *pct > 0))
            .collect();
    }

    // The sanitizer sweep is an extra oracle: one crash-free run per
    // (subject, config, seed) under full observation. A kernel that races
    // or leaves a store out of its checksum can pass every crash trial by
    // luck; here it fails deterministically.
    let mut sanitizer_dirty = 0usize;
    if args.sanitize {
        eprintln!(
            "# sanitize: {} workloads x {} configs x {} seeds",
            spec.workloads.len(),
            spec.configs.len(),
            spec.seeds.len()
        );
        let records = sanitize_sweep(&spec.workloads, &spec.configs, &spec.seeds, args.scale);
        // In --json mode stdout carries the JSON document and nothing else,
        // so all sanitizer narration goes to stderr there.
        macro_rules! narrate {
            ($($arg:tt)*) => {
                if args.json {
                    eprintln!($($arg)*);
                } else {
                    println!($($arg)*);
                }
            };
        }
        for r in &records {
            if !r.clean() {
                sanitizer_dirty += 1;
                narrate!(
                    "SANITIZER {}/{}/s{}: {} finding(s)",
                    r.workload,
                    r.config,
                    r.seed,
                    r.report.findings.len()
                );
                if !args.quiet {
                    narrate!("{}", r.report);
                }
            }
        }
        if !args.quiet {
            narrate!(
                "sanitizer: {} runs, {} with findings",
                records.len(),
                sanitizer_dirty
            );
        }
    }

    eprintln!(
        "# campaign: {} workloads x {} configs x {} backends x {} seeds x {} sites{}",
        spec.workloads.len(),
        spec.configs.len(),
        spec.backends.len(),
        spec.seeds.len(),
        spec.sites.len(),
        spec.budget
            .map(|b| format!(", budget {b}"))
            .unwrap_or_default()
    );
    if spec.prune {
        eprintln!("# campaign: static crash-site pruning ON (disable with --no-prune)");
    }
    let quiet = args.quiet;
    let report = run_campaign(&spec, move |done, total| {
        if !quiet && (done % 50 == 0 || done == total) {
            eprint!("\r  {done}/{total} trials");
            let _ = std::io::stderr().flush();
        }
    });
    if !quiet {
        eprintln!();
    }

    if args.json {
        // JSON mode keeps stdout machine-readable: the document and nothing
        // else; the human-readable tables are suppressed.
        println!(
            "{}",
            serde_json::to_string(&report).expect("report serializes")
        );
    } else {
        print_report(&report);
    }
    if args.sabotage {
        // The demo *succeeds* when the broken config is caught.
        if report.all_passed() {
            eprintln!("sabotage demo failed: broken config went undetected");
        } else {
            let shrunk = report
                .failures
                .iter()
                .filter(|f| f.shrunk.is_some())
                .count();
            let caught = format!(
                "\nsabotage caught: {} failures, {shrunk} shrunk reproducers",
                report.failures.len()
            );
            if args.json {
                eprintln!("{caught}");
            } else {
                println!("{caught}");
            }
        }
    }
    if sanitizer_dirty > 0 {
        eprintln!("sanitizer oracle failed: {sanitizer_dirty} run(s) with findings");
    }
    // All gating in one place so --json cannot bypass a failure exit.
    match report.exit_code(args.sabotage, sanitizer_dirty) {
        0 => Ok(()),
        _ => Err(Failure::Gate),
    }
}
