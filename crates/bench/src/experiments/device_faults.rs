//! E16 — recovery effort and latency on a faulty NVM device.
//!
//! Sweeps the three device-fault classes (torn write-backs, transient
//! persist failures + stuck lines, ECC-detected media errors) across fault
//! rates for TMM, SPMV, and MEGA-KV inserts. Every cell runs one full
//! `lp-fault` trial: launch under the fault model, lose power before any
//! checkpoint, then recover with the resilient multi-round engine. The
//! table reports how many rounds, re-executions, and quarantines the
//! device cost, the modelled recovery latency, and the O4 verdict —
//! recovery must restore correct data or honestly report its losses,
//! never corrupt silently.

use crate::{Args, Failure, Table};
use gpu_lp::BackendKind;
use lp_fault::{run_trial, CrashSite, TrialId};

const WORKLOADS: [&str; 3] = ["TMM", "SPMV", "MEGAKV-INSERT"];
const RATES_BP: [u32; 4] = [0, 50, 200, 800];

fn class_sites(bp: u32) -> [(&'static str, CrashSite); 3] {
    [
        ("torn-writeback", CrashSite::TornWriteback { bp }),
        ("transient-persist", CrashSite::TransientPersist { bp }),
        ("media-ecc", CrashSite::MediaBitErrors { bp }),
    ]
}

pub(crate) fn run(args: &Args) -> Result<(), Failure> {
    let workloads: Vec<&str> = args
        .workloads(&WORKLOADS, &WORKLOADS)?
        .iter()
        .map(|s| s.name)
        .collect();

    // An unknown `--backend` value already hard-errors in the parser; when
    // the flag is omitted entirely, say which backend was chosen rather
    // than silently running the default.
    let backend = args.backend.unwrap_or_else(|| {
        let chosen = BackendKind::default();
        eprintln!("device_faults: --backend not given, defaulting to {chosen}");
        chosen
    });

    println!(
        "# Device-fault resilience — recovery effort vs. fault rate (seed {}, backend {backend})\n",
        args.seed
    );
    println!("Rates are basis points: faults per 10,000 device operations. 0 bp is the");
    println!("perfect-device baseline (the crash still fires; only the device is clean).\n");

    let mut table = Table::new(&[
        "Workload",
        "Fault class",
        "Rate (bp)",
        "Rounds",
        "Re-execs",
        "Degraded",
        "Quarantined",
        "Recovery (ns)",
        "Verdict",
    ]);
    let mut json_rows = Vec::new();
    let mut silent_corruptions = 0u64;

    for workload in &workloads {
        for bp in RATES_BP {
            for (class, site) in class_sites(bp) {
                let id = TrialId {
                    workload: workload.to_string(),
                    config: "recommended".to_string(),
                    backend,
                    seed: args.seed,
                    site,
                };
                let r = run_trial(&id, args.scale);
                let verdict = match r.o4_no_silent_corruption {
                    Some(true) if r.o1_output => "recovered",
                    Some(true) => "honest-loss",
                    _ => {
                        silent_corruptions += 1;
                        "SILENT-CORRUPTION"
                    }
                };
                table.row(&[
                    workload.to_string(),
                    class.to_string(),
                    bp.to_string(),
                    r.recovery_rounds.to_string(),
                    r.reexecutions.to_string(),
                    r.degraded_reexecutions.to_string(),
                    r.quarantined_lines.to_string(),
                    r.recovery_ns.to_string(),
                    verdict.to_string(),
                ]);
                json_rows.push(serde_json::json!({
                    "workload": workload,
                    "backend": backend.name(),
                    "class": class,
                    "bp": bp,
                    "rounds": r.recovery_rounds,
                    "reexecutions": r.reexecutions,
                    "degraded_reexecutions": r.degraded_reexecutions,
                    "quarantined_lines": r.quarantined_lines,
                    "recovery_ns": r.recovery_ns,
                    "o1_output": r.o1_output,
                    "o4_no_silent_corruption": r.o4_no_silent_corruption,
                }));
            }
        }
    }
    println!("{}", table.to_markdown());
    println!("\n(Rounds/re-execs grow with the fault rate while the verdict column stays");
    println!(" honest: the resilient engine retries, quarantines, and degrades rather");
    println!(" than trusting a device that lies about persistence.)");
    if args.json {
        println!("{}", serde_json::to_string_pretty(&json_rows).unwrap());
    }
    if silent_corruptions > 0 {
        eprintln!("E16 FAILED: {silent_corruptions} silent corruption(s)");
        return Err(Failure::Gate);
    }
    Ok(())
}
