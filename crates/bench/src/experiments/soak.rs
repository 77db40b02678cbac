//! E21 — recoverable-services chaos soak with restoration-latency SLOs.
//!
//! Drives the three `lp-apps` services (durable queue, checkpointed
//! training loop, MEGA-KV transactions) through consecutive
//! crash→recover→resume cycles on a faulty NVM device, sweeping apps ×
//! persistency backends × device-fault rates. Every cell is one
//! seed-deterministic `lp-fault` soak: crashes land at step boundaries,
//! mid-launch, and inside commit drains — and on a third of the cycles a
//! second power cut interrupts the recovery itself. The table reports
//! committed progress and the restoration-latency distribution
//! (crash → back-serving, modelled ns) next to a verdict per cell:
//!
//! * `clean`     — every requested cycle passed every oracle (zero data
//!   loss, zero silent corruption, strictly monotone progress);
//! * `waived@N`  — a token-based backend (no checksum validation) lost
//!   data at cycle N because the device *claimed success while tearing a
//!   write-back*. That blindness is contractual — it is the paper's
//!   argument for LP — so the cell stops there and is recorded, not
//!   failed (mirrors the campaign's O4 waiver);
//! * `FAILED`    — data loss or corruption the backend's contract cannot
//!   explain. Gates the exit code.

use crate::{Args, Failure, Table};
use gpu_lp::BackendKind;
use lp_apps::AppKind;
use lp_fault::{run_soak, SoakReport, SoakSpec};
use lp_kernels::Scale;

/// The backend spectrum a full soak sweeps (fixed models + adaptive).
const BACKENDS: [BackendKind; 5] = [
    BackendKind::LpChecksum,
    BackendKind::Eager,
    BackendKind::Epoch,
    BackendKind::Sbrp,
    BackendKind::Adaptive,
];

/// `(cycles, steps/cycle, width, fault rates)` per scale. Test scale is
/// the CI smoke bound (each app, ≥ 5 cycles, nonzero fault rate); bench
/// scale is the endurance claim (≥ 100 consecutive cycles per app under
/// active faults).
fn scale_plan(scale: Scale) -> (u64, u64, u64, &'static [u32]) {
    match scale {
        Scale::Test => (6, 3, 48, &[200]),
        Scale::Bench => (100, 3, 96, &[0, 200]),
        Scale::Paper => (250, 4, 96, &[0, 200, 800]),
    }
}

fn verdict(report: &SoakReport) -> String {
    match (report.passed, report.waived_cycle) {
        (true, None) => "clean".to_string(),
        (true, Some(n)) => format!("waived@{n}"),
        _ => "FAILED".to_string(),
    }
}

pub(crate) fn run(args: &Args) -> Result<(), Failure> {
    let (cycles, steps, width, rates) = scale_plan(args.scale);

    let apps: Vec<AppKind> = match args.workload.as_deref() {
        Some(w) => vec![w.parse().map_err(Failure::Usage)?],
        None => AppKind::ALL.to_vec(),
    };
    let backends: Vec<BackendKind> = match args.backend {
        Some(b) => vec![b],
        None => BACKENDS.to_vec(),
    };

    // In --json mode stdout must carry the JSON document and nothing
    // else (it is redirected straight into the CI artifact), so the
    // human-facing preamble follows the table to stderr.
    let narrate = |line: &str| {
        if args.json {
            eprintln!("{line}");
        } else {
            println!("{line}");
        }
    };
    narrate(&format!(
        "# Chaos soak — {} crash→recover→resume cycles per cell (seed {}, width {})\n",
        cycles, args.seed, width
    ));
    narrate("Restoration latency is modelled ns from power-on to fully-durable serving");
    narrate("state (reboot + re-entrant validate/repair + roll-forward), per cycle.\n");

    let mut table = Table::new(&[
        "App",
        "Backend",
        "Faults (bp)",
        "Cycles",
        "Steps",
        "Restore p50",
        "p95",
        "p99",
        "max (ns)",
        "Verdict",
    ]);
    let mut reports = Vec::new();
    let mut hard_failures = 0usize;

    for app in &apps {
        for backend in &backends {
            for &fault_bp in rates {
                let spec = SoakSpec {
                    app: *app,
                    backend: *backend,
                    seed: args.seed,
                    cycles,
                    max_steps_per_cycle: steps,
                    fault_bp,
                    width,
                };
                eprint!("\r  running {:<40}", spec.label());
                let report = run_soak(&spec);
                let (p50, p95, p99, max) = report
                    .restoration_latency
                    .as_ref()
                    .map_or((0, 0, 0, 0), |p| (p.p50, p.p95, p.p99, p.max));
                table.row(&[
                    app.to_string(),
                    backend.to_string(),
                    fault_bp.to_string(),
                    format!("{}/{}", report.cycles.len(), cycles),
                    report.total_steps.to_string(),
                    p50.to_string(),
                    p95.to_string(),
                    p99.to_string(),
                    max.to_string(),
                    verdict(&report),
                ]);
                if !report.passed {
                    hard_failures += 1;
                    for c in report.failures() {
                        eprintln!(
                            "\nFAIL {} cycle {}: {:?}",
                            spec.label(),
                            c.cycle,
                            c.violations
                        );
                    }
                }
                reports.push(report);
            }
        }
    }
    eprintln!("\r{:<50}", "");

    // In --json mode stdout carries the JSON document and nothing else (the
    // CI artifact); the table moves to stderr.
    if args.json {
        eprintln!("{}", table.to_markdown());
        println!(
            "{}",
            serde_json::to_string(&reports).expect("reports serialize")
        );
    } else {
        println!("{}", table.to_markdown());
        println!("\n(`waived@N`: a token-based backend lost data because the device ACKed a");
        println!(" torn write-back — undetectable without content checksums, by contract.");
        println!(" LP and adaptive must read `clean` at every fault rate.)");
    }
    if hard_failures > 0 {
        eprintln!("E21 FAILED: {hard_failures} soak cell(s) with unwaived data loss");
        return Err(Failure::Gate);
    }
    Ok(())
}
