//! E15 — sanitizer overhead and access census.
//!
//! The sanitizer's contract has two halves: the *simulated* machine must
//! not notice it (a sanitized launch returns bit-identical `LaunchStats`
//! to a plain one — asserted here per kernel), and the *host* cost of
//! observation must stay a small constant factor (measured here as
//! wall-clock plain vs. sanitized). The per-kernel access counts put that
//! factor in context: the observer fires once per access, so host overhead
//! scales with the access volume, not with kernel complexity.

use crate::{geometric_mean, Args, Failure, Table};
use gpu_lp::LpConfig;
use lp_kernels::{stage, test_world, WORKLOAD_NAMES};
use lp_sanitizer::sanitize_launch_exempt;
use std::time::Instant;

pub(crate) fn run(args: &Args) -> Result<(), Failure> {
    let subjects = args.workloads(&WORKLOAD_NAMES, &WORKLOAD_NAMES)?;

    println!("# E15: sanitizer overhead — plain vs. observed launches\n");
    let mut table = Table::new(&[
        "Workload",
        "Accesses",
        "Shared",
        "Loads",
        "Stores",
        "Atomics",
        "Findings",
        "Plain (ms)",
        "Sanitized (ms)",
        "Host overhead",
    ]);
    let mut json_rows = Vec::new();
    let mut overheads = Vec::new();

    for subject in subjects {
        let name = subject.name;
        // Both runs start from an identical state: a fresh instance staged
        // in the small-cache test world.
        let staged = || {
            let (gpu, mut mem) = test_world();
            let mut w = (subject.build)(args.scale, args.seed);
            let rt = stage(w.as_mut(), &gpu, &mut mem, &LpConfig::recommended());
            (gpu, mem, w, rt)
        };

        // Plain run.
        let (gpu, mut mem, w, rt) = staged();
        let kernel = w.kernel(Some(&rt));
        let t0 = Instant::now();
        let plain = gpu.launch(kernel.as_ref(), &mut mem).expect("launch");
        let plain_ms = t0.elapsed().as_secs_f64() * 1e3;

        // Sanitized run.
        let (gpu, mut mem, w, rt) = staged();
        let kernel = w.kernel(Some(&rt));
        let t0 = Instant::now();
        let (observed, report) =
            sanitize_launch_exempt(&gpu, kernel.as_ref(), &mut mem, &rt.table_ranges())
                .expect("sanitized launch");
        let sanitized_ms = t0.elapsed().as_secs_f64() * 1e3;

        assert_eq!(
            plain, observed,
            "{name}: sanitizer observation changed the simulated stats"
        );

        let s = &report.stats;
        let overhead = sanitized_ms / plain_ms.max(1e-9);
        overheads.push(overhead);
        table.row(&[
            name.to_string(),
            s.total_accesses().to_string(),
            s.shared_accesses.to_string(),
            s.global_loads.to_string(),
            s.global_stores.to_string(),
            s.global_atomics.to_string(),
            report.findings.len().to_string(),
            format!("{plain_ms:.1}"),
            format!("{sanitized_ms:.1}"),
            format!("{overhead:.2}x"),
        ]);
        json_rows.push(serde_json::json!({
            "workload": name,
            "accesses": s.total_accesses(),
            "shared": s.shared_accesses,
            "loads": s.global_loads,
            "stores": s.global_stores,
            "atomics": s.global_atomics,
            "findings": report.findings.len(),
            "plain_ms": plain_ms,
            "sanitized_ms": sanitized_ms,
            "host_overhead": overhead,
        }));
        assert!(
            report.is_clean(),
            "{name}: suite kernel must sanitize clean:\n{report}"
        );
    }

    println!("{}", table.to_markdown());
    let gmean = geometric_mean(&overheads);
    println!("\nSimulated stats: bit-identical in every row (asserted).");
    println!("Host wall-clock overhead, geometric mean: {gmean:.2}x");

    if args.json {
        println!("{}", serde_json::to_string_pretty(&json_rows).unwrap());
    }
    Ok(())
}
