//! The other half of LP's trade-off (§II-A): normal execution is nearly
//! free, but *recovery* costs re-execution. This experiment sweeps crash
//! points across a workload's store stream and reports how much work
//! validation finds lost and how long the re-execution takes relative to a
//! clean run — plus the §IV-A checkpoint-interval arithmetic this feeds.

use crate::{Args, Failure, Table};
use gpu_lp::checkpoint::{availability, optimal_checkpoint_interval};
use gpu_lp::{LpConfig, ResilientRecovery};
use lp_kernels::{stage, world, WORKLOAD_NAMES};
use simt::{CrashPlan, DeviceConfig};

pub(crate) fn run(args: &Args) -> Result<(), Failure> {
    let subject = args.workload_or(&WORKLOAD_NAMES, "SPMV")?;
    let name = subject.name;
    // A fresh instance staged on a V100 with a 1024-line cache: natural
    // evictions happen within even small runs, so crash points land
    // between "everything volatile" and "mostly persisted" — the gradient
    // the sweep is about.
    let staged = || {
        let (gpu, mut mem) = world(DeviceConfig::v100(), 1024, 8);
        let mut w = (subject.build)(args.scale, args.seed);
        let rt = stage(w.as_mut(), &gpu, &mut mem, &LpConfig::recommended());
        (gpu, mem, w, rt)
    };

    // A clean run to size the store stream and the baseline time.
    let (gpu, mut mem, w, rt) = staged();
    let kernel = w.kernel(Some(&rt));
    let clean = gpu.launch(kernel.as_ref(), &mut mem).expect("launch");
    let total_stores = clean.nvm.store_ops;
    drop(kernel);

    println!(
        "# Recovery cost vs. crash point — {name} ({} blocks, {} stores, clean run {:.0} ns)\n",
        clean.num_blocks, total_stores, clean.kernel_ns
    );

    let mut table = Table::new(&[
        "Crash point",
        "Regions lost",
        "Re-executed",
        "Recovery (ns)",
        "Recovery / clean run",
    ]);
    let mut json_rows = Vec::new();

    for pct in [0u64, 10, 25, 50, 75, 90, 100] {
        let crash_after = total_stores * pct / 100;
        let (gpu, mut mem, w, rt) = staged();
        let kernel = w.kernel(Some(&rt));
        let outcome = gpu
            .launch_with_plan(
                kernel.as_ref(),
                &mut mem,
                CrashPlan::after_stores(crash_after),
            )
            .unwrap();
        if !outcome.crashed() {
            mem.flush_all();
        }
        let lost = rt.failing_regions(kernel.as_ref(), &mut mem).len();
        let report = ResilientRecovery::new(&gpu).recover(kernel.as_ref(), &rt, &mut mem);
        assert!(
            report.all_durable && w.verify(&mut mem),
            "{name}: recovery failed at {pct}%"
        );
        let recovery_ns = report.reexecution_ns_x1000 as f64 / 1000.0;
        table.row(&[
            format!("{pct}% of stores"),
            lost.to_string(),
            report.reexecutions.to_string(),
            format!("{recovery_ns:.0}"),
            format!("{:.2}x", recovery_ns / clean.kernel_ns),
        ]);
        json_rows.push(serde_json::json!({
            "crash_pct": pct,
            "failed": lost,
            "reexecutions": report.reexecutions,
            "recovery_ns": recovery_ns,
        }));
    }
    println!("{}", table.to_markdown());

    // §IV-A: turn these into a checkpoint-interval recommendation.
    let checkpoint_cost_ns = 50_000.0; // a whole-cache flush at NVM bandwidth
    for mtbf_s in [3600.0f64, 86_400.0] {
        let mtbf_ns = mtbf_s * 1e9;
        let tau = optimal_checkpoint_interval(checkpoint_cost_ns, mtbf_ns);
        let avail = availability(tau, checkpoint_cost_ns, mtbf_ns, clean.kernel_ns);
        println!(
            "MTBF {:>6.0} s: optimal flush interval ≈ {:.1} ms, availability ≈ {:.5}%",
            mtbf_s,
            tau / 1e6,
            avail * 100.0
        );
    }
    println!("\n(Recovery (ns) sums per-block re-execution serially — a worst-case upper bound.");
    println!(" A real recovery kernel re-runs failed blocks in parallel across all SMs, dividing");
    println!(
        " this by ~{}x; either way the cost is paid only after a crash, while eager",
        gpu.config().num_sms
    );
    println!(" persistency pays its overhead on every single run.)");
    if args.json {
        println!("{}", serde_json::to_string_pretty(&json_rows).unwrap());
    }
    Ok(())
}
