//! Crash-recovery sweep over the whole benchmark suite: for each workload,
//! crash at several points of the kernel's store stream, recover, and
//! verify that the output equals the crash-free result.
//!
//! This is the paper's core *correctness* claim exercised as a campaign:
//! Lazy Persistency recovers any thread block whose stores (or checksum)
//! did not fully persist, and only those.
//!
//! Run with: `cargo run --release --example crash_recovery_sweep`

use lpgpu::gpu_lp::{LpConfig, ResilientRecovery};
use lpgpu::lp_kernels::{all_workloads, stage, world, Scale, WORKLOAD_NAMES};
use lpgpu::simt::{CrashPlan, DeviceConfig};

fn main() {
    let crash_points = [0u64, 50, 500, 5_000, 50_000];
    let mut total_reexec = 0u64;
    let mut total_regions = 0u64;

    for point in crash_points {
        println!("== crash after {point} global stores ==");
        for (name, mut w) in WORKLOAD_NAMES
            .into_iter()
            .zip(all_workloads(Scale::Test, 7))
        {
            let (gpu, mut mem) = world(DeviceConfig::test_gpu(), 256, 8);
            let rt = stage(w.as_mut(), &gpu, &mut mem, &LpConfig::recommended());
            let kernel = w.kernel(Some(&rt));

            let outcome = gpu
                .launch_with_plan(kernel.as_ref(), &mut mem, CrashPlan::after_stores(point))
                .expect("launch");
            if !outcome.crashed() {
                mem.flush_all();
            }
            let lost = rt.failing_regions(kernel.as_ref(), &mut mem).len();
            let report = ResilientRecovery::new(&gpu).recover(kernel.as_ref(), &rt, &mut mem);
            assert!(report.all_durable, "{name}: recovery diverged");
            assert!(w.verify(&mut mem), "{name}: wrong output after recovery");
            println!(
                "  {name:<13} crashed={:<5} regions={:<5} failed@first={:<5} re-executed={}",
                outcome.crashed(),
                report.regions,
                lost,
                report.reexecutions
            );
            total_reexec += report.reexecutions;
            total_regions += report.regions;
        }
    }
    println!("\nsweep complete: {total_regions} regions checked, {total_reexec} re-executions, all outputs verified");
}
