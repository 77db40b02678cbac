//! Checkpoint-interval planning (§IV-A): LP bounds recovery work by
//! combining checksums with periodic whole-cache flushes. This example
//! runs a multi-launch "long-running application" that flushes the cache
//! every third launch, crashes it between launches, and shows that
//! validation only ever finds damage inside the checkpoint horizon — then
//! prints the Young-interval/availability arithmetic for picking the flush
//! period.
//!
//! Run with: `cargo run --release --example checkpoint_policy`

use lpgpu::gpu_lp::checkpoint::{availability, optimal_checkpoint_interval};
use lpgpu::gpu_lp::{LpConfig, ResilientRecovery};
use lpgpu::lp_kernels::{stage, workload_by_name, world, Scale};
use lpgpu::simt::DeviceConfig;

/// Launches between two whole-cache flushes.
const INTERVAL: u32 = 3;

fn main() {
    let (gpu, mut mem) = world(DeviceConfig::test_gpu(), 256, 8);

    // An "iterative application": the same kernel launched repeatedly
    // (fresh output each round), checkpointed every 3 launches.
    let mut w = workload_by_name("SPMV", Scale::Test, 7).unwrap();
    let rt = stage(w.as_mut(), &gpu, &mut mem, &LpConfig::recommended());
    let lc = w.launch_config();

    for round in 1..=7 {
        w.reset_output(&mut mem);
        rt.reset(&mut mem);
        let kernel = w.kernel(Some(&rt));
        gpu.launch(kernel.as_ref(), &mut mem).unwrap();
        // The checkpoint: a whole-cache flush every INTERVAL launches.
        let flushed = round % INTERVAL == 0;
        if flushed {
            mem.flush_all();
        }
        println!(
            "round {round}: checkpointed = {flushed:<5} horizon = {} launch(es) of exposure",
            round % INTERVAL
        );
    }

    // Power loss now. Only state newer than the last checkpoint can be
    // damaged; validation + recovery repair exactly that.
    mem.crash();
    let kernel = w.kernel(Some(&rt));
    let engine = ResilientRecovery::new(&gpu);
    let failed = rt.failing_regions(kernel.as_ref(), &mut mem);
    println!(
        "\ncrash after round 7 (1 launch past the last checkpoint): {} of {} regions need recovery",
        failed.len(),
        lc.num_blocks()
    );
    let report = engine.recover(kernel.as_ref(), &rt, &mut mem);
    assert!(report.all_durable && w.verify(&mut mem));
    println!(
        "recovered with {} re-executions; output verified\n",
        report.reexecutions
    );

    // The §IV-A sizing question: how often should a deployment flush?
    println!("checkpoint-interval planning (flush cost 50 us):");
    for (label, mtbf_s) in [
        ("flaky node, MTBF 1 h", 3_600.0f64),
        ("healthy node, MTBF 30 d", 2_592_000.0),
    ] {
        let delta_ns = 50_000.0;
        let mtbf_ns = mtbf_s * 1e9;
        let tau = optimal_checkpoint_interval(delta_ns, mtbf_ns);
        let avail = availability(tau, delta_ns, mtbf_ns, 1e6);
        println!(
            "  {label:<24} -> flush every {:>8.1} ms, availability {:.5}%",
            tau / 1e6,
            avail * 100.0
        );
    }
}
