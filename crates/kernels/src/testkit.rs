//! Reusable end-to-end checks shared by every workload's test module and
//! the integration tests: correctness of the baseline, correctness under LP
//! instrumentation, and the full crash → validate → recover → verify loop.

use crate::workload::Workload;
use gpu_lp::{LpConfig, LpRuntime, ResilientRecovery};
use nvm::{NvmConfig, PersistMemory};
use simt::{CrashPlan, DeviceConfig, Gpu};

/// A small device + small cache world: evictions (natural persistence)
/// happen early and often, which is the regime LP cares about.
pub fn world() -> (Gpu, PersistMemory) {
    let mem = PersistMemory::new(NvmConfig {
        cache_lines: 512,
        associativity: 8,
        ..NvmConfig::default()
    });
    (Gpu::new(DeviceConfig::test_gpu()), mem)
}

/// Launches the uninstrumented kernel and checks the output against the CPU
/// reference.
pub fn assert_baseline_correct(w: &mut dyn Workload) {
    let (gpu, mut mem) = world();
    w.setup(&mut mem);
    let kernel = w.kernel(None);
    gpu.launch(kernel.as_ref(), &mut mem)
        .expect("launch failed");
    assert!(
        w.verify(&mut mem),
        "{}: baseline output wrong",
        w.info().name
    );
}

/// Launches the LP-instrumented kernel (recommended config) and checks both
/// the output and that every region validates.
pub fn assert_lp_correct(w: &mut dyn Workload) {
    let (gpu, mut mem) = world();
    w.setup(&mut mem);
    let lc = w.launch_config();
    let rt = LpRuntime::setup(
        &mut mem,
        lc.num_blocks(),
        lc.threads_per_block(),
        LpConfig::recommended(),
    );
    let kernel = w.kernel(Some(&rt));
    gpu.launch(kernel.as_ref(), &mut mem)
        .expect("launch failed");
    assert!(w.verify(&mut mem), "{}: LP output wrong", w.info().name);
}

/// A clean (crash-free) LP run must validate with zero failed regions after
/// a flush.
pub fn assert_clean_validation(w: &mut dyn Workload) {
    let (gpu, mut mem) = world();
    w.setup(&mut mem);
    let lc = w.launch_config();
    let rt = LpRuntime::setup(
        &mut mem,
        lc.num_blocks(),
        lc.threads_per_block(),
        LpConfig::recommended(),
    );
    let kernel = w.kernel(Some(&rt));
    gpu.launch(kernel.as_ref(), &mut mem)
        .expect("launch failed");
    mem.flush_all();
    let failed = rt.failing_regions(kernel.as_ref(), &mut mem);
    assert!(
        failed.is_empty(),
        "{}: clean run failed validation for blocks {failed:?}",
        w.info().name
    );
}

/// The headline property: crash mid-kernel, recover, end with the exact
/// crash-free output.
pub fn assert_crash_recovery(w: &mut dyn Workload, crash_after_stores: u64) {
    let (gpu, mut mem) = world();
    w.setup(&mut mem);
    let lc = w.launch_config();
    let rt = LpRuntime::setup(
        &mut mem,
        lc.num_blocks(),
        lc.threads_per_block(),
        LpConfig::recommended(),
    );
    let kernel = w.kernel(Some(&rt));
    let outcome = gpu
        .launch_with_plan(
            kernel.as_ref(),
            &mut mem,
            CrashPlan::after_stores(crash_after_stores),
        )
        .expect("launch failed");
    if !outcome.crashed() {
        // Crash point beyond the kernel: nothing to recover, output must
        // already be right.
        assert!(w.verify(&mut mem), "{}: completed run wrong", w.info().name);
        return;
    }
    let report = ResilientRecovery::new(&gpu).recover(kernel.as_ref(), &rt, &mut mem);
    assert!(
        report.all_durable,
        "{}: recovery did not converge: {report:?}",
        w.info().name
    );
    assert!(
        w.verify(&mut mem),
        "{}: output wrong after recovery ({} re-executions)",
        w.info().name,
        report.reexecutions
    );
}
