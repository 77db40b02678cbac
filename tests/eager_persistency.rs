//! The explicit persistency baselines (eager flush-per-store, strict/epoch,
//! SBRP scoped buffers — all ending in a durable commit token), exercised
//! through the same workloads and recovery machinery as LP. Verifies both
//! their *stronger* durability guarantee and their higher cost — the
//! contrast that motivates the paper. Every test is parameterised over the
//! explicit backends, so the three models are held to the same contract.

use lpgpu::gpu_lp::{BackendKind, LpConfig, LpRuntime, ResilientRecovery};
use lpgpu::lp_kernels::{workload_by_name, Scale};
use lpgpu::nvm::{NvmConfig, PersistMemory};
use lpgpu::simt::{CrashPlan, DeviceConfig, Gpu};

/// The backends that issue persist instructions (everything but LP).
const EXPLICIT_BACKENDS: [BackendKind; 3] =
    [BackendKind::Eager, BackendKind::Epoch, BackendKind::Sbrp];

fn world() -> (Gpu, PersistMemory) {
    let mem = PersistMemory::new(NvmConfig {
        cache_lines: 512,
        associativity: 8,
        ..NvmConfig::default()
    });
    (Gpu::new(DeviceConfig::test_gpu()), mem)
}

#[test]
fn explicit_backends_survive_crash_with_no_recovery_work() {
    // The explicit models' whole point: after the kernel completes, a crash
    // loses nothing — no flush_all, no recovery re-execution. (LP would
    // need the cache to drain first.)
    for backend in EXPLICIT_BACKENDS {
        for name in ["TMM", "SPMV", "HISTO"] {
            let (gpu, mut mem) = world();
            let mut w = workload_by_name(name, Scale::Test, 31).unwrap();
            w.setup(&mut mem);
            let lc = w.launch_config();
            let rt = LpRuntime::setup(
                &mut mem,
                lc.num_blocks(),
                lc.threads_per_block(),
                LpConfig::for_backend(backend),
            );
            let kernel = w.kernel(Some(&rt));
            gpu.launch(kernel.as_ref(), &mut mem).unwrap();
            // Power loss immediately after the kernel, no flush.
            mem.crash();
            let failed = rt.failing_regions(kernel.as_ref(), &mut mem);
            assert!(
                failed.is_empty(),
                "{name}/{backend}: committed regions must already be durable, lost {failed:?}"
            );
            assert!(
                w.verify(&mut mem),
                "{name}/{backend}: output lost despite explicit persistency"
            );
        }
    }
}

#[test]
fn lazy_mode_does_lose_data_without_flush_in_the_same_scenario() {
    // Control for the test above: under LP with a small cache, a crash
    // right after the kernel *does* lose volatile regions — that is why LP
    // needs validation + recovery at all.
    let (gpu, mut mem) = world();
    let mut w = workload_by_name("TMM", Scale::Test, 31).unwrap();
    w.setup(&mut mem);
    let lc = w.launch_config();
    let rt = LpRuntime::setup(
        &mut mem,
        lc.num_blocks(),
        lc.threads_per_block(),
        LpConfig::recommended(),
    );
    let kernel = w.kernel(Some(&rt));
    gpu.launch(kernel.as_ref(), &mut mem).unwrap();
    mem.crash();
    let failed = rt.failing_regions(kernel.as_ref(), &mut mem);
    assert!(
        !failed.is_empty(),
        "with a small cache, an unflushed LP run must have volatile regions"
    );
    // And recovery repairs them.
    let report = ResilientRecovery::new(&gpu).recover(kernel.as_ref(), &rt, &mut mem);
    assert!(report.all_durable);
    assert!(w.verify(&mut mem));
}

#[test]
fn explicit_backends_recover_from_mid_kernel_crash() {
    for backend in EXPLICIT_BACKENDS {
        let (gpu, mut mem) = world();
        let mut w = workload_by_name("SPMV", Scale::Test, 32).unwrap();
        w.setup(&mut mem);
        let lc = w.launch_config();
        let rt = LpRuntime::setup(
            &mut mem,
            lc.num_blocks(),
            lc.threads_per_block(),
            LpConfig::for_backend(backend),
        );
        let kernel = w.kernel(Some(&rt));
        let outcome = gpu
            .launch_with_plan(kernel.as_ref(), &mut mem, CrashPlan::after_stores(300))
            .unwrap();
        assert!(outcome.crashed());
        let lost = rt.failing_regions(kernel.as_ref(), &mut mem).len() as u64;
        let report = ResilientRecovery::new(&gpu).recover(kernel.as_ref(), &rt, &mut mem);
        assert!(report.all_durable, "{backend}: {report:?}");
        assert!(
            lost < report.regions,
            "{backend}: committed regions must not re-execute"
        );
        assert!(w.verify(&mut mem), "{backend}: wrong output after recovery");
    }
}

#[test]
fn every_explicit_backend_is_slower_than_lazy() {
    // The paper's Table-zero claim, extended across the model spectrum:
    // every explicit discipline pays for its persists/fences/drains at run
    // time; LP does not.
    for name in ["SPMV", "TMM"] {
        let lazy =
            lp_bench::measure_workload(name, Scale::Test, 33, &LpConfig::recommended(), false);
        for backend in EXPLICIT_BACKENDS {
            let explicit = lp_bench::measure_workload(
                name,
                Scale::Test,
                33,
                &LpConfig::for_backend(backend),
                false,
            );
            assert!(
                explicit.slowdown > lazy.slowdown,
                "{name}: {backend} ({}) must cost more than lazy ({})",
                explicit.slowdown,
                lazy.slowdown
            );
        }
    }
}

#[test]
fn backend_modes_are_wired() {
    assert_eq!(LpConfig::eager().backend, BackendKind::Eager);
    assert_eq!(LpConfig::epoch().backend, BackendKind::Epoch);
    assert_eq!(LpConfig::sbrp().backend, BackendKind::Sbrp);
    assert_eq!(LpConfig::recommended().backend, BackendKind::LpChecksum);
    for backend in BackendKind::ALL {
        assert_eq!(LpConfig::for_backend(backend).backend, backend);
    }
}
