//! The explicit persistency baselines (eager flush-per-store, strict/epoch,
//! SBRP scoped buffers — all ending in a durable commit token), exercised
//! through the same workloads and recovery machinery as LP. Verifies both
//! their *stronger* durability guarantee and their higher cost — the
//! contrast that motivates the paper. Every test is parameterised over the
//! explicit backends, so the three models are held to the same contract.

use lpgpu::gpu_lp::{BackendKind, LpConfig, LpRuntime, ResilientRecovery};
use lpgpu::lp_kernels::{stage, subject, world, Scale, Workload};
use lpgpu::nvm::PersistMemory;
use lpgpu::simt::{CrashPlan, DeviceConfig, Gpu};

/// The backends that issue persist instructions (everything but LP).
const EXPLICIT_BACKENDS: [BackendKind; 3] =
    [BackendKind::Eager, BackendKind::Epoch, BackendKind::Sbrp];

/// `name` at test scale, staged under `config` on the test GPU with a
/// 512-line cache.
fn staged(
    name: &str,
    seed: u64,
    config: &LpConfig,
) -> (Gpu, PersistMemory, Box<dyn Workload>, LpRuntime) {
    let (gpu, mut mem) = world(DeviceConfig::test_gpu(), 512, 8);
    let mut w = (subject(name).expect("a suite name").build)(Scale::Test, seed);
    let rt = stage(w.as_mut(), &gpu, &mut mem, config);
    (gpu, mem, w, rt)
}

#[test]
fn explicit_backends_survive_crash_with_no_recovery_work() {
    // The explicit models' whole point: after the kernel completes, a crash
    // loses nothing — no flush_all, no recovery re-execution. (LP would
    // need the cache to drain first.)
    for backend in EXPLICIT_BACKENDS {
        for name in ["TMM", "SPMV", "HISTO"] {
            let (gpu, mut mem, w, rt) = staged(name, 31, &LpConfig::for_backend(backend));
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
    let (gpu, mut mem, w, rt) = staged("TMM", 31, &LpConfig::recommended());
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
        let (gpu, mut mem, w, rt) = staged("SPMV", 32, &LpConfig::for_backend(backend));
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
        let measure = |config: &LpConfig| {
            let subject = subject(name).expect("a suite name");
            lpgpu::lp_bench::measure_workload(subject, Scale::Test, 33, config, false)
        };
        let lazy = measure(&LpConfig::recommended());
        for backend in EXPLICIT_BACKENDS {
            let explicit = measure(&LpConfig::for_backend(backend));
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
