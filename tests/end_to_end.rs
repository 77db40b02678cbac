//! End-to-end integration tests spanning every crate: the full benchmark
//! suite run under every LP design point, with crash injection and
//! recovery, verified against CPU references.

use lpgpu::gpu_lp::{AtomicPolicy, LockPolicy, LpConfig, ReduceStrategy, ResilientRecovery};
use lpgpu::lp_bench::Measurement;
use lpgpu::lp_kernels::{stage, subject, workload_by_name, world, Scale, WORKLOAD_NAMES};
use lpgpu::nvm::NvmConfig;
use lpgpu::simt::{CrashPlan, DeviceConfig};

/// Runs subject `name` at test scale under `config`, crashing after
/// `crash_after` stores if given, and checks the recovered output.
fn run_config(name: &str, seed: u64, config: LpConfig, crash_after: Option<u64>) {
    let mut w = workload_by_name(name, Scale::Test, seed).unwrap();
    let (gpu, mut mem) = world(DeviceConfig::test_gpu(), 512, 8);
    let rt = stage(w.as_mut(), &gpu, &mut mem, &config);
    let kernel = w.kernel(Some(&rt));
    match crash_after {
        None => {
            gpu.launch(kernel.as_ref(), &mut mem).expect("launch");
        }
        Some(point) => {
            let outcome = gpu
                .launch_with_plan(kernel.as_ref(), &mut mem, CrashPlan::after_stores(point))
                .expect("launch");
            if !outcome.crashed() {
                mem.flush_all();
            }
            let report = ResilientRecovery::new(&gpu).recover(kernel.as_ref(), &rt, &mut mem);
            assert!(report.all_durable, "{name}: recovery diverged");
        }
    }
    assert!(w.verify(&mut mem), "{name}: output mismatch");
}

#[test]
fn whole_suite_correct_under_recommended_config() {
    for name in WORKLOAD_NAMES {
        run_config(name, 11, LpConfig::recommended(), None);
    }
}

#[test]
fn whole_suite_recovers_from_mid_kernel_crash() {
    for name in WORKLOAD_NAMES {
        run_config(name, 12, LpConfig::recommended(), Some(777));
    }
}

#[test]
fn whole_suite_correct_with_quadratic_probing() {
    for name in WORKLOAD_NAMES {
        run_config(name, 13, LpConfig::quad(), Some(500));
    }
}

#[test]
fn whole_suite_correct_with_cuckoo() {
    for name in WORKLOAD_NAMES {
        run_config(name, 14, LpConfig::cuckoo(), Some(500));
    }
}

#[test]
fn lock_based_config_is_slow_but_correct() {
    run_config(
        "SPMV",
        15,
        LpConfig::quad().with_lock(LockPolicy::GlobalLock),
        Some(300),
    );
}

#[test]
fn racy_config_is_correct_despite_conflicts() {
    // The test GPU runs at most 32 blocks at once, too few to lose a
    // modelled race; the V100 world E3 measures in runs 2 560. There SAD's
    // inserts do lose races, and a clean run must still publish every
    // region's checksums.
    let racy = [LpConfig::quad(), LpConfig::cuckoo()].map(|c| c.with_atomic(AtomicPolicy::Racy));
    for config in racy {
        let cache = NvmConfig::default();
        let (gpu, mut mem) = world(DeviceConfig::v100(), cache.cache_lines, cache.associativity);
        let mut w = workload_by_name("SAD", Scale::Test, 16).unwrap();
        let rt = stage(w.as_mut(), &gpu, &mut mem, &config);
        let kernel = w.kernel(Some(&rt));
        gpu.launch(kernel.as_ref(), &mut mem).expect("launch");
        let stats = rt.table_stats();
        assert!(stats.racy_conflicts > 0, "{:?}: {stats:?}", config.table);
        let failing = rt.failing_regions(kernel.as_ref(), &mut mem);
        assert!(failing.is_empty(), "{:?}: {failing:?}", config.table);
        drop(kernel);
        assert!(w.verify(&mut mem), "SAD: output mismatch");
    }
    for name in ["TMM", "HISTO"] {
        run_config(
            name,
            16,
            LpConfig::quad().with_atomic(AtomicPolicy::Racy),
            Some(400),
        );
        run_config(
            name,
            16,
            LpConfig::cuckoo().with_atomic(AtomicPolicy::Racy),
            Some(400),
        );
    }
}

#[test]
fn sequential_reduction_is_correct() {
    for name in ["SPMV", "MRI-Q"] {
        run_config(
            name,
            17,
            LpConfig::recommended().with_reduce(ReduceStrategy::SequentialMemory),
            Some(600),
        );
    }
}

#[test]
fn crash_at_the_very_first_store_recovers_everything() {
    for name in ["TMM", "SAD"] {
        run_config(name, 18, LpConfig::recommended(), Some(0));
    }
}

#[test]
fn repeated_crash_recover_cycles_converge() {
    // Crash, recover, crash the *recovered* state again (power loss during
    // later work), recover again: state must stay consistent.
    let (gpu, mut mem) = world(DeviceConfig::test_gpu(), 512, 8);
    let mut w = workload_by_name("SPMV", Scale::Test, 19).unwrap();
    let rt = stage(w.as_mut(), &gpu, &mut mem, &LpConfig::recommended());
    let kernel = w.kernel(Some(&rt));
    gpu.launch_with_plan(kernel.as_ref(), &mut mem, CrashPlan::after_stores(200))
        .expect("launch");
    let eng = ResilientRecovery::new(&gpu);
    assert!(eng.recover(kernel.as_ref(), &rt, &mut mem).all_durable);
    // Second power loss after recovery: recovery flushed, so nothing is
    // volatile and validation must already be clean.
    mem.crash();
    assert!(rt.failing_regions(kernel.as_ref(), &mut mem).is_empty());
    assert!(w.verify(&mut mem));
}

/// Baseline-vs-LP measurement of a suite workload at test scale.
fn measure(name: &str, seed: u64, config: &LpConfig, nvm_mode: bool) -> Measurement {
    let subject = subject(name).expect("a suite name");
    lpgpu::lp_bench::measure_workload(subject, Scale::Test, seed, config, nvm_mode)
}

#[test]
fn overhead_ordering_global_array_cheapest() {
    // The paper's core performance claim, at test scale: the global array
    // never costs more than the hash tables on contended workloads.
    let m_arr = measure("SAD", 20, &LpConfig::recommended(), false);
    let m_quad = measure("SAD", 20, &LpConfig::quad(), false);
    let m_cuckoo = measure("SAD", 20, &LpConfig::cuckoo(), false);
    assert!(
        m_arr.slowdown <= m_quad.slowdown * 1.01,
        "{} vs {}",
        m_arr.slowdown,
        m_quad.slowdown
    );
    assert!(m_arr.slowdown <= m_cuckoo.slowdown * 1.01);
    assert_eq!(m_arr.table_stats.collisions, 0);
}

#[test]
fn lock_free_beats_lock_based_on_every_workload() {
    for name in ["TMM", "SPMV", "HISTO"] {
        let free = measure(name, 21, &LpConfig::quad(), false);
        let locked = measure(
            name,
            21,
            &LpConfig::quad().with_lock(LockPolicy::GlobalLock),
            false,
        );
        assert!(
            locked.slowdown > free.slowdown,
            "{name}: lock-based must be slower ({} vs {})",
            locked.slowdown,
            free.slowdown
        );
    }
}

#[test]
fn write_amplification_is_small_for_recommended_design() {
    let m = measure("SPMV", 22, &LpConfig::recommended(), true);
    let wa = m.write_amplification();
    assert!(
        (1.0..1.25).contains(&wa),
        "write amplification out of range: {wa}"
    );
}
