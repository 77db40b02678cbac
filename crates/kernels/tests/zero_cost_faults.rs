//! The zero-cost-when-off guarantee, asserted end to end: attaching a
//! fault model whose every rate is zero must leave each suite workload's
//! run — NVM statistics, eviction order, durable output — bit-identical to
//! running with no model at all. The fault hooks live on the cache's hot
//! paths (fill, write-back, eviction), so any accidental PRNG draw or
//! reordering on the zero-rate path shows up here as a stats mismatch.

use gpu_lp::LpConfig;
use lp_kernels::{stage, workload_by_name, world, Scale, WORKLOAD_NAMES};
use nvm::{FaultConfig, NvmStats};
use simt::DeviceConfig;

/// Runs `name` to completion (launch + checkpoint flush) and returns the
/// final stats plus a durability check.
fn run_suite_workload(name: &str, faults: Option<FaultConfig>) -> (NvmStats, bool) {
    let (gpu, mut mem) = world(DeviceConfig::test_gpu(), 256, 8);
    let mut w = workload_by_name(name, Scale::Test, 7).expect("known workload");
    let rt = stage(w.as_mut(), &gpu, &mut mem, &LpConfig::recommended());
    mem.set_fault_config(faults);
    let kernel = w.kernel(Some(&rt));
    gpu.launch(kernel.as_ref(), &mut mem).expect("launch");
    mem.flush_all();
    mem.crash();
    drop(kernel);
    (mem.stats(), w.verify(&mut mem))
}

#[test]
fn inactive_fault_model_is_bit_identical_across_the_suite() {
    for name in WORKLOAD_NAMES {
        let (plain, ok_plain) = run_suite_workload(name, None);
        let (modeled, ok_modeled) = run_suite_workload(name, Some(FaultConfig::none(99)));
        assert_eq!(
            plain, modeled,
            "{name}: an all-zero fault model changed the stats"
        );
        assert!(ok_plain && ok_modeled, "{name}: output wrong");
        assert_eq!(plain.torn_writebacks, 0);
        assert_eq!(plain.transient_persist_fails, 0);
        assert_eq!(plain.quarantined_lines, 0);
    }
}
