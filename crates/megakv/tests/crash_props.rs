//! Property-based crash campaign for the key-value store: whatever the
//! crash point and batch mix, recovery must restore exactly the state a
//! crash-free pipeline would have produced.

use gpu_lp::{LpConfig, LpKernel, ResilientRecovery};
use megakv::app::OpKind;
use megakv::kernels::BatchKernel;
use megakv::MegaKv;
use nvm::{FaultConfig, NvmConfig, PersistMemory};
use proptest::prelude::*;
use simt::{DeviceConfig, Gpu};

fn world(records: usize, seed: u64) -> (Gpu, PersistMemory, MegaKv) {
    let mut mem = PersistMemory::new(NvmConfig {
        cache_lines: 512,
        associativity: 8,
        ..NvmConfig::default()
    });
    let app = MegaKv::new(&mut mem, records, seed);
    (Gpu::new(DeviceConfig::test_gpu()), mem, app)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Insert batch: crash anywhere, recover, every record present.
    #[test]
    fn insert_crash_anywhere_recovers(
        crash_point in 0u64..8_000,
        seed in 0u64..100,
    ) {
        let (gpu, mut mem, app) = world(1024, seed);
        let rt = app.lp_runtime(&mut mem, OpKind::Insert, LpConfig::recommended());
        let report = app.run_with_crash_and_recover(&gpu, &mut mem, OpKind::Insert, &rt, crash_point);
        prop_assert!(report.all_durable);
        prop_assert!(app.verify_inserts(&mut mem), "records lost at crash point {}", crash_point);
    }

    /// Full pipeline with a crash in the delete phase: non-deleted records
    /// intact, deleted ones gone.
    #[test]
    fn delete_crash_anywhere_recovers(
        crash_point in 0u64..4_000,
        seed in 0u64..100,
    ) {
        let (gpu, mut mem, app) = world(1024, seed);
        app.run(&gpu, &mut mem, OpKind::Insert, None);
        mem.flush_all();
        let rt = app.lp_runtime(&mut mem, OpKind::Delete, LpConfig::recommended());
        let report = app.run_with_crash_and_recover(&gpu, &mut mem, OpKind::Delete, &rt, crash_point);
        prop_assert!(report.all_durable);
        prop_assert!(app.verify_deletes(&mut mem), "delete state wrong at crash point {}", crash_point);
    }

    /// Insert batch on a faulty device: write-backs tear and persists fail
    /// transiently, then power is lost before any checkpoint. The resilient
    /// engine must converge to a durable store whose every record survives
    /// a final fault-free power cut.
    #[test]
    fn insert_on_faulty_device_recovers_durably(
        seed in 0u64..100,
        fault_seed in any::<u64>(),
        (torn_bp, transient_bp) in (0u32..600, 0u32..600),
    ) {
        let (gpu, mut mem, app) = world(1024, seed);
        let rt = app.lp_runtime(&mut mem, OpKind::Insert, LpConfig::recommended());
        mem.flush_all();
        mem.set_fault_config(Some(FaultConfig {
            torn_writeback_bp: torn_bp,
            transient_persist_bp: transient_bp,
            ..FaultConfig::none(fault_seed)
        }));
        let op = OpKind::Insert;
        let region = BatchKernel { op, store: app.store(), batch: app.batch(op) };
        let kernel = LpKernel::new(region, Some(&rt));
        gpu.launch(&kernel, &mut mem).expect("launch");
        mem.crash();
        mem.power_on();
        let report = ResilientRecovery::new(&gpu).recover(&kernel, &rt, &mut mem);
        prop_assert!(report.all_durable, "no convergence: {report:?}");
        mem.set_fault_config(None);
        mem.crash();
        prop_assert!(
            app.verify_inserts(&mut mem),
            "records lost under device faults (torn {torn_bp}bp, transient {transient_bp}bp)"
        );
    }
}
