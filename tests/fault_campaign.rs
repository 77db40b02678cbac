//! Integration tests for the `lp-fault` crash-injection campaign engine:
//! a bounded end-to-end campaign (what `run_all` executes), the sabotage
//! demonstration, and property-based double-crash tests — power lost
//! mid-kernel *and again* during recovery — for one compute-bound (TMM)
//! and one memory-bound (SPMV) workload.

use lpgpu::gpu_lp::{LpConfig, ResilientRecovery};
use lpgpu::lp_fault::{
    fault_world, run_campaign, run_trial, CampaignSpec, CrashSite, TrialId, SABOTAGE_CONFIG,
};
use lpgpu::lp_kernels::{stage, workload_by_name, Scale};
use lpgpu::nvm::FaultConfig;
use lpgpu::simt::CrashPlan;
use proptest::prelude::*;

fn bounded_spec() -> CampaignSpec {
    let mut spec = CampaignSpec::default_sweep(Scale::Test);
    spec.budget = Some(60);
    spec.threads = 2;
    spec
}

#[test]
fn bounded_campaign_smoke() {
    let spec = bounded_spec();
    let report = run_campaign(&spec, |_, _| {});
    assert_eq!(report.trials, 60);
    assert!(report.all_passed(), "failures: {:#?}", report.failures);
    assert!(report.crashed > 40, "most sites must fire: {report:#?}");
    // The budgeted sample still spans sites and workloads.
    assert!(report.by_site.len() >= 8, "{:?}", report.by_site);
    assert!(report.by_workload.len() >= 6, "{:?}", report.by_workload);
    // The report round-trips through JSON (what the campaign binary emits).
    let json = serde_json::to_string(&report).unwrap();
    let back: lpgpu::lp_fault::CampaignReport = serde_json::from_str(&json).unwrap();
    assert_eq!(back.trials, report.trials);
    assert_eq!(back.passed, report.passed);
}

#[test]
fn sabotaged_trial_is_caught_and_replayable() {
    let id = TrialId {
        workload: "TMM".to_string(),
        config: SABOTAGE_CONFIG.to_string(),
        backend: Default::default(),
        seed: 1,
        site: CrashSite::AfterStores { pct: 50 },
    };
    let first = run_trial(&id, Scale::Test);
    assert!(first.crashed);
    assert!(
        !first.passed,
        "skipping recovery must fail the output oracle"
    );
    // Replaying the TrialId reproduces the verdict exactly.
    let again = run_trial(&id, Scale::Test);
    assert_eq!(first.passed, again.passed);
    assert_eq!(first.failed_regions, again.failed_regions);
}

proptest! {
    // Each case is 1 launch + 2 recoveries; keep the case count bounded.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Double crash, arbitrary instants: power fails mid-kernel, recovery
    /// starts, power fails *again* after a few evictions. The aborted
    /// recovery must admit failure, and a post-reboot recovery must still
    /// reproduce the crash-free output bit-for-bit.
    #[test]
    fn double_crash_recovery_is_exact(
        first_crash in 50u64..20_000,
        second_nth in 1u64..6,
        workload_pick in 0usize..2,
        seed in 0u64..100,
    ) {
        let name = ["SPMV", "TMM"][workload_pick];
        let (gpu, mut mem) = fault_world();
        let mut w = workload_by_name(name, Scale::Test, seed).unwrap();
        let rt = stage(w.as_mut(), &gpu, &mut mem, &LpConfig::recommended());
        let kernel = w.kernel(Some(&rt));
        let plan = CrashPlan::after_stores(first_crash);
        let outcome = gpu.launch_with_plan(kernel.as_ref(), &mut mem, plan).expect("launch");
        if !outcome.crashed() {
            mem.flush_all();
        }
        if mem.power_failed() {
            mem.power_on();
        }

        // Second power loss while recovery is re-executing.
        mem.arm_crash_after_evictions(second_nth);
        let engine = ResilientRecovery::new(&gpu);
        let aborted = engine.recover(kernel.as_ref(), &rt, &mut mem);
        mem.disarm_crash();
        if mem.power_failed() {
            prop_assert!(!aborted.all_durable, "recovery claimed success mid-power-loss");
            mem.power_on();
        }

        let report = engine.recover(kernel.as_ref(), &rt, &mut mem);
        prop_assert!(report.all_durable, "{name}: post-reboot recovery diverged: {report:?}");
        prop_assert!(
            w.verify(&mut mem),
            "{name}: output wrong after double crash at ({first_crash}, eviction {second_nth})"
        );
    }

    /// The double crash on a *faulty* device: a drawn fault model (torn
    /// write-backs + transient persist failures) is active through the
    /// kernel, the aborted recovery, and the post-reboot recovery. The
    /// aborted pass must report honestly, and the resilient engine must
    /// still converge to a durable, correct output.
    #[test]
    fn double_crash_under_device_faults_converges(
        first_crash in 50u64..20_000,
        second_nth in 1u64..6,
        workload_pick in 0usize..2,
        seed in 0u64..100,
        (fault_seed, torn_bp, transient_bp) in (any::<u64>(), 0u32..800, 0u32..800),
    ) {
        let name = ["SPMV", "TMM"][workload_pick];
        let (gpu, mut mem) = fault_world();
        let mut w = workload_by_name(name, Scale::Test, seed).unwrap();
        let rt = stage(w.as_mut(), &gpu, &mut mem, &LpConfig::recommended());
        mem.set_fault_config(Some(FaultConfig {
            torn_writeback_bp: torn_bp,
            transient_persist_bp: transient_bp,
            ..FaultConfig::none(fault_seed)
        }));
        let kernel = w.kernel(Some(&rt));
        let plan = CrashPlan::after_stores(first_crash);
        let outcome = gpu.launch_with_plan(kernel.as_ref(), &mut mem, plan).expect("launch");
        if !outcome.crashed() {
            mem.crash();
        }
        if mem.power_failed() {
            mem.power_on();
        }

        let resilient = ResilientRecovery::new(&gpu);
        mem.arm_crash_after_evictions(second_nth);
        let aborted = resilient.recover(kernel.as_ref(), &rt, &mut mem);
        mem.disarm_crash();
        if mem.power_failed() {
            prop_assert!(!aborted.all_durable, "durable claim mid-power-loss: {aborted:?}");
            prop_assert!(
                !aborted.exhausted_regions.is_empty() || aborted.persist_debt > 0,
                "aborted recovery named no losses: {aborted:?}"
            );
            mem.power_on();
        }

        let report = resilient.recover(kernel.as_ref(), &rt, &mut mem);
        prop_assert!(report.all_durable, "{name}: no convergence under faults: {report:?}");
        // Durability claims must hold on a now-perfect device across a
        // final power cut.
        mem.set_fault_config(None);
        mem.crash();
        prop_assert!(
            w.verify(&mut mem),
            "{name}: wrong output after faulty double crash \
             (crash {first_crash}, eviction {second_nth}, torn {torn_bp}bp, transient {transient_bp}bp)"
        );
    }

    /// A device-fault TrialId fully determines its trial: replaying it
    /// reproduces every judged field bit-for-bit, because the fault model's
    /// PRNG is seeded from the trial seed.
    #[test]
    fn device_trial_ids_are_deterministic(
        class_pick in 0usize..3,
        bp in 1u32..1_000,
        seed in 0u64..50,
        workload_pick in 0usize..2,
    ) {
        let site = [
            CrashSite::TornWriteback { bp },
            CrashSite::TransientPersist { bp },
            CrashSite::MediaBitErrors { bp },
        ][class_pick];
        let id = TrialId {
            workload: ["TMM", "SPMV"][workload_pick].to_string(),
            config: "recommended".to_string(),
            backend: Default::default(),
            seed,
            site,
        };
        let a = run_trial(&id, Scale::Test);
        let b = run_trial(&id, Scale::Test);
        prop_assert_eq!(a.failed_regions, b.failed_regions);
        prop_assert_eq!(a.reexecutions, b.reexecutions);
        prop_assert_eq!(a.recovery_rounds, b.recovery_rounds);
        prop_assert_eq!(a.quarantined_lines, b.quarantined_lines);
        prop_assert_eq!(a.degraded_reexecutions, b.degraded_reexecutions);
        prop_assert_eq!(a.recovery_ns, b.recovery_ns);
        prop_assert_eq!(a.o4_no_silent_corruption, b.o4_no_silent_corruption);
        prop_assert_eq!(a.passed, b.passed);
        prop_assert!(a.passed, "device trials must never corrupt silently: {:?}", a);
    }
}
