//! Integration tests: the sanitizer against the real kernel suite and
//! against deliberately-seeded bug fixtures.
//!
//! The clean suite must produce **zero** findings (no false positives on
//! the eight Parboil/Rodinia-class workloads), the seeded fixtures must
//! each produce **exactly** the expected report, and observation must not
//! perturb the simulated timing results.

use gpu_lp::{LpConfig, LpKernel, LpRuntime};
use lp_kernels::{all_workloads, stage, test_world as world, Scale, Workload};
use lp_sanitizer::fixtures::{MissingSyncFixture, UncoveredStoreFixture};
use lp_sanitizer::{sanitize_launch, sanitize_launch_exempt, Finding, SanitizerReport};
use proptest::prelude::*;
use simt::LaunchStats;

/// Runs one workload under the sanitizer with the recommended LP config, in
/// the small-cache test world (evictions happen early, which is
/// the regime both LP and the coverage pass care about), and returns the
/// (stats, report) pair.
fn sanitize_workload(w: &mut dyn Workload) -> (LaunchStats, SanitizerReport) {
    let (gpu, mut mem) = world();
    let rt = stage(w, &gpu, &mut mem, &LpConfig::recommended());
    let kernel = w.kernel(Some(&rt));
    sanitize_launch_exempt(&gpu, kernel.as_ref(), &mut mem, &rt.table_ranges())
        .expect("sanitized launch failed")
}

#[test]
fn clean_suite_has_zero_findings() {
    for mut w in all_workloads(Scale::Test, 7) {
        let name = w.info().name;
        let (_, report) = sanitize_workload(w.as_mut());
        assert!(
            report.is_clean(),
            "{name}: expected a clean report, got:\n{report}"
        );
        assert_eq!(report.suppressed, 0, "{name}: suppressed findings");
        assert!(report.stats.regions > 0, "{name}: no LP regions observed");
        assert_eq!(
            report.stats.regions, report.stats.regions_committed,
            "{name}: regions left open"
        );
        assert!(
            report.stats.covered_stores > 0,
            "{name}: no covered stores observed"
        );
        assert!(
            report.stats.global_stores > 0,
            "{name}: no global stores observed"
        );
    }
}

#[test]
fn observation_does_not_perturb_simulated_timing() {
    // Plain launch and sanitized launch from identical initial states must
    // produce bit-identical LaunchStats (cycles, stores, evictions — all of
    // it). This is the "disabled sanitizer costs nothing" half of the
    // contract; the observed path charges zero extra simulated cycles.
    for seed in [7u64, 11] {
        for (mut a, mut b) in all_workloads(Scale::Test, seed)
            .into_iter()
            .zip(all_workloads(Scale::Test, seed))
        {
            let name = a.info().name;
            let plain = {
                let (gpu, mut mem) = world();
                let rt = stage(a.as_mut(), &gpu, &mut mem, &LpConfig::recommended());
                let kernel = a.kernel(Some(&rt));
                gpu.launch(kernel.as_ref(), &mut mem)
                    .expect("launch failed")
            };
            let (observed, _) = sanitize_workload(b.as_mut());
            assert_eq!(plain, observed, "{name}: observation changed the stats");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Same seed, same workload → byte-identical report, run to run. The
    /// sanitizer must be deterministic or campaign triage is useless.
    #[test]
    fn reports_are_deterministic(seed in 0u64..1000, pick in 0usize..8) {
        let name = all_workloads(Scale::Test, seed)[pick].info().name;
        let run = |seed: u64| {
            let mut w = lp_kernels::workload_by_name(name, Scale::Test, seed)
                .expect("workload exists");
            let (stats, report) = sanitize_workload(w.as_mut());
            (stats, report)
        };
        let (stats_a, report_a) = run(seed);
        let (stats_b, report_b) = run(seed);
        prop_assert_eq!(stats_a, stats_b);
        prop_assert_eq!(report_a, report_b);
    }
}

// ---------------------------------------------------------------------------
// Seeded-bug fixtures (shared with tests/differential.rs via
// lp_sanitizer::fixtures)
// ---------------------------------------------------------------------------

#[test]
fn missing_sync_fixture_yields_exactly_the_expected_races() {
    let (gpu, mut mem) = world();
    let (_, report) =
        sanitize_launch(&gpu, &MissingSyncFixture { blocks: 3 }, &mut mem).expect("launch failed");
    // One race per shared word per block, dedup'd to one finding per word.
    // Thread 0's read of word 1 lands first, then thread 1's read of word 0
    // (writes happened in the same epoch with no barrier between).
    let mut expected = Vec::new();
    for block in 0..3u64 {
        for word in [1u64, 0] {
            expected.push(Finding::SharedRace {
                block,
                word,
                first_thread: word, // the writer of word w is thread w
                second_thread: 1 - word,
                epoch: 0,
            });
        }
    }
    assert_eq!(report.findings, expected, "got:\n{report}");
    assert_eq!(report.count_for_pass("shared-race"), 6);
    assert_eq!(report.count_for_pass("coverage"), 0);
    assert_eq!(report.count_for_pass("global-conflict"), 0);
}

#[test]
fn uncovered_store_fixture_yields_exactly_the_expected_report() {
    let (gpu, mut mem) = world();
    let (blocks, tpb) = (4u32, 8u32);
    let out = mem.alloc(u64::from(blocks * tpb) * 4, 4);
    let rt = LpRuntime::setup(
        &mut mem,
        u64::from(blocks),
        u64::from(tpb),
        LpConfig::recommended(),
    );
    let fixture = LpKernel::new(UncoveredStoreFixture { out, blocks, tpb }, Some(&rt));
    let (_, report) = sanitize_launch(&gpu, &fixture, &mut mem).expect("launch failed");
    // Exactly one uncovered store per block: thread 1's raw store.
    let expected: Vec<Finding> = (0..u64::from(blocks))
        .map(|b| Finding::UncoveredStore {
            block: b,
            addr: out.index(b * u64::from(tpb) + 1, 4).raw(),
        })
        .collect();
    assert_eq!(report.findings, expected, "got:\n{report}");
    assert_eq!(report.count_for_pass("coverage"), 4);
    assert_eq!(report.count_for_pass("shared-race"), 0);
    assert_eq!(report.stats.regions, u64::from(blocks));
    assert_eq!(report.stats.regions_committed, u64::from(blocks));
}
