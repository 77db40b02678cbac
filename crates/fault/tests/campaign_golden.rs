//! Pins the crash campaign's simulated results, trial by trial: the
//! serialised `TrialResult` of every trial of five test-scale campaign
//! cells, one line each. The cells together cover every crash-site class,
//! every config of `CONFIG_NAMES` plus the sabotaged one, and all five
//! backends (adaptive included, so the policy-switch window runs for real).
//! Lines come from `run_trial`, the from-scratch reference; the same
//! campaigns run through `run_campaign` must report exactly the failures
//! and tallies those lines imply. Regenerate after an intended change to a
//! simulated result with
//! `LP_UPDATE_GOLDENS=1 cargo test -p lp-fault --test campaign_golden`.

use gpu_lp::BackendKind;
use lp_fault::{run_campaign, run_trial, CampaignSpec, TrialResult, CONFIG_NAMES, SABOTAGE_CONFIG};
use lp_kernels::Scale;
use std::collections::BTreeSet;

const PATH: &str = "tests/goldens/campaign_test.jsonl";

/// `(workload, config, backend, seed)` of each cell; every cell runs the
/// whole site catalog.
const CELLS: [(&str, &str, BackendKind, u64); 5] = [
    ("SPMV", "recommended", BackendKind::LpChecksum, 1),
    ("TMM", "cuckoo", BackendKind::Adaptive, 2),
    ("MEGAKV-DELETE", "quad", BackendKind::Sbrp, 1),
    ("HISTO", "seq-reduce", BackendKind::Eager, 1),
    ("MRI-Q", SABOTAGE_CONFIG, BackendKind::Epoch, 1),
];

fn spec((workload, config, backend, seed): (&str, &str, BackendKind, u64)) -> CampaignSpec {
    CampaignSpec {
        workloads: vec![workload.to_string()],
        configs: vec![config.to_string()],
        backends: vec![backend],
        seeds: vec![seed],
        max_shrinks: 0,
        ..CampaignSpec::default_sweep(Scale::Test)
    }
}

fn line(r: &TrialResult) -> String {
    serde_json::to_string(r).expect("result serialises")
}

#[test]
fn the_cells_cover_every_site_class_config_and_backend() {
    let configs: BTreeSet<&str> = CELLS.iter().map(|c| c.1).collect();
    let want: BTreeSet<&str> = CONFIG_NAMES.into_iter().chain([SABOTAGE_CONFIG]).collect();
    assert_eq!(configs, want);
    let backends: BTreeSet<BackendKind> = CELLS.iter().map(|c| c.2).collect();
    assert_eq!(backends.len(), BackendKind::ALL.len() + 1);
    assert!(backends.contains(&BackendKind::Adaptive));
    // The catalog holds every class; each cell runs all of it.
    let classes: BTreeSet<String> = spec(CELLS[0])
        .sites
        .iter()
        .map(|s| {
            s.label()
                .split(['@', '#'])
                .next()
                .unwrap_or_default()
                .to_string()
        })
        .collect();
    assert_eq!(classes.len(), 10, "{classes:?}");
}

#[test]
fn test_scale_campaign_trials_match_the_golden() {
    let mut got = String::new();
    let mut campaigns = Vec::new();
    for cell in CELLS {
        let spec = spec(cell);
        let results: Vec<TrialResult> = spec
            .enumerate()
            .iter()
            .map(|id| run_trial(id, spec.scale))
            .collect();
        for r in &results {
            got.push_str(&line(r));
            got.push('\n');
        }
        campaigns.push((spec, results));
    }
    if std::env::var_os("LP_UPDATE_GOLDENS").is_some() {
        std::fs::write(PATH, &got).expect("write golden");
    }
    let want = std::fs::read_to_string(PATH).unwrap_or_else(|e| {
        panic!("missing golden {PATH} ({e}); regenerate with LP_UPDATE_GOLDENS=1")
    });
    for (got, want) in got.lines().zip(want.lines()) {
        assert_eq!(got, want, "trial drifted from {PATH}");
    }
    assert_eq!(got.lines().count(), want.lines().count(), "{PATH}");

    // The campaign runner reports the same trials: its tallies and its
    // failure records are the golden's.
    for (spec, results) in campaigns {
        let report = run_campaign(&spec, |_, _| {});
        let count = |f: fn(&TrialResult) -> bool| results.iter().filter(|r| f(r)).count() as u64;
        assert_eq!(report.trials, results.len() as u64);
        assert_eq!(report.crashed, count(|r| r.crashed));
        assert_eq!(report.passed, count(|r| r.passed));
        let failed: Vec<String> = results.iter().filter(|r| !r.passed).map(line).collect();
        let reported: Vec<String> = report.failures.iter().map(|f| line(&f.result)).collect();
        assert_eq!(reported, failed, "{:?}", spec.workloads);
    }
}
