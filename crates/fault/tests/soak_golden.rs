//! Pins the chaos soak's simulated results, cell by cell: the serialised
//! `SoakReport` of every app × {lp, epoch, adaptive} at two shapes — the
//! `lp soak --scale test` shape for the CI seeds (42, 7) and the seeds of
//! ROADMAP item 1's known failures (6, 12, 50, 106), and the benchmark's
//! 100-cycle cell shape at seed 42, long enough that every audit follows
//! dozens of earlier ones. Failing and waived cells are pinned like clean
//! ones — a refactor of `lp-apps` must reproduce the open data loss bit for
//! bit, and its fix must show up here as a diff.
//! Regenerate after an intended change with
//! `LP_UPDATE_GOLDENS=1 cargo test -p lp-fault --test soak_golden`.

use gpu_lp::BackendKind;
use lp_apps::AppKind;
use lp_fault::{run_soak, SoakSpec};

const SEEDS: [u64; 6] = [42, 7, 6, 12, 50, 106];
const BACKENDS: [BackendKind; 3] = [
    BackendKind::LpChecksum,
    BackendKind::Epoch,
    BackendKind::Adaptive,
];

/// One line per cell, so a drifted cell is one differing line.
fn soak_lines(seed: u64, cycles: u64, width: u64) -> String {
    let mut out = String::new();
    for app in AppKind::ALL {
        for backend in BACKENDS {
            let report = run_soak(&SoakSpec {
                app,
                backend,
                seed,
                cycles,
                max_steps_per_cycle: 3,
                fault_bp: 200,
                width,
            });
            out.push_str(&serde_json::to_string(&report).expect("report serialises"));
            out.push('\n');
        }
    }
    out
}

/// Compares `got` with the golden at `path`, rewriting it first under
/// `LP_UPDATE_GOLDENS`.
fn check_golden(path: &str, got: &str) {
    if std::env::var_os("LP_UPDATE_GOLDENS").is_some() {
        std::fs::write(path, got).expect("write golden");
    }
    let want = std::fs::read_to_string(path).unwrap_or_else(|e| {
        panic!("missing golden {path} ({e}); regenerate with LP_UPDATE_GOLDENS=1")
    });
    for (got, want) in got.lines().zip(want.lines()) {
        assert_eq!(got, want, "soak cell drifted from {path}");
    }
    assert_eq!(got.lines().count(), want.lines().count(), "{path}");
}

#[test]
fn test_scale_soak_reports_match_the_goldens() {
    for seed in SEEDS {
        let path = format!("tests/goldens/soak_seed_{seed}.jsonl");
        check_golden(&path, &soak_lines(seed, 6, 48));
    }
}

#[test]
fn long_soak_reports_match_the_golden() {
    check_golden(
        "tests/goldens/soak_long_seed_42.jsonl",
        &soak_lines(42, 100, 96),
    );
}
