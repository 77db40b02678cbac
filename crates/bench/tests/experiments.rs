//! CLI-level tests for `lp`: the whole `lp all --scale test` report is
//! pinned by a golden so that a refactor or an optimisation cannot change
//! a simulated result unnoticed, and bad input is a usage error, not a
//! panic. Regenerate the golden after an intentional change with
//! `LP_UPDATE_GOLDENS=1 cargo test -p lp-bench --test experiments`.

use std::collections::BTreeSet;
use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_lp");
const GOLDEN: &str = "tests/goldens/all_test.txt";

fn lp(args: &[&str]) -> (String, String, i32) {
    let out = Command::new(BIN).args(args).output().expect("spawn lp");
    (
        String::from_utf8(out.stdout).expect("utf8 stdout"),
        String::from_utf8(out.stderr).expect("utf8 stderr"),
        out.status.code().expect("exit code"),
    )
}

/// E15 is the one experiment that prints host wall-clock: the last three
/// cells of its rows and its geomean line differ from run to run.
/// Everything else `lp all` prints is simulated, hence deterministic.
fn mask_host_time(stdout: &str) -> String {
    let mut out = String::new();
    let mut in_e15 = false;
    for line in stdout.lines() {
        if line.starts_with("== ") {
            in_e15 = line.starts_with("== E15 ");
        }
        if in_e15 && line.starts_with("| ") && !line.contains("Plain (ms)") {
            let cells: Vec<&str> = line.split('|').collect();
            out.push_str(&cells[..cells.len() - 4].join("|"));
            out.push_str("| <host> | <host> | <host> |");
        } else if in_e15 && line.starts_with("Host wall-clock overhead") {
            out.push_str("Host wall-clock overhead, geometric mean: <host>");
        } else {
            out.push_str(line);
        }
        out.push('\n');
    }
    out
}

/// The report of one experiment inside `lp all`'s output: the lines
/// between its banner and the next one.
fn section<'a>(all: &'a str, code: &str) -> &'a str {
    const RULE: &str = "================================================================\n";
    let banner = all
        .find(&format!("== {code} / "))
        .unwrap_or_else(|| panic!("no {code} banner"));
    let body = &all[banner..];
    let body = &body[body.find(RULE).expect("banner closes") + RULE.len()..];
    &body[..body.find(RULE).unwrap_or(body.len())]
}

#[test]
fn all_matches_the_golden_and_its_sections_match_single_runs() {
    let (stdout, stderr, code) = lp(&["all", "--scale", "test"]);
    assert_eq!(code, 0, "lp all failed:\n{stderr}");
    assert!(stdout.ends_with("\nAll experiments completed.\n"));

    let masked = mask_host_time(&stdout);
    if std::env::var_os("LP_UPDATE_GOLDENS").is_some() {
        std::fs::write(GOLDEN, &masked).expect("write golden");
    }
    let want = std::fs::read_to_string(GOLDEN).unwrap_or_else(|e| {
        panic!("missing golden {GOLDEN} ({e}); regenerate with LP_UPDATE_GOLDENS=1")
    });
    assert!(
        masked == want,
        "`lp all --scale test` drifted from {GOLDEN}; diff it against the output of \
         `lp all --scale test` and regenerate with LP_UPDATE_GOLDENS=1 if intentional"
    );

    // `lp <E-code>` is that experiment and nothing else.
    let (e4, _, code) = lp(&["E4", "--scale", "test"]);
    assert_eq!(code, 0);
    assert_eq!(format!("\n{e4}\n"), section(&stdout, "E4"));
}

#[test]
fn list_is_the_index_of_21_unique_experiments() {
    let (stdout, _, code) = lp(&["list"]);
    assert_eq!(code, 0);
    let rows: Vec<Vec<&str>> = stdout
        .lines()
        .skip(2) // header and rule
        .map(|l| l.split('|').map(str::trim).collect())
        .collect();
    let codes: BTreeSet<&str> = rows.iter().map(|r| r[1]).collect();
    let names: BTreeSet<&str> = rows.iter().map(|r| r[2]).collect();
    assert_eq!(rows.len(), 21);
    assert_eq!(codes.len(), 21, "duplicate E-code in {codes:?}");
    assert_eq!(names.len(), 21, "duplicate name in {names:?}");
    assert!(codes.iter().all(|c| c.starts_with('E')));
    assert_eq!(rows.len(), lp_bench::EXPERIMENTS.len());
}

#[test]
fn bad_input_is_a_usage_error_not_a_panic() {
    for args in [
        &["nope"][..],
        &[],
        &["E4", "--scale", "huge"],
        &["E4", "--seed"],
        &["E4", "--only", "E18"],
        &["table3_locking", "--workload", "NOPE"],
        &["soak", "--workload", "x"],
        &["campaign", "--seed", "3"],
        &["campaign", "--workload", "NOPE"],
        &["all", "--scale", "huge"],
        &["lpcuda-lint", "/nonexistent.cu"],
    ] {
        let (stdout, stderr, code) = lp(args);
        assert_eq!(code, 2, "lp {args:?}: {stderr}");
        assert!(stdout.is_empty(), "lp {args:?} printed {stdout}");
        assert!(stderr.contains("usage: lp"), "lp {args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "lp {args:?}: {stderr}");
    }
}
