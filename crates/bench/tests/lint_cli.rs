//! CLI-level tests for `lpcuda-lint`: the machine-readable reports are
//! part of the tool's contract with CI, so their shape is pinned by a
//! byte-stable golden (regenerate with `LP_UPDATE_GOLDENS=1`).

use std::path::Path;
use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_lpcuda-lint");
const GOLDEN: &str = "tests/goldens/lint_cli.json";

/// Seeded fixtures from the directive crate, reachable because cargo runs
/// integration tests with the crate root as the working directory.
const FIX_LP016: &str = "../directive/tests/fixtures/seeded/lp016_helper_escape.cu";
const FIX_LP021: &str = "../directive/tests/fixtures/seeded/lp021_unsatisfiable_pin.cu";
const FIX_LP022: &str = "../directive/tests/fixtures/seeded/lp022_region_overflow.cu";

fn run(args: &[&str]) -> (String, String, i32) {
    let out = Command::new(BIN).args(args).output().expect("spawn lint");
    (
        String::from_utf8(out.stdout).expect("utf8 stdout"),
        String::from_utf8(out.stderr).expect("utf8 stderr"),
        out.status.code().expect("exit code"),
    )
}

/// Object field lookup that panics with the missing key's name — the
/// vendored `serde_json::Value` has no `Index` impls.
fn key<'a>(v: &'a serde_json::Value, k: &str) -> &'a serde_json::Value {
    v.get(k).unwrap_or_else(|| panic!("missing key {k:?}"))
}

/// Array element lookup.
fn at(v: &serde_json::Value, i: usize) -> &serde_json::Value {
    &v.as_array().expect("array")[i]
}

#[test]
fn embedded_clean_corpus_lints_clean() {
    let (stdout, _, code) = run(&["--fixtures"]);
    assert_eq!(code, 0, "clean corpus must stay clean: {stdout}");
    assert!(stdout.contains("clean"));
}

#[test]
fn json_report_matches_the_golden_byte_for_byte() {
    // Files deliberately passed in reverse lexical order: the report
    // sorts findings and relevance by (file, line, col, rule), so the
    // output must not depend on argument order.
    let (stdout, _, code) = run(&["--json", FIX_LP021, FIX_LP016]);
    assert_eq!(code, 1, "seeded fixtures must produce findings");
    if std::env::var_os("LP_UPDATE_GOLDENS").is_some() {
        std::fs::write(GOLDEN, &stdout).expect("write golden");
        return;
    }
    let want = std::fs::read_to_string(GOLDEN).unwrap_or_else(|e| {
        panic!("missing golden {GOLDEN} ({e}); regenerate with LP_UPDATE_GOLDENS=1")
    });
    assert_eq!(
        stdout, want,
        "JSON report drifted from {GOLDEN}; regenerate with LP_UPDATE_GOLDENS=1 \
         if the change is intentional"
    );
}

#[test]
fn json_report_is_argument_order_invariant() {
    let (fwd, _, _) = run(&["--json", FIX_LP016, FIX_LP021]);
    let (rev, _, _) = run(&["--json", FIX_LP021, FIX_LP016]);
    assert_eq!(fwd, rev);
}

#[test]
fn json_report_carries_schema_version_and_relevance() {
    let (stdout, _, _) = run(&["--json", FIX_LP016]);
    let doc: serde_json::Value = serde_json::from_str(&stdout).expect("valid JSON");
    assert_eq!(
        doc.get("schema_version").and_then(|v| v.as_u64()),
        Some(2),
        "schema_version pins the report shape for CI"
    );
    let kernels = key(at(key(&doc, "relevance"), 0), "kernels");
    assert_eq!(key(at(kernels, 0), "kernel").as_str(), Some("scatter"));
    assert_eq!(key(at(kernels, 0), "helper_calls").as_u64(), Some(1));
}

#[test]
fn json_report_carries_footprints_and_suggestions() {
    // LP022's fixture has both: an exact symbolic store footprint and a
    // machine-applicable region-widening fix.
    let (stdout, _, code) = run(&["--json", FIX_LP022]);
    assert_eq!(code, 1);
    let doc: serde_json::Value = serde_json::from_str(&stdout).expect("valid JSON");
    let finding = at(key(&doc, "findings"), 0);
    assert_eq!(key(finding, "code").as_str(), Some("LP022"));
    let suggestion = key(finding, "suggestion");
    assert!(key(suggestion, "message")
        .as_str()
        .expect("suggestion message")
        .contains("widen"));
    let edit = at(key(suggestion, "edits"), 0);
    assert_eq!(key(edit, "kind").as_str(), Some("replace_line"));
    assert!(key(edit, "text")
        .as_str()
        .expect("edit text")
        .contains("lpcuda_region"));
    let fp_kernels = key(at(key(&doc, "footprints"), 0), "kernels");
    let stores = key(at(fp_kernels, 0), "stores");
    let store = at(stores, 0);
    assert_eq!(key(store, "index").as_str(), Some("64*blockIdx.x + j"));
    assert_eq!(key(store, "elements").as_str(), Some("[0, 64*gridDim.x]"));
    assert_eq!(key(store, "exact").as_bool(), Some(true));
}

#[test]
fn json_report_is_deterministic_across_runs() {
    // Satellite of the interprocedural determinism audit: two identical
    // invocations over the same corpus must be byte-identical (summary
    // iteration is order-stable, no map-order leaks into the report).
    let (a, _, _) = run(&["--json", FIX_LP016, FIX_LP021, FIX_LP022]);
    let (b, _, _) = run(&["--json", FIX_LP016, FIX_LP021, FIX_LP022]);
    assert_eq!(a, b);
}

#[test]
fn fix_selfcheck_passes_over_embedded_corpora() {
    let (stdout, stderr, code) = run(&["--fixtures", "--fix"]);
    assert_eq!(code, 0, "fix self-check failed:\n{stdout}\n{stderr}");
    assert!(stdout.contains("fix self-check passed"));
}

#[test]
fn fix_rewrites_a_file_to_a_lint_stable_fixpoint() {
    // Copy the LP022 fixture somewhere writable, fix it in place, and
    // check the result is lint-stable: the finding is gone and a second
    // `--fix` run changes nothing.
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR"));
    std::fs::create_dir_all(dir).expect("tmpdir");
    let path = dir.join("lp022_fix_roundtrip.cu");
    std::fs::copy(FIX_LP022, &path).expect("copy fixture");
    let path = path.to_str().expect("utf8 path");

    let (_, stderr, code) = run(&["--fix", path]);
    assert_eq!(code, 0, "LP022 must be fully fixed: {stderr}");
    assert!(stderr.contains("applied 1 fix"), "stderr: {stderr}");
    let fixed = std::fs::read_to_string(path).expect("fixed file");
    assert!(fixed.contains("lpcuda_region(out, 64*gridDim.x + 1)"));

    let (_, stderr2, code2) = run(&["--fix", path]);
    assert_eq!(code2, 0);
    assert!(
        !stderr2.contains("applied"),
        "second --fix pass must be a no-op: {stderr2}"
    );
    assert_eq!(std::fs::read_to_string(path).expect("reread"), fixed);
}

#[test]
fn sarif_report_is_valid_sarif_2_1_0() {
    let (stdout, _, code) = run(&["--sarif", FIX_LP021, FIX_LP016]);
    assert_eq!(code, 1);
    let doc: serde_json::Value = serde_json::from_str(&stdout).expect("valid JSON");
    assert_eq!(key(&doc, "version").as_str(), Some("2.1.0"));
    let run0 = at(key(&doc, "runs"), 0);
    assert_eq!(
        key(key(key(run0, "tool"), "driver"), "name").as_str(),
        Some("lpcuda-lint")
    );
    let rules = key(key(key(run0, "tool"), "driver"), "rules")
        .as_array()
        .expect("rules array");
    for r in rules {
        // Every reported rule carries its full metadata: a short and a
        // full description plus a helpUri into README.md's rule table.
        let id = key(r, "id").as_str().expect("rule id");
        assert!(!key(key(r, "shortDescription"), "text")
            .as_str()
            .expect("shortDescription")
            .is_empty());
        assert!(!key(key(r, "fullDescription"), "text")
            .as_str()
            .expect("fullDescription")
            .is_empty());
        assert_eq!(
            key(r, "helpUri").as_str().expect("helpUri"),
            format!("README.md#{}", id.to_lowercase())
        );
    }
    let results = key(run0, "results").as_array().expect("results array");
    assert!(!results.is_empty());
    // Sorted by (file, line, col, rule): LP016's fixture sorts before
    // LP021's lexically, whatever order the CLI received them in.
    let ids: Vec<&str> = results
        .iter()
        .map(|r| key(r, "ruleId").as_str().expect("ruleId"))
        .collect();
    assert_eq!(ids, vec!["LP016", "LP021"]);
    for r in results {
        let region = key(
            key(at(key(r, "locations"), 0), "physicalLocation"),
            "region",
        );
        assert!(key(region, "startLine").as_u64().is_some());
        assert!(key(region, "startColumn").as_u64().is_some());
    }
}

#[test]
fn json_and_sarif_are_mutually_exclusive() {
    let (_, stderr, code) = run(&["--json", "--sarif", FIX_LP016]);
    assert_eq!(code, 2);
    assert!(stderr.contains("mutually exclusive"));
}

#[test]
fn golden_fixture_paths_exist() {
    // Guards the constants above against fixture renames.
    assert!(Path::new(FIX_LP016).exists(), "{FIX_LP016}");
    assert!(Path::new(FIX_LP021).exists(), "{FIX_LP021}");
    assert!(Path::new(FIX_LP022).exists(), "{FIX_LP022}");
}

#[test]
fn every_rule_has_its_readme_row() {
    // The SARIF `helpUri`s point at `README.md#lp0NN`: each rule's row in
    // README's table carries that anchor, its code and its summary
    // (identifiers in the summary are code spans there).
    let readme = std::fs::read_to_string("../../README.md").expect("README.md");
    for rule in lp_directive::lint::RULES {
        let anchor = format!(
            "| <a id=\"{}\"></a>{} |",
            rule.code.to_lowercase(),
            rule.code
        );
        let row = readme
            .lines()
            .find(|l| l.starts_with(&anchor))
            .unwrap_or_else(|| panic!("README.md has no row `{anchor}`"));
        assert_eq!(
            row.replace('`', ""),
            format!("{anchor} {} |", rule.summary),
            "README.md's {} row and RULES disagree",
            rule.code
        );
    }
}
