//! Golden-output tests over the fixture corpus.
//!
//! Two properties the static analysis must keep stable across refactors:
//!
//! * **clean corpus** — every annotated benchmark source under
//!   `tests/fixtures/clean/` (including a pragma-free one) lints to zero
//!   findings;
//! * **seeded corpus** — every source under `tests/fixtures/seeded/`
//!   renders exactly the diagnostics in its `.expected` golden, in order,
//!   with byte-stable spans (`line:col-end_col[CODE]: message`).
//!
//! Regenerate goldens after an intentional diagnostic change with
//! `LP_UPDATE_GOLDENS=1 cargo test -p lp-directive --test lint_golden`
//! and review the diff.

use lp_directive::lint;
use std::fs;
use std::path::{Path, PathBuf};

fn fixture_dir(sub: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(sub)
}

/// All `.cu` files in a fixture directory, sorted for stable iteration.
fn corpus(sub: &str) -> Vec<PathBuf> {
    let mut out: Vec<PathBuf> = fs::read_dir(fixture_dir(sub))
        .expect("fixture directory exists")
        .filter_map(|e| Some(e.ok()?.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "cu"))
        .collect();
    out.sort();
    out
}

/// Renders every diagnostic for `path`, one per line.
fn rendered(path: &Path) -> String {
    let src = fs::read_to_string(path).expect("fixture readable");
    lint(&src).iter().map(|d| format!("{d}\n")).collect()
}

#[test]
fn clean_corpus_lints_to_zero_findings() {
    let corpus = corpus("clean");
    assert!(corpus.len() >= 5, "clean corpus shrank: {corpus:?}");
    for path in corpus {
        let out = rendered(&path);
        assert!(
            out.is_empty(),
            "{} should lint clean but produced:\n{out}",
            path.display()
        );
    }
}

#[test]
fn seeded_corpus_matches_goldens() {
    let corpus = corpus("seeded");
    assert!(corpus.len() >= 8, "seeded corpus shrank: {corpus:?}");
    let update = std::env::var_os("LP_UPDATE_GOLDENS").is_some();
    let mut failures = Vec::new();
    for path in corpus {
        let golden = path.with_extension("expected");
        let got = rendered(&path);
        if update {
            fs::write(&golden, &got).expect("golden writable");
            continue;
        }
        let want = fs::read_to_string(&golden)
            .unwrap_or_else(|_| panic!("missing golden {}", golden.display()));
        if got != want {
            failures.push(format!(
                "== {} ==\n-- expected --\n{want}-- got --\n{got}",
                path.display()
            ));
        }
    }
    assert!(
        failures.is_empty(),
        "golden mismatches:\n{}",
        failures.join("\n")
    );
}

#[test]
fn seeded_corpus_covers_every_rule() {
    // The union of the goldens must exercise the full rule set, so a rule
    // can't silently rot out of the corpus.
    let mut seen = String::new();
    for path in corpus("seeded") {
        seen.push_str(&rendered(&path));
    }
    for code in [
        "LP000", "LP001", "LP002", "LP003", "LP004", "LP005", "LP010", "LP011", "LP012", "LP013",
        "LP014", "LP015", "LP016", "LP017", "LP018", "LP019", "LP020", "LP021", "LP022", "LP023",
        "LP024",
    ] {
        assert!(seen.contains(code), "no seeded fixture triggers {code}");
    }
}

#[test]
fn pragma_misuse_orders_diagnostics_by_position() {
    let src = fs::read_to_string(fixture_dir("seeded").join("pragma_misuse.cu")).unwrap();
    let codes: Vec<&str> = lint(&src).iter().map(|d| d.code).collect();
    assert_eq!(codes, vec!["LP003", "LP004", "LP001", "LP002", "LP005"]);
}

#[test]
fn embedded_tables_list_every_fixture_on_disk() {
    // `lp_directive::fixtures` is what the tools self-check against; a
    // fixture added on disk but not embedded would silently go unchecked.
    for (sub, table) in [
        ("clean", lp_directive::fixtures::CLEAN),
        ("seeded", lp_directive::fixtures::SEEDED),
    ] {
        let on_disk: Vec<String> = corpus(sub)
            .iter()
            .map(|p| format!("{sub}/{}", p.file_name().unwrap().to_str().unwrap()))
            .collect();
        let embedded: Vec<&str> = table.iter().map(|(name, _)| *name).collect();
        assert_eq!(embedded, on_disk, "fixtures::{sub} drifted from disk");
    }
}
