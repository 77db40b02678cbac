//! The frozen `.cu` corpus of `lint_corpus`.
//!
//! `benchmark/corpus/` is a snapshot of the 29 fixtures under
//! `crates/directive/tests/fixtures/` taken when the benchmark was defined,
//! with the diagnostic count each must produce. Fixtures added later do not
//! change the workload.

use gpu_lp::table::splitmix64;
use serde::Value;
use std::fs;
use std::path::PathBuf;

/// One corpus file.
#[derive(Debug, Clone)]
pub struct CorpusFile {
    /// Path below `corpus/`, e.g. `seeded/missing_sync.cu`.
    pub name: String,
    /// File contents.
    pub source: String,
    /// Diagnostics `lint` must report.
    pub expected: u64,
    /// Whether the file belongs to the clean half.
    pub clean: bool,
}

/// The corpus in the order this run lints it.
#[derive(Debug, Clone)]
pub struct Corpus {
    /// All 29 files, shuffled by the seed.
    pub files: Vec<CorpusFile>,
    /// The clean files concatenated eight times over (about 86 KB): the
    /// long-input case.
    pub big: String,
    /// Diagnostics `lint` must report on `big`.
    pub big_expected: u64,
}

/// Where the corpus lives: fixed when the package is compiled, which the
/// driver does inside the checkout it then runs from.
pub fn dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/corpus"))
}

impl Corpus {
    /// Reads the corpus from disk. The seed fixes the order in which files
    /// are linted; it cannot change their contents.
    ///
    /// # Panics
    ///
    /// Panics if the snapshot is incomplete: a benchmark input is missing.
    pub fn load(seed: u64) -> Self {
        let dir = dir();
        let manifest = fs::read_to_string(dir.join("expected.json")).expect("corpus/expected.json");
        let manifest: Value = serde_json::from_str(&manifest).expect("expected.json is JSON");
        let counts = manifest
            .get("diagnostics")
            .and_then(Value::as_object)
            .expect("expected.json lists diagnostics per file");
        let mut files: Vec<CorpusFile> = counts
            .iter()
            .map(|(name, n)| CorpusFile {
                source: fs::read_to_string(dir.join(name))
                    .unwrap_or_else(|e| panic!("corpus/{name}: {e}")),
                expected: n.as_u64().expect("a diagnostic count"),
                clean: name.starts_with("clean/"),
                name: name.clone(),
            })
            .collect();
        files.sort_by(|a, b| a.name.cmp(&b.name));
        // Concatenated in name order, so the long input and its pinned
        // diagnostic count are the same for every seed.
        let once: String = files
            .iter()
            .filter(|f| f.clean)
            .map(|f| f.source.as_str())
            .collect();
        // Fisher-Yates on SplitMix64.
        let mut state = seed;
        for i in (1..files.len()).rev() {
            state = splitmix64(state);
            files.swap(i, (state % (i as u64 + 1)) as usize);
        }
        Corpus {
            big: once.repeat(8),
            big_expected: manifest
                .get("clean_x8")
                .and_then(Value::as_u64)
                .expect("expected.json gives the clean-x8 count"),
            files,
        }
    }

    /// Source bytes one pass over the 29 files lints.
    pub fn bytes(&self) -> u64 {
        self.files.iter().map(|f| f.source.len() as u64).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_holds_the_29_fixtures() {
        let c = Corpus::load(42);
        assert_eq!(c.files.len(), 29);
        assert_eq!(c.files.iter().filter(|f| f.clean).count(), 11);
        assert!(c.files.iter().filter(|f| f.clean).all(|f| f.expected == 0));
        assert!(c.files.iter().filter(|f| !f.clean).any(|f| f.expected > 0));
        assert!(c.big.len() > 80_000);
    }

    #[test]
    fn seed_permutes_order_only() {
        let a = Corpus::load(42);
        let b = Corpus::load(7);
        let names = |c: &Corpus| c.files.iter().map(|f| f.name.clone()).collect::<Vec<_>>();
        assert_ne!(names(&a), names(&b));
        assert_eq!(names(&a), names(&Corpus::load(42)));
        let mut sorted_a = names(&a);
        let mut sorted_b = names(&b);
        sorted_a.sort();
        sorted_b.sort();
        assert_eq!(sorted_a, sorted_b);
        assert_eq!(a.bytes(), b.bytes());
    }
}
