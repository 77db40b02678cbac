//! The fixture corpus under `tests/fixtures/`, embedded so that tools can
//! self-check without a source checkout: `lpcuda-lint --fixtures [--fix]`
//! and the fault campaign's static twins all read these two tables.
//!
//! Each entry is `(display name, source)`, sorted by name. A test in
//! `tests/lint_golden.rs` fails when a `.cu` file exists on disk but is
//! not listed here.

macro_rules! corpus {
    ($dir:literal: $($file:literal),* $(,)?) => {
        &[$((
            concat!($dir, "/", $file),
            include_str!(concat!("../tests/fixtures/", $dir, "/", $file)),
        )),*]
    };
}

/// The clean benchmark corpus: every source lints to zero findings.
pub const CLEAN: &[(&str, &str)] = corpus!("clean":
    "cutcp.cu",
    "histo.cu",
    "matrixmul.cu",
    "megakv.cu",
    "mrigridding.cu",
    "mriq.cu",
    "plain.cu",
    "sad.cu",
    "spmv.cu",
    "tmm.cu",
    "tpacf.cu",
);

/// The seeded-bug corpus: every source trips the rule it is named after.
pub const SEEDED: &[(&str, &str)] = corpus!("seeded":
    "cross_block_conflict.cu",
    "divergent_fold.cu",
    "divergent_sync.cu",
    "fold_uninit.cu",
    "lp016_helper_escape.cu",
    "lp017_narrow_fence.cu",
    "lp018_token_first.cu",
    "lp019_open_epoch.cu",
    "lp020_divergent_paths.cu",
    "lp021_unsatisfiable_pin.cu",
    "lp022_region_overflow.cu",
    "lp023_same_address_race.cu",
    "lp024_fold_mismatch.cu",
    "missing_sync.cu",
    "pinned_mode.cu",
    "pragma_misuse.cu",
    "unbalanced.cu",
    "uncovered_store.cu",
);
