//! Static/dynamic differential validation.
//!
//! The contract this test pins down: **every seeded-bug fixture the
//! sanitizer flags dynamically is either flagged statically by
//! `lp_directive::lint` on its static-twin source, or explicitly
//! documented here as dynamic-only** (with the rationale in the table).
//! And in the other direction, the static analysis must not cry wolf:
//! every clean benchmark source lints to zero findings.
//!
//! | dynamic fixture          | pass            | static twin                      |
//! |--------------------------|-----------------|----------------------------------|
//! | `UncoveredStoreFixture`  | coverage        | `uncovered_store.cu` → LP011     |
//! | `CrossBlockWriteFixture` | global-conflict | `cross_block_conflict.cu` → LP013|
//! | `MissingSyncFixture`     | shared-race     | dynamic-only (no happens-before  |
//! |                          |                 | model for shared memory; twin    |
//! |                          |                 | `missing_sync.cu` lints clean)   |
//! | `AtomicPlainMixFixture`  | global-conflict | dynamic-only (atomics are opaque |
//! |                          |                 | calls to the static IR)          |
//!
//! The interprocedural contract rules (LP016–LP021) extend the table in
//! both directions. LP016 is the interprocedural face of the coverage
//! pass: the dynamic side is function-blind (a store is a store no matter
//! which source function issued it), so the same hazard class is caught
//! dynamically as an uncovered store. LP017–LP021 are **static-only**:
//! the dynamic sanitizer models the LP checksum discipline, not the
//! epoch/SBRP/eager durability contracts, so a too-narrow fence, an
//! early-published commit token, a never-closed epoch, a divergent fold
//! input or an unsatisfiable mode pin produce no dynamic finding — the
//! static verifier is the only line of defence, which is exactly why the
//! fault campaign's pruning consults it.

use gpu_lp::{LpConfig, LpKernel, LpRuntime};
use lp_kernels::test_world as world;
use lp_sanitizer::fixtures::{
    AtomicPlainMixFixture, CrossBlockWriteFixture, MissingSyncFixture, UncoveredStoreFixture,
};
use lp_sanitizer::{sanitize_launch, Finding, SanitizerReport};
use nvm::PersistMemory;
use simt::{Gpu, Kernel};
use std::fs;
use std::path::{Path, PathBuf};

fn directive_fixtures() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../directive/tests/fixtures")
}

/// Lints one source from the directive crate's fixture corpus and returns
/// the rule codes it triggers.
fn static_codes(rel: &str) -> Vec<&'static str> {
    let path = directive_fixtures().join(rel);
    let src = fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("static twin {} unreadable: {e}", path.display()));
    lp_directive::lint(&src).iter().map(|d| d.code).collect()
}

fn dynamic_report(kernel: &dyn Kernel, mem: &mut PersistMemory, gpu: &Gpu) -> SanitizerReport {
    let (_, report) = sanitize_launch(gpu, kernel, mem).expect("sanitized launch failed");
    report
}

/// The sanitizer's report on `UncoveredStoreFixture` (4 blocks × 8 threads
/// under the recommended LP config).
fn uncovered_store_report() -> SanitizerReport {
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
    dynamic_report(&fixture, &mut mem, &gpu)
}

#[test]
fn uncovered_store_is_caught_by_both_sides() {
    let report = uncovered_store_report();
    assert!(
        report.count_for_pass("coverage") > 0,
        "dynamic side missed the uncovered store:\n{report}"
    );
    let codes = static_codes("seeded/uncovered_store.cu");
    assert!(
        codes.contains(&"LP011"),
        "static twin must flag LP011, got {codes:?}"
    );
}

#[test]
fn cross_block_write_is_caught_by_both_sides() {
    let (gpu, mut mem) = world();
    let blocks = 4u32;
    let out = mem.alloc(u64::from(blocks) * 4, 4);
    let flag = mem.alloc(4, 4);
    let fixture = CrossBlockWriteFixture { out, flag, blocks };
    let report = dynamic_report(&fixture, &mut mem, &gpu);
    assert!(
        report
            .findings
            .iter()
            .any(|f| matches!(f, Finding::CrossBlockWrite { .. })),
        "dynamic side missed the cross-block write:\n{report}"
    );
    let codes = static_codes("seeded/cross_block_conflict.cu");
    assert!(
        codes.contains(&"LP013"),
        "static twin must flag LP013, got {codes:?}"
    );
}

#[test]
fn missing_sync_is_dynamic_only_and_documented() {
    let (gpu, mut mem) = world();
    let report = dynamic_report(&MissingSyncFixture { blocks: 3 }, &mut mem, &gpu);
    assert!(
        report.count_for_pass("shared-race") > 0,
        "dynamic side missed the shared race:\n{report}"
    );
    // The static twin deliberately lints clean: shared-memory element
    // writes are opaque to the mini-IR, so no happens-before reasoning is
    // possible. This assertion *documents* the gap — if the static
    // analysis ever learns to catch it, move this fixture into the
    // flagged-by-both set above.
    let codes = static_codes("seeded/missing_sync.cu");
    assert!(
        codes.is_empty(),
        "missing_sync.cu is documented dynamic-only but now lints {codes:?}; \
         promote it to a static twin instead"
    );
}

#[test]
fn atomic_plain_mix_is_dynamic_only() {
    let (gpu, mut mem) = world();
    let counter = mem.alloc(4, 4);
    let fixture = AtomicPlainMixFixture { counter, blocks: 4 };
    let report = dynamic_report(&fixture, &mut mem, &gpu);
    assert!(
        report
            .findings
            .iter()
            .any(|f| matches!(f, Finding::AtomicPlainMix { .. })),
        "dynamic side missed the atomic/plain mix:\n{report}"
    );
    // No static twin: atomics are opaque calls to the static IR, so the
    // rules have nothing to anchor on. Dynamic-only by design.
}

#[test]
fn helper_escape_is_coverage_dynamically_and_lp016_statically() {
    // Dynamic side: the coverage pass has no notion of source functions —
    // an uncovered store is flagged whether the kernel or a helper issued
    // it. `UncoveredStoreFixture` stands in for the hazard class.
    let report = uncovered_store_report();
    assert!(
        report.count_for_pass("coverage") > 0,
        "dynamic side missed the uncovered-store hazard class:\n{report}"
    );
    // Static side: only the interprocedural rule sees that the escape
    // happens through a call.
    let codes = static_codes("seeded/lp016_helper_escape.cu");
    assert!(
        codes.contains(&"LP016"),
        "static twin must flag LP016, got {codes:?}"
    );
}

#[test]
fn contract_rules_lp017_to_lp021_are_static_only() {
    // The dynamic sanitizer models the LP checksum discipline only; the
    // epoch/SBRP/eager contract hazards have no dynamic pass. Each entry
    // asserts (a) the static verifier flags the seeded fixture and (b) the
    // fixture stays honest about which codes it triggers, so a future
    // dynamic pass forces this table to be revisited.
    for (fixture, code) in [
        ("seeded/lp017_narrow_fence.cu", "LP017"),
        ("seeded/lp018_token_first.cu", "LP018"),
        ("seeded/lp019_open_epoch.cu", "LP019"),
        ("seeded/lp020_divergent_paths.cu", "LP020"),
        ("seeded/lp021_unsatisfiable_pin.cu", "LP021"),
    ] {
        let codes = static_codes(fixture);
        assert!(
            codes.contains(&code),
            "{fixture} must flag {code} statically, got {codes:?}"
        );
    }
}

#[test]
fn clean_benchmark_sources_produce_zero_static_findings() {
    let dir = directive_fixtures().join("clean");
    let mut checked = 0;
    for entry in fs::read_dir(&dir).expect("clean corpus exists") {
        let path = entry.expect("dir entry").path();
        if path.extension().is_none_or(|x| x != "cu") {
            continue;
        }
        let src = fs::read_to_string(&path).expect("fixture readable");
        let findings = lp_directive::lint(&src);
        assert!(
            findings.is_empty(),
            "{} must lint clean, got {findings:?}",
            path.display()
        );
        checked += 1;
    }
    assert!(checked >= 11, "clean corpus shrank ({checked} sources)");
}
