//! Static/dynamic byte-claim differential for the store-footprint engine.
//!
//! `prune::subject_footprint` certifies a subject by running the symbolic
//! footprint engine over its clean static twin. The fault campaign then
//! *acts* on that certificate: it collapses the block-boundary crash-site
//! family, so an unsound certificate would silently shrink crash
//! coverage. This test holds every certificate to its byte-level claims
//! against a real observed launch of the Rust kernel:
//!
//! * **`block_partitioned`** claims distinct blocks write distinct
//!   elements. Dynamically: the per-block sets of plain in-region global
//!   store bytes (LP instrumentation excluded) must be pairwise disjoint.
//! * **`fully_folded`** claims every persistent store's final bytes fold
//!   into a checksum. Dynamically: the sanitizer's coverage pass must be
//!   clean on the same subject.
//! * The twin's **concrete element sets** (affine index enumerated under
//!   the observed `blockDim`/`gridDim`) must byte-for-byte match what the
//!   kernel actually wrote: set equality for single-array subjects,
//!   distinct-byte-count equality when the output spans several arrays
//!   (the observer sees addresses, not which allocation they belong to).
//!
//! The other direction is deliberately weaker: an *uncertified* subject
//! (TMM's two-dimensional grid, HISTO's constant commit stride) may still
//! be dynamically block-partitioned — declining to certify is
//! incompleteness, not a claim of a violation — so no assertion ties
//! missing certificates to dynamic conflicts.

use lp_directive::analysis::footprint::source_footprints;
use lp_fault::{
    observe_subject, sanitize_subject, subject_footprint, subject_num_blocks, subject_twin,
};
use lp_kernels::{Scale, SUBJECTS};
use simt::{AccessKind, AccessObserver};
use std::collections::{BTreeMap, BTreeSet};

/// Records every plain (unlocked) global store issued inside an open LP
/// region, attributed to the issuing block.
#[derive(Default)]
struct StoreRecorder {
    in_region: BTreeSet<u64>,
    per_block: BTreeMap<u64, Vec<(u64, u64)>>,
}

impl AccessObserver for StoreRecorder {
    fn on_global_access(
        &mut self,
        block: u64,
        _thread: u64,
        addr: u64,
        bytes: u64,
        kind: AccessKind,
        locked: bool,
    ) {
        if kind == AccessKind::Store && !locked && self.in_region.contains(&block) {
            self.per_block.entry(block).or_default().push((addr, bytes));
        }
    }

    fn on_region_begin(&mut self, block: u64) {
        self.in_region.insert(block);
    }

    fn on_region_end(&mut self, block: u64) {
        self.in_region.remove(&block);
    }
}

fn in_ranges(addr: u64, ranges: &[(u64, u64)]) -> bool {
    ranges
        .iter()
        .any(|&(base, len)| addr >= base && addr < base + len)
}

/// Per-block sets of written byte addresses, with LP metadata filtered out.
fn block_byte_sets(rec: &StoreRecorder, exempt: &[(u64, u64)]) -> BTreeMap<u64, BTreeSet<u64>> {
    let mut out = BTreeMap::new();
    for (&block, stores) in &rec.per_block {
        let set: &mut BTreeSet<u64> = out.entry(block).or_default();
        for &(addr, bytes) in stores {
            if in_ranges(addr, exempt) {
                continue;
            }
            set.extend(addr..addr + bytes);
        }
    }
    out
}

/// The subjects of the table whose clean twin earns a certificate.
fn certified() -> Vec<&'static str> {
    let names: Vec<&str> = SUBJECTS
        .iter()
        .map(|s| s.name)
        .filter(|name| {
            subject_footprint(name)
                .expect("every subject has a twin")
                .certified()
        })
        .collect();
    assert_eq!(names.len(), 5, "the certified set changed: {names:?}");
    names
}

#[test]
fn certified_footprints_match_observed_launches_byte_for_byte() {
    let mut single_arrays = 0;
    for workload in certified() {
        let mut rec = StoreRecorder::default();
        let obs = observe_subject(workload, "recommended", Scale::Test, 1, &mut rec)
            .expect("known subject/config");
        let blocks = block_byte_sets(&rec, &obs.table_ranges);
        assert_eq!(
            blocks.len() as u64,
            obs.num_blocks,
            "{workload}: every block must issue in-region stores"
        );
        // The launch geometry the pruner's site arithmetic assumed must
        // be the geometry the simulator actually ran.
        assert_eq!(
            subject_num_blocks(workload, Scale::Test, 1),
            Some(obs.num_blocks),
            "{workload}: pruner and simulator disagree on num_blocks"
        );

        // Dynamic face of `block_partitioned`: pairwise-disjoint per-block
        // byte sets. A single ownership map keeps this O(total bytes).
        let mut owner: BTreeMap<u64, u64> = BTreeMap::new();
        for (&block, bytes) in &blocks {
            for &b in bytes {
                if let Some(prev) = owner.insert(b, block) {
                    panic!(
                        "{workload}: byte {b:#x} written by blocks {prev} and {block}, \
                         but the footprint engine certified block partitioning"
                    );
                }
            }
        }

        // Static side: enumerate the twin's claimed element sets under the
        // observed launch geometry.
        let (src, kernel) = subject_twin(workload).expect("twin source");
        let fp = source_footprints(src)
            .into_iter()
            .find(|f| f.kernel == kernel)
            .expect("twin kernel analysed");
        let mut env = BTreeMap::new();
        env.insert("blockDim.x".to_string(), obs.threads_per_block as i64);
        env.insert("gridDim.x".to_string(), obs.num_blocks as i64);
        let mut claimed_bytes = 0usize;
        let mut per_ptr: BTreeMap<&str, BTreeSet<i64>> = BTreeMap::new();
        for store in &fp.stores {
            assert!(store.exact, "{workload}: certified store must be exact");
            let elems = fp
                .concrete_elements(store, &env, 1 << 20)
                .unwrap_or_else(|| panic!("{workload}: twin element set unenumerable"));
            let set = per_ptr.entry(store.ptr.as_str()).or_default();
            for e in elems {
                if set.insert(e) {
                    claimed_bytes += store.elem_size as usize;
                }
            }
        }

        let dynamic: BTreeSet<u64> = owner.keys().copied().collect();
        assert_eq!(
            dynamic.len(),
            claimed_bytes,
            "{workload}: kernel wrote {} distinct bytes, twin claims {claimed_bytes}",
            dynamic.len()
        );

        // A twin writing a single output array allows normalized set
        // equality rather than just count equality: anchor both sides at
        // their minimum and the byte sets must coincide exactly.
        if per_ptr.len() == 1 {
            single_arrays += 1;
            let (ptr, elems) = per_ptr.iter().next().expect("twin has a store");
            let elem_size = fp.stores[0].elem_size;
            let e0 = *elems.iter().next().expect("nonempty element set");
            let claimed: BTreeSet<u64> = elems
                .iter()
                .flat_map(|&e| {
                    let off = ((e - e0) as u64) * elem_size;
                    off..off + elem_size
                })
                .collect();
            let base = *dynamic.iter().next().expect("nonempty dynamic set");
            let observed: BTreeSet<u64> = dynamic.iter().map(|&b| b - base).collect();
            assert_eq!(
                observed, claimed,
                "{workload}: normalized dynamic bytes diverge from twin `{ptr}` claim"
            );
        }
    }
    // Only MRI-Q's output spans several arrays.
    assert_eq!(single_arrays, 4);
}

#[test]
fn fully_folded_certificates_are_coverage_clean_dynamically() {
    // `fully_folded` statically claims every persistent store's final
    // bytes enter a checksum fold; the sanitizer's coverage pass is the
    // dynamic judge of exactly that discipline.
    for workload in certified() {
        let (_, report) =
            sanitize_subject(workload, "recommended", Scale::Test, 1).expect("known subject");
        assert_eq!(
            report.count_for_pass("coverage"),
            0,
            "{workload}: certified fully_folded but dynamic coverage found gaps:\n{report}"
        );
    }
}
