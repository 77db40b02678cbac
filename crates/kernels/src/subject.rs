//! The subjects of the paper's evaluation — Table I's eight kernels plus
//! §VII-4's MEGA-KV insert / search / delete — as one table, and the one
//! way to put any of them on a simulated machine.
//!
//! [`SUBJECTS`] is the only list of subjects in the repository: the name
//! lists, [`subject`] (the only name resolver), the constructors and the
//! static clean twins are all columns of it. Adding a workload is adding a
//! row. Beside it, [`world`] is the only `(Gpu, PersistMemory)` constructor
//! and [`stage`] the only place the "inputs → warm-up → LP runtime → flush →
//! reset stats" preamble of a measured launch is written.

use crate::cutcp::Cutcp;
use crate::histo::Histo;
use crate::kv::KvBatch;
use crate::mri_gridding::MriGridding;
use crate::mri_q::MriQ;
use crate::sad::Sad;
use crate::spmv::Spmv;
use crate::tmm::Tmm;
use crate::tpacf::Tpacf;
use crate::workload::{Scale, Workload};
use gpu_lp::{LpConfig, LpRuntime};
use megakv::app::OpKind;
use nvm::{NvmConfig, PersistMemory};
use simt::{DeviceConfig, Gpu};

/// One row of the subject table.
#[derive(Debug)]
pub struct Subject {
    /// Canonical name, as the paper's tables and every report spell it.
    pub name: &'static str,
    /// Other spellings [`subject`] accepts.
    pub aliases: &'static [&'static str],
    /// Builds a fresh instance from `(scale, seed)`.
    pub build: fn(Scale, u64) -> Box<dyn Workload>,
    /// The annotated clean twin the static analyses read in place of the
    /// Rust kernel: fixture file in `lp_directive::fixtures::CLEAN` and the
    /// kernel's name inside it.
    pub twin: (&'static str, &'static str),
}

/// Records per MEGA-KV batch in the table's rows — kept small, because crash
/// trials run by the hundred. (§VII-4's own measurement sizes its batches
/// like the paper; see `KvBatch::new`.)
fn campaign_records(scale: Scale) -> usize {
    match scale {
        Scale::Test => 1024,
        Scale::Bench => 4096,
        Scale::Paper => 16384,
    }
}

/// A campaign-sized MEGA-KV batch of `op`.
fn kv(op: OpKind, scale: Scale, seed: u64) -> Box<dyn Workload> {
    Box::new(KvBatch::new(op, campaign_records(scale), seed))
}

/// Every subject: the suite in the paper's table order, then MEGA-KV's
/// three batches in pipeline order.
#[rustfmt::skip]
pub static SUBJECTS: [Subject; 11] = [
    Subject { name: "TMM", aliases: &[], build: |sc, sd| Box::new(Tmm::new(sc, sd)), twin: ("clean/tmm.cu", "tmm") },
    Subject { name: "TPACF", aliases: &[], build: |sc, sd| Box::new(Tpacf::new(sc, sd)), twin: ("clean/tpacf.cu", "tpacf") },
    Subject { name: "MRI-GRIDDING", aliases: &["GRIDDING"], build: |sc, sd| Box::new(MriGridding::new(sc, sd)), twin: ("clean/mrigridding.cu", "gridding") },
    Subject { name: "SPMV", aliases: &[], build: |sc, sd| Box::new(Spmv::new(sc, sd)), twin: ("clean/spmv.cu", "spmv_csr") },
    Subject { name: "SAD", aliases: &[], build: |sc, sd| Box::new(Sad::new(sc, sd)), twin: ("clean/sad.cu", "sad") },
    Subject { name: "HISTO", aliases: &[], build: |sc, sd| Box::new(Histo::new(sc, sd)), twin: ("clean/histo.cu", "histo") },
    Subject { name: "CUTCP", aliases: &[], build: |sc, sd| Box::new(Cutcp::new(sc, sd)), twin: ("clean/cutcp.cu", "cutcp") },
    Subject { name: "MRI-Q", aliases: &["MRIQ"], build: |sc, sd| Box::new(MriQ::new(sc, sd)), twin: ("clean/mriq.cu", "mriq") },
    Subject { name: "MEGAKV-INSERT", aliases: &[], build: |sc, sd| kv(OpKind::Insert, sc, sd), twin: ("clean/megakv.cu", "kv_insert") },
    Subject { name: "MEGAKV-SEARCH", aliases: &[], build: |sc, sd| kv(OpKind::Search, sc, sd), twin: ("clean/megakv.cu", "kv_search") },
    Subject { name: "MEGAKV-DELETE", aliases: &[], build: |sc, sd| kv(OpKind::Delete, sc, sd), twin: ("clean/megakv.cu", "kv_delete") },
];

/// The first `N` names of [`SUBJECTS`].
const fn names<const N: usize>() -> [&'static str; N] {
    let mut out = [""; N];
    let mut i = 0;
    while i < N {
        out[i] = SUBJECTS[i].name;
        i += 1;
    }
    out
}

/// Names of the Table I suite, in the paper's table order.
pub const WORKLOAD_NAMES: [&str; 8] = names();

/// Names of every subject (the suite, then the MEGA-KV batches).
pub const SUBJECT_NAMES: [&str; 11] = names();

/// Resolves a subject by name or alias, case-insensitively. Every entry
/// point that takes a subject name goes through here and uses
/// [`Subject::name`] afterwards.
pub fn subject(name: &str) -> Option<&'static Subject> {
    SUBJECTS.iter().find(|s| {
        std::iter::once(&s.name)
            .chain(s.aliases)
            .any(|n| n.eq_ignore_ascii_case(name))
    })
}

/// Builds the Table I suite at `scale`, in the paper's table order.
pub fn all_workloads(scale: Scale, seed: u64) -> Vec<Box<dyn Workload>> {
    SUBJECTS[..WORKLOAD_NAMES.len()]
        .iter()
        .map(|s| (s.build)(scale, seed))
        .collect()
}

/// Builds a single subject by the name [`subject`] resolves.
pub fn workload_by_name(name: &str, scale: Scale, seed: u64) -> Option<Box<dyn Workload>> {
    subject(name).map(|s| (s.build)(scale, seed))
}

/// A fresh simulated machine: `dev` over a persistent memory whose cache
/// has `cache_lines` lines of the default 128 bytes in `associativity`
/// ways. The cache geometry is the knob callers differ in: it decides how
/// early natural evictions — LP's persistence mechanism — start.
pub fn world(dev: DeviceConfig, cache_lines: usize, associativity: usize) -> (Gpu, PersistMemory) {
    let mem = PersistMemory::new(NvmConfig {
        cache_lines,
        associativity,
        ..NvmConfig::default()
    });
    (Gpu::new(dev), mem)
}

/// The tests' machine: the small test device over a 512-line cache, so
/// evictions (natural persistence) happen early and often — the regime LP
/// cares about.
pub fn test_world() -> (Gpu, PersistMemory) {
    world(DeviceConfig::test_gpu(), 512, 8)
}

/// Stages `w` for one measured launch under `config` and returns the LP
/// runtime sized for it.
///
/// The order is fixed: inputs, then the warm-up launch a populated store
/// needs, then the runtime's tables (so every allocation precedes the
/// launch), then a full flush — everything staged is durable, like data
/// loaded from a file, and the launch starts from a clean cache — and
/// last a stats reset, so the launch's counters are its own.
pub fn stage(
    w: &mut dyn Workload,
    gpu: &Gpu,
    mem: &mut PersistMemory,
    config: &LpConfig,
) -> LpRuntime {
    w.setup(mem);
    w.warm_up(gpu, mem);
    let lc = w.launch_config();
    let rt = LpRuntime::setup(mem, lc.num_blocks(), lc.threads_per_block(), config.clone());
    mem.flush_all();
    mem.reset_stats();
    rt
}

/// [`stage`] without a runtime: the uninstrumented baseline launches from
/// the same durable inputs, clean cache and zeroed counters.
pub fn stage_baseline(w: &mut dyn Workload, gpu: &Gpu, mem: &mut PersistMemory) {
    w.setup(mem);
    w.warm_up(gpu, mem);
    mem.flush_all();
    mem.reset_stats();
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_lp::ResilientRecovery;
    use lp_directive::analysis::footprint::source_footprints;
    use nvm::Addr;
    use simt::{AccessObserver, CrashPlan};
    use std::collections::BTreeMap;

    #[test]
    fn the_table_is_complete_and_self_consistent() {
        // Test-scale launch geometry, in table order: the crash campaign's
        // pruning arithmetic and its goldens depend on these counts. The
        // kernel names are what `LaunchStats::kernel` reports.
        let blocks = [64, 8, 64, 16, 128, 8, 8, 16, 4, 4, 2];
        let kernels = [
            "tmm",
            "tpacf",
            "mri-gridding",
            "spmv",
            "sad",
            "histo",
            "cutcp",
            "mri-q",
            "megakv-insert",
            "megakv-search",
            "megakv-delete",
        ];
        for ((row, blocks), kernel) in SUBJECTS.iter().zip(blocks).zip(kernels) {
            let mut w = (row.build)(Scale::Test, 1);
            let planned = w.launch_config();
            assert_eq!(planned.num_blocks(), blocks, "{}", row.name);

            // The geometry planned before `setup` is the staged kernel's,
            // and the kernel reports the row's name.
            let (gpu, mut mem) = test_world();
            stage_baseline(w.as_mut(), &gpu, &mut mem);
            let k = w.kernel(None);
            assert_eq!(k.config(), planned, "{}", row.name);
            assert_eq!(k.name(), kernel, "{}", row.name);

            // The name, any case of it and every alias resolve to this row
            // and to no other.
            for spelling in std::iter::once(&row.name).chain(row.aliases) {
                for s in [spelling.to_string(), spelling.to_ascii_lowercase()] {
                    let found = subject(&s).unwrap_or_else(|| panic!("{s} resolves"));
                    assert!(std::ptr::eq(found, row), "{s} -> {}", found.name);
                    assert!(workload_by_name(&s, Scale::Test, 1).is_some());
                }
            }

            // The clean twin is in the lint corpus and defines the kernel.
            let (file, kernel) = row.twin;
            let (_, src) = lp_directive::fixtures::CLEAN
                .iter()
                .find(|(name, _)| *name == file)
                .unwrap_or_else(|| panic!("{}: {file} is not a clean fixture", row.name));
            assert!(
                source_footprints(src).iter().any(|fp| fp.kernel == kernel),
                "{file} defines no kernel `{kernel}`"
            );
        }
        // MEGA-KV's rows follow `OpKind::ALL`, which callers that build a
        // batch of their own size zip them with.
        for (op, row) in OpKind::ALL.iter().zip(&SUBJECTS[WORKLOAD_NAMES.len()..]) {
            assert_eq!(row.twin.1, format!("kv_{}", op.name()), "{}", row.name);
        }
        assert!(subject("NOPE").is_none());
        assert!(workload_by_name("NOPE", Scale::Test, 0).is_none());
    }

    #[test]
    fn every_subject_passes_the_end_to_end_kit() {
        // Per row, in table order: how many global stores into the LP run
        // the crash check loses power.
        let crash_after = [800, 100, 500, 400, 2000, 300, 300, 500, 500, 300, 200];
        let lp = LpConfig::recommended();
        for (row, crash_after) in SUBJECTS.iter().zip(crash_after) {
            let name = row.name;

            // The uninstrumented baseline matches the CPU reference.
            let (gpu, mut mem) = test_world();
            let mut w = (row.build)(Scale::Test, 1);
            stage_baseline(w.as_mut(), &gpu, &mut mem);
            gpu.launch(w.kernel(None).as_ref(), &mut mem)
                .expect("launch");
            assert!(w.verify(&mut mem), "{name}: baseline output wrong");

            // So does the LP-instrumented run, and once flushed every one
            // of its regions validates.
            let (gpu, mut mem) = test_world();
            let mut w = (row.build)(Scale::Test, 2);
            let rt = stage(w.as_mut(), &gpu, &mut mem, &lp);
            let kernel = w.kernel(Some(&rt));
            gpu.launch(kernel.as_ref(), &mut mem).expect("launch");
            assert!(w.verify(&mut mem), "{name}: LP output wrong");
            mem.flush_all();
            let failed = rt.failing_regions(kernel.as_ref(), &mut mem);
            assert!(failed.is_empty(), "{name}: clean run fails {failed:?}");

            // The headline property: crash mid-kernel, recover, end with
            // the exact crash-free output.
            let (gpu, mut mem) = test_world();
            let mut w = (row.build)(Scale::Test, 3);
            let rt = stage(w.as_mut(), &gpu, &mut mem, &lp);
            let kernel = w.kernel(Some(&rt));
            let plan = CrashPlan::after_stores(crash_after);
            let outcome = gpu
                .launch_with_plan(kernel.as_ref(), &mut mem, plan)
                .expect("launch");
            assert!(
                outcome.crashed(),
                "{name}: {crash_after} stores is no crash"
            );
            let report = ResilientRecovery::new(&gpu).recover(kernel.as_ref(), &rt, &mut mem);
            assert!(report.all_durable, "{name}: no convergence: {report:?}");
            assert!(w.verify(&mut mem), "{name}: output wrong after recovery");
        }
    }

    /// Every protected store's address, per block, in issue order.
    #[derive(Default)]
    struct ProtectedStores(BTreeMap<u64, Vec<u64>>);

    impl AccessObserver for ProtectedStores {
        fn on_protected_store(&mut self, block: u64, addr: u64) {
            self.0.entry(block).or_default().push(addr);
        }
    }

    #[test]
    fn every_subjects_read_back_sees_its_outputs() {
        // A block's read-back (`Region::region_images`) must read what its
        // protected stores wrote: one flipped byte in one of them fails
        // that block's validation, and no other block's. MEGA-KV's delete
        // issues no protected store — it folds the post-state of its
        // tombstone CAS — so the observer sees nothing to flip there.
        let no_protected_store = ["MEGAKV-DELETE"];
        let mut unobserved = Vec::new();
        for row in &SUBJECTS {
            let name = row.name;
            let (gpu, mut mem) = test_world();
            let mut w = (row.build)(Scale::Test, 4);
            let rt = stage(w.as_mut(), &gpu, &mut mem, &LpConfig::recommended());
            let kernel = w.kernel(Some(&rt));
            let mut stores = ProtectedStores::default();
            gpu.launch_observed(kernel.as_ref(), &mut mem, &mut stores)
                .expect("launch");
            mem.flush_all();
            // The middle block that stored anything, and its first store.
            let blocks: Vec<u64> = stores.0.keys().copied().collect();
            let Some(&block) = blocks.get(blocks.len() / 2) else {
                unobserved.push(name);
                continue;
            };
            let addr = Addr::new(stores.0[&block][0]);
            let v = mem.read_u32(addr);
            mem.write_u32(addr, v ^ 0xFF);
            assert_eq!(
                rt.failing_regions(kernel.as_ref(), &mut mem),
                [block],
                "{name}: one byte flipped at {addr:?}, a store of block {block}"
            );
        }
        assert_eq!(unobserved, no_protected_store);
    }

    #[test]
    fn every_subjects_read_back_books_what_it_reads() {
        // What recovery's read-back of one block books, per row in
        // table order: the loads of the first and of the last block. A
        // suite kernel and MEGA-KV's search read one word per store image
        // the block folded; insert and delete look each of their keys up
        // in the store, a deleted key through both of its buckets. Each
        // load is one cache access, and a read-back stores nothing.
        let loads = [
            [16, 16],
            [32, 32],
            [16, 16],
            [64, 64],
            [64, 64],
            [256, 256],
            [128, 128],
            [128, 128],
            [569, 961],
            [256, 256],
            [16384, 16384],
        ];
        for (row, want) in SUBJECTS.iter().zip(loads) {
            let name = row.name;
            let (gpu, mut mem) = test_world();
            let mut w = (row.build)(Scale::Test, 5);
            let rt = stage(w.as_mut(), &gpu, &mut mem, &LpConfig::recommended());
            let kernel = w.kernel(Some(&rt));
            gpu.launch(kernel.as_ref(), &mut mem).expect("launch");
            mem.flush_all();
            let last = w.launch_config().num_blocks() - 1;
            let got = [0, last].map(|block| {
                mem.reset_stats();
                kernel.read_back(&mut mem, block, &mut Vec::new());
                let s = mem.stats();
                assert_eq!(s.store_ops, 0, "{name}: block {block}'s read-back stores");
                assert_eq!(
                    s.cache_hits + s.cache_misses,
                    s.load_ops,
                    "{name}: block {block}'s loads are not one access each"
                );
                s.load_ops
            });
            assert_eq!(got, want, "{name}: loads of the first and last read-back");
        }
    }

    #[test]
    fn block_count_ordering_matches_paper() {
        // Table III ordering: SAD > MRI-GRIDDING > TMM > SPMV > MRI-Q >
        // TPACF > CUTCP > HISTO must hold at Bench scale.
        let order = [
            "SAD",
            "MRI-GRIDDING",
            "TMM",
            "SPMV",
            "MRI-Q",
            "TPACF",
            "CUTCP",
            "HISTO",
        ];
        let mut prev = u64::MAX;
        for name in order {
            let w = workload_by_name(name, Scale::Bench, 0).unwrap();
            let blocks = w.launch_config().num_blocks();
            assert!(
                blocks <= prev,
                "{name} has {blocks} blocks, breaking the paper's ordering"
            );
            prev = blocks;
        }
    }
}
