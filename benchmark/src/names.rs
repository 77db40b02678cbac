//! The names every later performance claim is judged by: workloads,
//! end-to-end metrics with their regression bounds, per-layer metrics.
//! `BENCHMARK.json` is generated from these tables (`spec` subcommand) and a
//! unit test keeps the two from drifting.

/// Seconds one driver run measures for (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 15;

/// A workload: name, why it exists, and the repetitions `run` times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkloadSpec {
    /// Name on the command line and in every report.
    pub name: &'static str,
    /// Timed repetitions of a full `run`.
    pub reps: u32,
    /// The unit of `items_per_s`.
    pub item: &'static str,
    /// One line on which layer it stresses and why it was chosen.
    pub why: &'static str,
}

/// The six workloads, in run order.
pub const WORKLOADS: [WorkloadSpec; 6] = [
    WorkloadSpec {
        name: "compute_bound",
        reps: 7,
        item: "simulated global access",
        why: "TMM/TPACF/CUTCP/MRI-Q, 6 MiB cache never evicts: simt BlockCtx, kernel bodies and core checksum folds do the work, nvm only serves hits",
    },
    WorkloadSpec {
        name: "memory_bound",
        reps: 7,
        item: "simulated global access",
        why: "SPMV/SAD/MRI-GRIDDING/HISTO + MEGA-KV on a 64 KiB cache with crash-recover legs: nvm miss/evict/write-back dominates, exercises core recovery",
    },
    WorkloadSpec {
        name: "backend_spectrum",
        reps: 5,
        item: "simulated global access",
        why: "all eight kernels under eager/epoch/SBRP: persist sessions and nvm flush_line/adr_accept, which LP never calls; catches gains bought at their expense",
    },
    WorkloadSpec {
        name: "crash_campaign",
        reps: 5,
        item: "trial",
        why: "1500 pruned crash trials, 5 backends, 2 threads: many tiny worlds, so fault enumeration/oracles, world construction and recovery dominate per-access cost",
    },
    WorkloadSpec {
        name: "service_soak",
        reps: 5,
        item: "completed cycle",
        why: "queue/train/kvtxn x lp/epoch/adaptive x 0/200 bp x 100 crash cycles: apps manifest commits, policy journal and re-entrant resilient recovery",
    },
    WorkloadSpec {
        name: "lint_corpus",
        reps: 7,
        item: "lint call",
        why: "lint/compile over 29 frozen .cu fixtures, simulates nothing: the bypass workload every simulator optimisation must leave unchanged; only directive works",
    },
];

/// A metric: name, unit, and which direction is better.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricSpec {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen
    /// (end-to-end metrics only; `0` for per-layer metrics).
    pub bound: f64,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

/// End-to-end metrics, reported on every workload by the untraced run.
/// The fifth, `fail_frac`, travels as `failed`/`attempted`: it is 0 on a
/// correct tree and a bounded metric may never read 0.
pub const END_TO_END: [MetricSpec; 4] = [
    e2e("setup_s", "s", "lower", 0.25),
    e2e("wall_s", "s", "lower", 0.25),
    e2e("items_per_s", "1/s", "higher", 0.25),
    e2e("peak_rss_mb", "MB", "lower", 0.10),
];

/// `setup_s` regressions below this many seconds are noise, whatever their
/// share (applied by `compare`).
pub const SETUP_FLOOR_S: f64 = 0.05;

/// Per-layer metrics, reported by the traced run. A metric reads 0 on a
/// workload that never enters its layer. † counts (units `count`, and the
/// simulated ratios) must be identical between two commits.
pub const PER_LAYER: [MetricSpec; 99] = [
    // nvm
    layer("nvm.replay_s", "s", "lower"),
    layer("nvm.replay_share", "ratio", "lower"),
    layer("nvm.ns_per_access", "ns", "lower"),
    layer("nvm.cache_hits", "count", "higher"),
    layer("nvm.cache_misses", "count", "lower"),
    layer("nvm.hit_ratio", "ratio", "higher"),
    layer("nvm.natural_evictions", "count", "lower"),
    layer("nvm.nvm_writes", "count", "lower"),
    layer("nvm.explicit_flushes", "count", "lower"),
    layer("nvm.adr_accepts", "count", "lower"),
    layer("nvm.flush_all_s", "s", "lower"),
    layer("nvm.probe.read_hit_ns", "ns", "lower"),
    layer("nvm.probe.write_hit_ns", "ns", "lower"),
    layer("nvm.probe.read_miss_ns", "ns", "lower"),
    layer("nvm.probe.write_evict_ns", "ns", "lower"),
    layer("nvm.probe.flush_line_ns", "ns", "lower"),
    layer("nvm.probe.crash_ns", "ns", "lower"),
    // simt
    layer("simt.launch_s", "s", "lower"),
    layer("simt.self_s", "s", "lower"),
    layer("simt.blocks", "count", "higher"),
    layer("simt.blocks_per_s", "1/s", "higher"),
    layer("simt.atomic_ops", "count", "higher"),
    layer("simt.observed_ratio", "ratio", "lower"),
    layer("simt.host_ns_per_sim_ns", "ratio", "lower"),
    layer("simt.probe.load_ns", "ns", "lower"),
    layer("simt.probe.store_ns", "ns", "lower"),
    layer("simt.probe.atomic_ns", "ns", "lower"),
    layer("simt.probe.shm_ns", "ns", "lower"),
    layer("simt.probe.block_setup_ns", "ns", "lower"),
    // kernels, megakv
    layer("kernels.setup_s", "s", "lower"),
    layer("kernels.verify_s", "s", "lower"),
    layer("kernels.launch_s.TMM", "s", "lower"),
    layer("kernels.launch_s.TPACF", "s", "lower"),
    layer("kernels.launch_s.MRI-GRIDDING", "s", "lower"),
    layer("kernels.launch_s.SPMV", "s", "lower"),
    layer("kernels.launch_s.SAD", "s", "lower"),
    layer("kernels.launch_s.HISTO", "s", "lower"),
    layer("kernels.launch_s.CUTCP", "s", "lower"),
    layer("kernels.launch_s.MRI-Q", "s", "lower"),
    layer("megakv.insert_s", "s", "lower"),
    layer("megakv.search_s", "s", "lower"),
    layer("megakv.delete_s", "s", "lower"),
    // core
    layer("core.runtime_setup_s", "s", "lower"),
    layer("core.lp_extra_s", "s", "lower"),
    layer("core.lp_overhead_geomean", "ratio", "lower"),
    layer("core.table_collisions", "count", "lower"),
    layer("core.recover_s", "s", "lower"),
    layer("core.reexecutions", "count", "lower"),
    layer("core.recovery_rounds", "count", "lower"),
    layer("core.probe.fold_ns.modular", "ns", "lower"),
    layer("core.probe.fold_ns.parity", "ns", "lower"),
    layer("core.probe.fold_ns.adler32", "ns", "lower"),
    layer("core.probe.table_insert_ns.array", "ns", "lower"),
    layer("core.probe.table_insert_ns.quad", "ns", "lower"),
    layer("core.probe.table_insert_ns.cuckoo", "ns", "lower"),
    layer("core.probe.validate_region_ns", "ns", "lower"),
    // persist
    layer("persist.launch_s.eager", "s", "lower"),
    layer("persist.launch_s.epoch", "s", "lower"),
    layer("persist.launch_s.sbrp", "s", "lower"),
    layer("persist.extra_s.eager", "s", "lower"),
    layer("persist.extra_s.epoch", "s", "lower"),
    layer("persist.extra_s.sbrp", "s", "lower"),
    layer("persist.sim_slowdown.eager", "ratio", "lower"),
    layer("persist.sim_slowdown.epoch", "ratio", "lower"),
    layer("persist.sim_slowdown.sbrp", "ratio", "lower"),
    layer("persist.probe.session_ns.eager", "ns", "lower"),
    layer("persist.probe.session_ns.epoch", "ns", "lower"),
    layer("persist.probe.session_ns.sbrp", "ns", "lower"),
    // policy
    layer("policy.probe.observe_ns", "ns", "lower"),
    layer("policy.probe.journal_append_ns", "ns", "lower"),
    layer("policy.probe.journal_replay_ns", "ns", "lower"),
    layer("policy.switches", "count", "lower"),
    // fault
    layer("fault.enumerate_s", "s", "lower"),
    layer("fault.trials_run", "count", "higher"),
    layer("fault.trials_pruned", "count", "higher"),
    layer("fault.trials_crashed", "count", "higher"),
    layer("fault.trial_p50_ms", "ms", "lower"),
    layer("fault.trial_p99_ms", "ms", "lower"),
    layer("fault.thread_speedup", "ratio", "higher"),
    // apps
    layer("apps.step_ms.queue", "ms", "lower"),
    layer("apps.step_ms.train", "ms", "lower"),
    layer("apps.step_ms.kvtxn", "ms", "lower"),
    layer("apps.restore_ms.queue", "ms", "lower"),
    layer("apps.restore_ms.train", "ms", "lower"),
    layer("apps.restore_ms.kvtxn", "ms", "lower"),
    layer("apps.sim_restore_p95_ns", "ns", "lower"),
    // directive, sanitizer
    layer("directive.lint_p50_us", "us", "lower"),
    layer("directive.lint_p90_us", "us", "lower"),
    layer("directive.bytes_per_s", "B/s", "higher"),
    layer("directive.compile_s", "s", "lower"),
    layer("directive.lex_s", "s", "lower"),
    layer("directive.diagnostics", "count", "lower"),
    layer("directive.scale_ratio", "ratio", "lower"),
    layer("sanitizer.overhead_ratio", "ratio", "lower"),
    layer("sanitizer.findings", "count", "lower"),
    // host, trace
    layer("host.allocs_per_item", "count", "lower"),
    layer("host.alloc_bytes_per_item", "B", "lower"),
    layer("trace.overhead_ratio", "ratio", "lower"),
    layer("trace.spans", "count", "lower"),
];

/// † metrics: simulated, so two commits must agree on them exactly.
pub fn is_exact(name: &str) -> bool {
    let Some(spec) = PER_LAYER.iter().find(|m| m.name == name) else {
        return false;
    };
    (spec.unit == "count" && !name.starts_with("host."))
        || matches!(
            name,
            "nvm.hit_ratio" | "core.lp_overhead_geomean" | "apps.sim_restore_p95_ns"
        )
        || name.starts_with("persist.sim_slowdown.")
}

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<&'static WorkloadSpec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;
    use std::collections::BTreeSet;

    fn well_formed(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.as_bytes()[0].is_ascii_alphanumeric()
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
    }

    #[test]
    fn every_name_is_well_formed_and_unique() {
        let mut seen = BTreeSet::new();
        let names = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name));
        for name in names {
            assert!(well_formed(name), "{name:?} breaks [A-Za-z0-9_.-]+");
            assert!(seen.insert(name), "{name:?} is used twice");
        }
        assert!(!well_formed(""));
        assert!(!well_formed("a b"));
        assert!(!well_formed(".a"));
    }

    #[test]
    fn units_and_reasons_fit_the_contract() {
        for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(m.unit.len() <= 16, "{}", m.name);
            assert!(
                m.unit
                    .bytes()
                    .all(|b| b.is_ascii_alphanumeric() || b"_/%.-".contains(&b)),
                "{}: unit {:?}",
                m.name,
                m.unit
            );
            assert!(matches!(m.better, "lower" | "higher"), "{}", m.name);
        }
        for m in END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        for w in WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
    }

    /// `BENCHMARK.json` at the repository root names exactly what `run`
    /// and the driver entry print.
    #[test]
    fn benchmark_json_matches_these_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let on_disk: Value = serde_json::from_str(&text).expect("valid JSON");
        assert_eq!(on_disk, crate::report::benchmark_json());
    }

    #[test]
    fn exact_metrics_are_the_simulated_ones() {
        assert!(is_exact("nvm.cache_hits"));
        assert!(is_exact("persist.sim_slowdown.sbrp"));
        assert!(is_exact("trace.spans"));
        assert!(!is_exact("host.allocs_per_item"));
        assert!(!is_exact("nvm.replay_s"));
        assert!(!is_exact("no.such.metric"));
    }
}
