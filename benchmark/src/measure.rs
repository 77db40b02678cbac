//! Running one workload in this process: the untraced run behind the
//! end-to-end metrics and the traced run behind the per-layer ones.

use crate::alloc;
use crate::digest::hex;
use crate::golden;
use crate::layers;
use crate::names::{MetricSpec, END_TO_END};
use crate::probes;
use crate::report::Metrics;
use crate::sim::{Counts, Rep};
use crate::stats::{fast_quartile, median};
use crate::trace::{self_times_ns, Tracer};
use crate::workloads::run_rep;
use serde::Value;
use serde_json::json;
use std::time::Instant;

/// How long to keep repeating.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    /// Stop after this many repetitions, whatever the clock says.
    pub reps: Option<u32>,
    /// Otherwise stop once this many seconds were measured (and at least
    /// [`MIN_REPS`] repetitions).
    pub seconds: f64,
}

/// Fewest repetitions a time-limited run takes its statistics over.
pub const MIN_REPS: u32 = 3;

/// What one repetition left behind.
#[derive(Debug, Clone)]
struct RepResult {
    setup_s: f64,
    wall_s: f64,
    items: u64,
    failed: u64,
    digest: u64,
    counts: Counts,
    sim_ns: f64,
    kernel_ns: Vec<(String, f64)>,
}

fn one_rep(name: &str, seed: u64, tracer: &mut Tracer, id: u32) -> RepResult {
    tracer.set_rep(id);
    let mut rep = Rep::new(tracer, seed);
    run_rep(name, &mut rep);
    RepResult {
        setup_s: rep.setup_s,
        wall_s: rep.wall_s,
        items: rep.items,
        failed: rep.failed,
        digest: rep.digest.finish(),
        counts: rep.counts,
        sim_ns: rep.sim_ns,
        kernel_ns: rep.kernel_ns,
    }
}

fn column(reps: &[RepResult], f: impl Fn(&RepResult) -> f64) -> Vec<f64> {
    reps.iter().map(f).collect()
}

/// The result of a run, in the shape `run` aggregates and `compare` reads.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Items attempted over the measured repetitions.
    pub attempted: u64,
    /// Items failed (every item, if the digest check failed).
    pub failed: u64,
    /// Metric values in contract order.
    pub metrics: Vec<(&'static MetricSpec, f64)>,
    /// Everything else worth keeping: samples, digest, environment.
    pub detail: Value,
}

/// Peak resident set of this process in MB (`VmHWM`); 0 where `/proc` does
/// not say.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn parallelism() -> u64 {
    std::thread::available_parallelism().map_or(1, |n| n.get() as u64)
}

/// Checks the digests of a run: identical across repetitions, and equal to
/// the pinned value where one exists for this seed.
fn digest_verdict(name: &str, seed: u64, digests: &[u64]) -> bool {
    let stable = digests.windows(2).all(|w| w[0] == w[1]);
    let as_pinned = golden::pinned(name, seed).is_none_or(|want| want == hex(digests[0]));
    stable && as_pinned
}

fn metrics_value(metrics: &[(&MetricSpec, f64)]) -> Value {
    Value::Object(
        metrics
            .iter()
            .map(|(m, v)| (m.name.to_string(), json!(*v)))
            .collect(),
    )
}

/// The untraced run: repeat until the budget is spent, report the fast
/// quartile of the repetitions (see [`fast_quartile`]). Tracing and
/// allocation counting stay off throughout.
pub fn untraced(name: &str, seed: u64, budget: Budget) -> Outcome {
    let mut tracer = Tracer::new(false);
    let started = Instant::now();
    let mut reps: Vec<RepResult> = Vec::new();
    loop {
        reps.push(one_rep(name, seed, &mut tracer, reps.len() as u32));
        let n = reps.len() as u32;
        let done = match budget.reps {
            Some(want) => n >= want,
            None => n >= MIN_REPS && started.elapsed().as_secs_f64() >= budget.seconds,
        };
        if done {
            break;
        }
    }
    let digests: Vec<u64> = reps.iter().map(|r| r.digest).collect();

    let setups = column(&reps, |r| r.setup_s);
    let walls = column(&reps, |r| r.wall_s);
    let rates = column(&reps, |r| r.items as f64 / r.wall_s);
    let attempted: u64 = reps.iter().map(|r| r.items).sum();
    let digest_ok = digest_verdict(name, seed, &digests);
    // A digest mismatch means the simulation itself changed: no item of
    // this workload can be trusted.
    let failed = if digest_ok {
        reps.iter().map(|r| r.failed).sum()
    } else {
        attempted
    };
    let values: [f64; END_TO_END.len()] = [
        fast_quartile(&setups, true),
        fast_quartile(&walls, true),
        fast_quartile(&rates, false),
        peak_rss_mb(),
    ];
    let metrics: Vec<_> = END_TO_END.iter().zip(values).collect();
    let detail = json!({
        "workload": name,
        "seed": seed,
        "reps": reps.len(),
        "available_parallelism": parallelism(),
        "samples": json!({
            "setup_s": setups,
            "wall_s": walls,
            "items_per_s": rates,
        }),
        "metrics": metrics_value(&metrics),
        "medians": json!({
            "setup_s": median(&setups),
            "wall_s": median(&walls),
            "items_per_s": median(&rates),
        }),
        "attempted": attempted,
        "failed": failed,
        "fail_frac": failed as f64 / attempted.max(1) as f64,
        "sim_digest": hex(digests[0]),
        "sim_digest_ok": digest_ok,
    });
    Outcome {
        attempted,
        failed,
        metrics,
        detail,
    }
}

/// The traced run: alternate untraced and traced repetitions (their ratio
/// is the tracing overhead), derive the per-layer metrics from the spans
/// and the † counts, then run the layer experiments and probes.
pub fn traced(name: &str, seed: u64, budget: Budget) -> (Outcome, Value) {
    let mut tracer = Tracer::new(false);
    let started = Instant::now();
    let mut plain: Vec<RepResult> = Vec::new();
    let mut seen: Vec<RepResult> = Vec::new();
    let mut allocs = alloc::AllocCounts::default();
    loop {
        tracer.set_enabled(false);
        plain.push(one_rep(name, seed, &mut tracer, u32::MAX));
        tracer.set_enabled(true);
        let before = alloc::counts();
        alloc::set_enabled(true);
        seen.push(one_rep(name, seed, &mut tracer, seen.len() as u32));
        alloc::set_enabled(false);
        let after = alloc::counts();
        allocs.allocs += after.allocs - before.allocs;
        allocs.bytes += after.bytes - before.bytes;
        let n = seen.len() as u32;
        let done = match budget.reps {
            Some(want) => n >= want,
            // Half the budget goes to repetitions, half to experiments.
            None => n >= 2 && started.elapsed().as_secs_f64() >= budget.seconds / 2.0,
        };
        if done {
            break;
        }
    }
    let digests: Vec<u64> = plain.iter().chain(&seen).map(|r| r.digest).collect();
    let spans_per_rep = tracer.spans().len() as f64 / seen.len() as f64;

    let mut m = Metrics::default();
    let first = &seen[0];
    for (&count, &v) in &first.counts {
        m.set(count, v);
    }
    let items: u64 = seen.iter().map(|r| r.items).sum();
    m.set("host.allocs_per_item", allocs.allocs as f64 / items as f64);
    m.set(
        "host.alloc_bytes_per_item",
        allocs.bytes as f64 / items as f64,
    );
    m.set(
        "trace.overhead_ratio",
        fast_quartile(&column(&seen, |r| r.wall_s), true)
            / fast_quartile(&column(&plain, |r| r.wall_s), true),
    );
    m.set("trace.spans", spans_per_rep);
    layers::from_spans(&tracer, first.sim_ns, &mut m);

    tracer.set_rep(u32::MAX);
    let exp = layers::experiments(name, seed, &first.kernel_ns, &mut tracer, &mut m);
    probes::run_all(&mut m);

    let attempted = items + exp.attempted;
    let digest_ok = digest_verdict(name, seed, &digests);
    let failed = if digest_ok {
        seen.iter().map(|r| r.failed).sum::<u64>() + exp.failed
    } else {
        attempted
    };
    let metrics = m.all();
    let detail = json!({
        "workload": name,
        "seed": seed,
        "traced_reps": seen.len(),
        "available_parallelism": parallelism(),
        "metrics": metrics_value(&metrics),
        "breakdown": exp.breakdown,
        "attempted": attempted,
        "failed": failed,
        "sim_digest": hex(digests[0]),
        "sim_digest_ok": digest_ok,
    });
    let own = self_times_ns(tracer.spans());
    let spans: Vec<Value> = tracer
        .spans()
        .iter()
        .zip(own)
        .map(|(s, self_ns)| {
            json!({
                "name": s.name,
                "tag": s.tag,
                "start_ns": s.start_ns,
                "end_ns": s.end_ns,
                "parent": s.parent,
                "rep": s.rep,
                "self_ns": self_ns,
            })
        })
        .collect();
    let trace = json!({"workload": name, "seed": seed, "spans": spans});
    (
        Outcome {
            attempted,
            failed,
            metrics,
            detail,
        },
        trace,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digests_must_repeat_and_match_their_pin() {
        let name = "compute_bound";
        let seed = golden::DEFAULT_SEED;
        let pinned = u64::from_str_radix(&golden::pinned(name, seed).unwrap(), 16).unwrap();
        let other = pinned ^ 1;
        assert!(digest_verdict(name, seed, &[pinned, pinned]));
        assert!(!digest_verdict(name, seed, &[other, other]));
        assert!(!digest_verdict(name, seed, &[pinned, other]));
        // A seed without a pin: any digest, the same every time.
        assert!(digest_verdict(name, 8, &[other, other, other]));
        assert!(!digest_verdict(name, 8, &[other, other ^ 2]));
    }
}
