//! `compare A.json B.json`: B (the change) against A (the parent), one row
//! per (workload, end-to-end metric), with the bound `BENCHMARK.json` states
//! (the tables in [`crate::names`]; a unit test keeps the two equal).
//!
//! * `regressed`  — B's median is worse than A's by more than the bound
//!   (for `setup_s`, also by more than [`SETUP_FLOOR_S`] seconds);
//! * `improved`   — better by more than the bound;
//! * `unresolved` — the repetition-to-repetition spread of either side is
//!   wider than the bound, so neither of the above can be told from noise,
//!   unless every sample of one side beats every sample of the other;
//! * `unchanged`  — otherwise.
//!
//! Exits non-zero on any `regressed`, on a rise of `fail_frac`, and on any
//! † count or `sim_digest` that differs.

use crate::names::{is_exact, END_TO_END, PER_LAYER, SETUP_FLOOR_S};
use crate::stats::{median, quartile_spread};
use serde::Value;
use std::process::ExitCode;

/// Outcome of one row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Better by more than the bound.
    Improved,
    /// Within the bound, spread narrower than the bound.
    Unchanged,
    /// Spread wider than the bound and the sample sets overlap.
    Unresolved,
    /// Worse by more than the bound.
    Regressed,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Unresolved => "unresolved",
            Verdict::Regressed => "regressed",
        }
    }
}

/// Judges samples `b` against `a` for a metric where `lower_is_better`,
/// with relative `bound` and an absolute floor on what counts as a change.
pub fn judge(a: &[f64], b: &[f64], lower_is_better: bool, bound: f64, floor: f64) -> Verdict {
    let (ma, mb) = (median(a), median(b));
    // Positive = B is worse.
    let worse_by = if lower_is_better { mb - ma } else { ma - mb };
    let share = worse_by / ma.abs().max(f64::MIN_POSITIVE);
    let spread = quartile_spread(a).max(quartile_spread(b));
    let beats = |x: &[f64], y: &[f64]| {
        // Every sample of x is better than every sample of y.
        x.iter().all(|&xv| {
            y.iter()
                .all(|&yv| if lower_is_better { xv < yv } else { xv > yv })
        })
    };
    if worse_by.abs() <= floor {
        return if spread > bound {
            Verdict::Unresolved
        } else {
            Verdict::Unchanged
        };
    }
    if spread > bound {
        return if beats(b, a) {
            Verdict::Improved
        } else if beats(a, b) {
            Verdict::Regressed
        } else {
            Verdict::Unresolved
        };
    }
    if share > bound {
        Verdict::Regressed
    } else if share < -bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

fn samples(e2e: &Value, metric: &str) -> Vec<f64> {
    let from_reps = e2e
        .get("samples")
        .and_then(|s| s.get(metric))
        .and_then(Value::as_array)
        .map(|xs| xs.iter().filter_map(Value::as_f64).collect::<Vec<_>>())
        .unwrap_or_default();
    if !from_reps.is_empty() {
        return from_reps;
    }
    // Measured once per process (peak RSS): a single sample, no spread.
    e2e.get("metrics")
        .and_then(|m| m.get(metric))
        .and_then(Value::as_f64)
        .into_iter()
        .collect()
}

fn workloads(doc: &Value) -> Vec<(&str, &Value)> {
    doc.get("workloads")
        .and_then(Value::as_array)
        .map(|ws| {
            ws.iter()
                .filter_map(|w| Some((w.get("name")?.as_str()?, w)))
                .collect()
        })
        .unwrap_or_default()
}

/// Entry point of the `compare` subcommand.
pub fn main(args: &[String]) -> Result<ExitCode, String> {
    let [a_path, b_path] = args else {
        return Err("compare takes exactly two result files".to_string());
    };
    let read = |p: &String| -> Result<Value, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
        serde_json::from_str(&text).map_err(|e| format!("{p}: {e}"))
    };
    let (a, b) = (read(a_path)?, read(b_path)?);
    let mut bad = 0u32;

    println!(
        "{:<18} {:<12} {:>12} {:>12} {:>8} {:>7} {:>7}  verdict",
        "workload", "metric", "A median", "B median", "change", "spread", "bound"
    );
    for (name, wa) in workloads(&a) {
        let Some((_, wb)) = workloads(&b).into_iter().find(|(n, _)| *n == name) else {
            println!("{name:<18} missing from {b_path}");
            bad += 1;
            continue;
        };
        let (ea, eb) = (wa.get("e2e"), wb.get("e2e"));
        let (Some(ea), Some(eb)) = (ea, eb) else {
            return Err(format!("{name}: a result file lacks the e2e section"));
        };
        for m in &END_TO_END {
            let (sa, sb) = (samples(ea, m.name), samples(eb, m.name));
            if sa.is_empty() || sb.is_empty() {
                return Err(format!("{name}: no samples of {}", m.name));
            }
            let lower = m.better == "lower";
            let floor = if m.name == "setup_s" {
                SETUP_FLOOR_S
            } else {
                0.0
            };
            let verdict = judge(&sa, &sb, lower, m.bound, floor);
            let (ma, mb) = (median(&sa), median(&sb));
            println!(
                "{:<18} {:<12} {:>12.5} {:>12.5} {:>+7.1}% {:>6.1}% {:>6.1}%  {}",
                name,
                m.name,
                ma,
                mb,
                (mb - ma) / ma * 100.0,
                quartile_spread(&sa).max(quartile_spread(&sb)) * 100.0,
                m.bound * 100.0,
                verdict.name()
            );
            bad += u32::from(verdict == Verdict::Regressed);
        }

        let frac = |e: &Value| e.get("fail_frac").and_then(Value::as_f64).unwrap_or(1.0);
        if frac(eb) > frac(ea) {
            println!(
                "{name:<18} fail_frac rose from {} to {}",
                frac(ea),
                frac(eb)
            );
            bad += 1;
        }
        let digest = |e: &Value| {
            e.get("sim_digest")
                .and_then(Value::as_str)
                .map(str::to_string)
        };
        if digest(ea) != digest(eb) {
            println!(
                "{name:<18} sim_digest differs: {:?} vs {:?}",
                digest(ea),
                digest(eb)
            );
            bad += 1;
        }
        if let (Some(la), Some(lb)) = (wa.get("layers"), wb.get("layers")) {
            for m in PER_LAYER.iter().filter(|m| is_exact(m.name)) {
                let value = |l: &Value| l.get("metrics")?.get(m.name)?.as_f64();
                if value(la) != value(lb) {
                    println!(
                        "{name:<18} exact count {} differs: {:?} vs {:?}",
                        m.name,
                        value(la),
                        value(lb)
                    );
                    bad += 1;
                }
            }
        }
    }
    if bad == 0 {
        println!("no regression; every exact count and sim_digest agrees");
        Ok(ExitCode::SUCCESS)
    } else {
        println!("{bad} finding(s)");
        Ok(ExitCode::FAILURE)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TIGHT_A: [f64; 5] = [1.00, 1.01, 0.99, 1.00, 1.02];

    #[test]
    fn within_bound_is_unchanged() {
        let b = [1.03, 1.04, 1.02, 1.03, 1.05];
        assert_eq!(judge(&TIGHT_A, &b, true, 0.10, 0.0), Verdict::Unchanged);
    }

    #[test]
    fn beyond_bound_is_regressed_or_improved_by_direction() {
        let slow = [1.20, 1.21, 1.19, 1.20, 1.22];
        assert_eq!(judge(&TIGHT_A, &slow, true, 0.10, 0.0), Verdict::Regressed);
        assert_eq!(judge(&slow, &TIGHT_A, true, 0.10, 0.0), Verdict::Improved);
        // Throughput: higher is better, so the same numbers flip.
        assert_eq!(judge(&TIGHT_A, &slow, false, 0.10, 0.0), Verdict::Improved);
        assert_eq!(judge(&slow, &TIGHT_A, false, 0.10, 0.0), Verdict::Regressed);
    }

    #[test]
    fn wide_spread_is_unresolved_unless_the_sets_separate() {
        let noisy_a = [1.0, 1.4, 0.8, 1.2, 0.9];
        let noisy_b = [1.1, 1.5, 0.85, 1.3, 1.0];
        assert_eq!(
            judge(&noisy_a, &noisy_b, true, 0.10, 0.0),
            Verdict::Unresolved
        );
        // Noisy but disjoint: every B sample beats every A sample.
        let fast_b = [0.5, 0.7, 0.4, 0.6, 0.45];
        assert_eq!(judge(&noisy_a, &fast_b, true, 0.10, 0.0), Verdict::Improved);
        assert_eq!(
            judge(&fast_b, &noisy_a, true, 0.10, 0.0),
            Verdict::Regressed
        );
    }

    #[test]
    fn absolute_floor_mutes_tiny_setup_changes() {
        // 10 ms to 14 ms is +40 % but far below the 50 ms floor.
        let a = [0.010, 0.0101, 0.0099];
        let b = [0.014, 0.0141, 0.0139];
        assert_eq!(judge(&a, &b, true, 0.25, 0.05), Verdict::Unchanged);
        assert_eq!(judge(&a, &b, true, 0.25, 0.0), Verdict::Regressed);
    }

    #[test]
    fn single_samples_have_no_spread() {
        assert_eq!(
            judge(&[100.0], &[104.0], true, 0.10, 0.0),
            Verdict::Unchanged
        );
        assert_eq!(
            judge(&[100.0], &[120.0], true, 0.10, 0.0),
            Verdict::Regressed
        );
    }
}
