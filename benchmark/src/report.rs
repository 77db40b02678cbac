//! Result shapes: the contract line the driver parses, the per-workload
//! detail `run` aggregates, and `BENCHMARK.json` itself.

use crate::names::{MetricSpec, END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};
use serde::Value;
use serde_json::json;
use std::collections::BTreeMap;

/// Per-layer metric values of one traced run, by name.
#[derive(Debug, Default, Clone)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    /// Sets metric `name`.
    ///
    /// # Panics
    ///
    /// Panics on a name outside [`PER_LAYER`]: a typo would otherwise
    /// silently report 0 under the real name.
    pub fn set(&mut self, name: &str, value: f64) {
        let spec = PER_LAYER
            .iter()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("{name:?} is not a per-layer metric"));
        // Adding zero turns the `-0.0` an empty float sum yields into `0.0`.
        self.0.insert(spec.name, value + 0.0);
    }

    /// The value of `name`; 0 when the workload never entered that layer.
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// Every per-layer metric in table order.
    pub fn all(&self) -> Vec<(&'static MetricSpec, f64)> {
        PER_LAYER.iter().map(|m| (m, self.get(m.name))).collect()
    }
}

/// `{"name": {"value": v, "unit": u}, ...}` as the contract wants it.
pub fn metrics_object(values: &[(&MetricSpec, f64)]) -> Value {
    Value::Object(
        values
            .iter()
            .map(|(m, v)| (m.name.to_string(), json!({"value": *v, "unit": m.unit})))
            .collect(),
    )
}

/// The last line of a driver run's standard output.
pub fn contract_line(attempted: u64, failed: u64, correct: bool, metrics: Value) -> String {
    let line = json!({
        "correct": correct,
        "attempted": attempted.max(1),
        "failed": failed,
        "metrics": metrics,
    });
    serde_json::to_string(&line).expect("a value tree always renders")
}

fn metric_entry(m: &MetricSpec, bounded: bool) -> Value {
    if bounded {
        json!({"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound})
    } else {
        json!({"name": m.name, "unit": m.unit, "better": m.better})
    }
}

/// The contents of `BENCHMARK.json`, generated from the tables in
/// [`crate::names`].
pub fn benchmark_json() -> Value {
    json!({
        "command": [
            "cargo", "run", "--release", "--offline", "--quiet",
            "--manifest-path", "benchmark/Cargo.toml", "--", "drive"
        ],
        "paths": ["benchmark"],
        "run_seconds": RUN_SECONDS,
        "workloads": WORKLOADS
            .iter()
            .map(|w| json!({"name": w.name, "why": w.why}))
            .collect::<Vec<_>>(),
        "end_to_end": END_TO_END.iter().map(|m| metric_entry(m, true)).collect::<Vec<_>>(),
        "per_layer": PER_LAYER.iter().map(|m| metric_entry(m, false)).collect::<Vec<_>>(),
    })
}

/// Renders `v` with a fixed number of significant digits for the tables
/// `run` prints (the JSON keeps every digit).
pub fn human(v: f64) -> String {
    if v == 0.0 {
        "0".to_string()
    } else if v.abs() >= 1e6 || v.abs() < 1e-3 {
        format!("{v:.4e}")
    } else if v == v.trunc() {
        format!("{v:.0}")
    } else {
        format!("{v:.4}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contract_line_has_exactly_the_four_keys() {
        let m = metrics_object(&[(&END_TO_END[0], 0.25)]);
        let line = contract_line(10, 0, true, m);
        let back: Value = serde_json::from_str(&line).unwrap();
        let keys: Vec<&str> = back
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(
            back.get("metrics").unwrap().get("setup_s").unwrap(),
            &json!({"value": 0.25f64, "unit": "s"})
        );
        assert!(!line.contains('\n'));
    }

    #[test]
    fn attempted_is_never_zero() {
        let line = contract_line(0, 0, false, json!({}));
        assert!(line.contains("\"attempted\":1"));
    }

    #[test]
    #[should_panic(expected = "not a per-layer metric")]
    fn unknown_metric_names_are_rejected() {
        Metrics::default().set("nvm.replay_z", 1.0);
    }

    #[test]
    fn unset_metrics_read_zero_and_all_are_listed() {
        let mut m = Metrics::default();
        m.set("nvm.replay_s", 1.5);
        assert_eq!(m.get("nvm.replay_s"), 1.5);
        assert_eq!(m.get("simt.launch_s"), 0.0);
        assert_eq!(m.all().len(), PER_LAYER.len());
    }

    #[test]
    fn benchmark_json_stays_inside_the_contract_limits() {
        let v = benchmark_json();
        let keys: Vec<&str> = v
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        assert!((1..=60).contains(&RUN_SECONDS));
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == "lower"));
        let text = serde_json::to_string_pretty(&v).unwrap();
        assert!(text.len() < 64 * 1024);
    }
}
