//! E6 — Table V: the paper's final design (checksum global array +
//! warp-shuffle reduction + lock-free + modular/parity pair). Paper
//! geomean: **2.1 %** time overhead and 1.63 % space overhead.

use crate::{fmt_overhead, Args, Failure, GeoMean, Sweep};
use gpu_lp::LpConfig;
use lp_kernels::WORKLOAD_NAMES;

pub(crate) fn run(args: &Args) -> Result<(), Failure> {
    Sweep {
        title: "# Table V — final design: global array + shuffle (array+shuffle)",
        header: &[
            "Blocks",
            "array+shuffle",
            "Space overhead",
            "Collisions",
            "Atomics",
        ],
        workloads: &WORKLOAD_NAMES,
        nvm_mode: false,
        configs: &[LpConfig::recommended()],
        cells: |m| {
            let m = &m[0];
            vec![
                m.blocks.to_string(),
                fmt_overhead(m.overhead),
                fmt_overhead(m.space_overhead()),
                m.table_stats.collisions.to_string(),
                (m.lp.atomic_ops - m.baseline.atomic_ops).to_string(),
            ]
        },
        geomean: Some(GeoMean {
            values: |m| vec![m[0].slowdown, 1.0 + m[0].space_overhead()],
            cells: |g| {
                vec![
                    "-".into(),
                    fmt_overhead(g[0] - 1.0),
                    fmt_overhead(g[1] - 1.0),
                    "0".into(),
                    "0".into(),
                ]
            },
        }),
        json: |name, m| {
            serde_json::json!({
                "benchmark": name,
                "overhead": m[0].overhead,
                "space_overhead": m[0].space_overhead(),
            })
        },
        note: "(paper: geomean 2.1% time overhead, range 0.6–6.2%; 1.63% space overhead)",
    }
    .run(args)
}
