//! E1 — Figure 5: LP execution-time overhead with the Cuckoo vs.
//! quadratic-probing checksum tables (parallel reduction, lock-free),
//! per benchmark plus the geometric mean.

use crate::{fmt_overhead, Args, Failure, GeoMean, Sweep};
use gpu_lp::LpConfig;
use lp_kernels::WORKLOAD_NAMES;

pub(crate) fn run(args: &Args) -> Result<(), Failure> {
    Sweep {
        title: "# Fig. 5 — overhead vs. baseline, Quad vs. Cuckoo hash tables",
        header: &["Blocks", "Quad", "Cuckoo"],
        workloads: &WORKLOAD_NAMES,
        nvm_mode: false,
        configs: &[LpConfig::quad(), LpConfig::cuckoo()],
        cells: |m| {
            vec![
                m[0].blocks.to_string(),
                fmt_overhead(m[0].overhead),
                fmt_overhead(m[1].overhead),
            ]
        },
        geomean: Some(GeoMean {
            values: |m| vec![m[0].slowdown, m[1].slowdown],
            cells: |g| {
                vec![
                    "-".into(),
                    fmt_overhead(g[0] - 1.0),
                    fmt_overhead(g[1] - 1.0),
                ]
            },
        }),
        json: |name, m| {
            serde_json::json!({
                "benchmark": name,
                "blocks": m[0].blocks,
                "quad_overhead": m[0].overhead,
                "cuckoo_overhead": m[1].overhead,
            })
        },
        note: "(paper: Quad geomean 29.4%, Cuckoo 31.7%; MRI-GRIDDING and SAD are the outliers)",
    }
    .run(args)
}
