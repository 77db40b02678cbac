//! E2 — Table II: hash-table collision counts for quadratic probing vs.
//! cuckoo hashing. The paper uses these to show that the Fig. 5 slowdowns
//! track collisions.

use crate::{Args, Failure, Sweep};
use gpu_lp::LpConfig;
use lp_kernels::WORKLOAD_NAMES;

pub(crate) fn run(args: &Args) -> Result<(), Failure> {
    Sweep {
        title: "# Table II — checksum-table collisions",
        header: &[
            "Blocks",
            "Quadratic Probing",
            "Cuckoo Hashing",
            "Cuckoo rehashes",
        ],
        workloads: &WORKLOAD_NAMES,
        nvm_mode: false,
        configs: &[LpConfig::quad(), LpConfig::cuckoo()],
        cells: |m| {
            vec![
                m[0].blocks.to_string(),
                m[0].table_stats.collisions.to_string(),
                m[1].table_stats.collisions.to_string(),
                m[1].table_stats.rehashes.to_string(),
            ]
        },
        geomean: None,
        json: |name, m| {
            serde_json::json!({
                "benchmark": name,
                "quad_collisions": m[0].table_stats.collisions,
                "cuckoo_collisions": m[1].table_stats.collisions,
                "quad_overhead": m[0].overhead,
                "cuckoo_overhead": m[1].overhead,
            })
        },
        note: "(paper: collisions are largest for TMM, MRI-GRIDDING, SAD and correlate with Fig. 5 overheads)",
    }
    .run(args)
}
