//! E4 — Table III: lock-based vs. lock-free checksum insertion. The paper's
//! headline scalability result: the lock-based (CPU-style) design collapses
//! as the thread-block count grows (SAD: 128 640 blocks → thousands-fold).

use crate::{fmt_slowdown, Args, Failure, GeoMean, Sweep};
use gpu_lp::{LockPolicy, LpConfig};
use lp_kernels::WORKLOAD_NAMES;

pub(crate) fn run(args: &Args) -> Result<(), Failure> {
    Sweep {
        title: "# Table III — lock-based vs. lock-free slowdown",
        header: &[
            "Quad lock-free",
            "Quad lock-based",
            "Cuckoo lock-free",
            "Cuckoo lock-based",
            "no. of blocks",
        ],
        workloads: &WORKLOAD_NAMES,
        nvm_mode: false,
        configs: &[
            LpConfig::quad(),
            LpConfig::quad().with_lock(LockPolicy::GlobalLock),
            LpConfig::cuckoo(),
            LpConfig::cuckoo().with_lock(LockPolicy::GlobalLock),
        ],
        cells: |m| {
            let mut cells: Vec<String> = m.iter().map(|m| fmt_slowdown(m.slowdown)).collect();
            cells.push(m[0].blocks.to_string());
            cells
        },
        geomean: Some(GeoMean {
            values: |m| m.iter().map(|m| m.slowdown).collect(),
            cells: |g| {
                let mut cells: Vec<String> = g.iter().map(|&g| fmt_slowdown(g)).collect();
                cells.push("-".into());
                cells
            },
        }),
        json: |name, m| {
            serde_json::json!({
                "benchmark": name,
                "blocks": m[0].blocks,
                "quad_lock_free": m[0].slowdown,
                "quad_lock_based": m[1].slowdown,
                "cuckoo_lock_free": m[2].slowdown,
                "cuckoo_lock_based": m[3].slowdown,
            })
        },
        note: "(paper: lock-based geomeans 36.62x / 31.73x; the blow-up tracks block count, worst for SAD)",
    }
    .run(args)
}
