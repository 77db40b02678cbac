//! E3 — §IV-D3: replacing the atomic instructions with plain (racy)
//! read-modify-write sequences. The paper's counter-intuitive finding:
//! removing atomics makes LP *slower* (41.9 % for Cuckoo, >16× for Quad),
//! because emulation needs verification reads and retry spins.

use crate::{fmt_overhead, Args, Failure, GeoMean, Sweep};
use gpu_lp::{AtomicPolicy, LpConfig};
use lp_kernels::WORKLOAD_NAMES;

pub(crate) fn run(args: &Args) -> Result<(), Failure> {
    Sweep {
        title: "# §IV-D3 — atomic vs. racy (no-atomics) slot updates",
        header: &[
            "Quad atomic",
            "Quad racy",
            "Cuckoo atomic",
            "Cuckoo racy",
            "Racy conflicts (Q/C)",
        ],
        workloads: &WORKLOAD_NAMES,
        nvm_mode: false,
        configs: &[
            LpConfig::quad(),
            LpConfig::quad().with_atomic(AtomicPolicy::Racy),
            LpConfig::cuckoo(),
            LpConfig::cuckoo().with_atomic(AtomicPolicy::Racy),
        ],
        cells: |m| {
            let mut cells: Vec<String> = m.iter().map(|m| fmt_overhead(m.overhead)).collect();
            cells.push(format!(
                "{}/{}",
                m[1].table_stats.racy_conflicts, m[3].table_stats.racy_conflicts
            ));
            cells
        },
        geomean: Some(GeoMean {
            values: |m| m.iter().map(|m| m.slowdown).collect(),
            cells: |g| {
                let mut cells: Vec<String> = g.iter().map(|g| fmt_overhead(g - 1.0)).collect();
                cells.push("-".into());
                cells
            },
        }),
        json: |name, m| {
            serde_json::json!({
                "benchmark": name,
                "quad_atomic": m[0].overhead,
                "quad_racy": m[1].overhead,
                "cuckoo_atomic": m[2].overhead,
                "cuckoo_racy": m[3].overhead,
            })
        },
        note: "(paper: without atomics, overheads *increase* — to 41.9% for Cuckoo and >16x for Quad)",
    }
    .run(args)
}
