//! E0 — the motivating comparison (§I/§II): Eager Persistency (per-store
//! cache-line write-back + persist barriers + durable commit tokens) vs.
//! Lazy Persistency (checksums + natural eviction). The paper cites
//! 20–40 % typical EP slowdowns and large write amplification against
//! LP's ~2 % and near-zero extra writes.

use crate::{fmt_overhead, Args, Failure, GeoMean, Sweep};
use gpu_lp::{BackendKind, LpConfig};
use lp_kernels::WORKLOAD_NAMES;

fn fmt_write_incr(amplification: f64) -> String {
    format!("{:+.1}%", (amplification - 1.0) * 100.0)
}

pub(crate) fn run(args: &Args) -> Result<(), Failure> {
    Sweep {
        title: "# Eager vs. Lazy Persistency (NVM timing)",
        header: &[
            "LP overhead",
            "EP-logged overhead",
            "EP-strict overhead",
            "LP write incr",
            "EP-logged write incr",
            "EP-strict write incr",
        ],
        workloads: &WORKLOAD_NAMES,
        nvm_mode: true,
        configs: &[
            LpConfig::recommended(),
            LpConfig::eager_logged(),
            LpConfig::for_backend(BackendKind::Eager),
        ],
        cells: |m| {
            let overheads = m.iter().map(|m| fmt_overhead(m.overhead));
            let writes = m.iter().map(|m| fmt_write_incr(m.write_amplification()));
            overheads.chain(writes).collect()
        },
        geomean: Some(GeoMean {
            values: |m| {
                let slowdowns = m.iter().map(|m| m.slowdown);
                slowdowns
                    .chain(m.iter().map(|m| m.write_amplification()))
                    .collect()
            },
            cells: |g| {
                let overheads = g[..3].iter().map(|g| fmt_overhead(g - 1.0));
                overheads
                    .chain(g[3..].iter().map(|&g| fmt_write_incr(g)))
                    .collect()
            },
        }),
        json: |name, m| {
            serde_json::json!({
                "benchmark": name,
                "lp_overhead": m[0].overhead,
                "ep_logged_overhead": m[1].overhead,
                "ep_strict_overhead": m[2].overhead,
                "lp_write_amp": m[0].write_amplification(),
                "ep_logged_write_amp": m[1].write_amplification(),
                "ep_strict_write_amp": m[2].write_amplification(),
            })
        },
        note: "(paper's motivation: EP costs 20-40% at run time; LP is the first ~2% technique)",
    }
    .run(args)
}
