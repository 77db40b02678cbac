//! E5 — Table IV: parallel (warp-shuffle) vs. sequential (through-memory)
//! checksum reduction. Bandwidth-bound benchmarks suffer most without the
//! shuffle (paper: SPMV 22.1 % → 437.6 % under Quad).

use crate::{fmt_overhead, Args, Failure, GeoMean, Sweep};
use gpu_lp::{LpConfig, ReduceStrategy};
use lp_kernels::WORKLOAD_NAMES;

pub(crate) fn run(args: &Args) -> Result<(), Failure> {
    Sweep {
        title: "# Table IV — overhead with (shfl) and without (no) parallel reduction",
        header: &["Quad+shfl", "Quad+no", "Cuckoo+shfl", "Cuckoo+no"],
        workloads: &WORKLOAD_NAMES,
        nvm_mode: false,
        configs: &[
            LpConfig::quad(),
            LpConfig::quad().with_reduce(ReduceStrategy::SequentialMemory),
            LpConfig::cuckoo(),
            LpConfig::cuckoo().with_reduce(ReduceStrategy::SequentialMemory),
        ],
        cells: |m| m.iter().map(|m| fmt_overhead(m.overhead)).collect(),
        geomean: Some(GeoMean {
            values: |m| m.iter().map(|m| m.slowdown).collect(),
            cells: |g| g.iter().map(|g| fmt_overhead(g - 1.0)).collect(),
        }),
        json: |name, m| {
            serde_json::json!({
                "benchmark": name,
                "quad_shfl": m[0].overhead,
                "quad_no_shfl": m[1].overhead,
                "cuckoo_shfl": m[2].overhead,
                "cuckoo_no_shfl": m[3].overhead,
            })
        },
        note: "(paper: geomean 29.4%→63.3% for Quad and 31.7%→65.8% for Cuckoo; bandwidth-bound kernels hit hardest)",
    }
    .run(args)
}
