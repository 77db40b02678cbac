//! E8 — §VII-3: write amplification under the NVM configuration
//! (326.4 GB/s, 160/480 ns). LP relies on natural evictions — no flushes —
//! so its only extra NVM writes are the checksum stores. The paper measures
//! +0.5 % (SPMV) to +2.2 % (TMM) on GPGPU-sim; we count write-backs in the
//! cache model.

use crate::{Args, Failure, Sweep};
use gpu_lp::LpConfig;

pub(crate) fn run(args: &Args) -> Result<(), Failure> {
    Sweep {
        title: "# §VII-3 — NVM write amplification (array+shuffle, NVM timing)",
        header: &["Baseline NVM writes", "LP NVM writes", "Write increase"],
        workloads: &["SPMV", "TMM", "SAD"], // the trio the paper simulates
        nvm_mode: true,
        configs: &[LpConfig::recommended()],
        cells: |m| {
            vec![
                m[0].baseline_nvm_writes.to_string(),
                m[0].lp_nvm_writes.to_string(),
                format!("{:+.2}%", (m[0].write_amplification() - 1.0) * 100.0),
            ]
        },
        geomean: None,
        json: |name, m| {
            serde_json::json!({
                "benchmark": name,
                "baseline_nvm_writes": m[0].baseline_nvm_writes,
                "lp_nvm_writes": m[0].lp_nvm_writes,
                "write_increase": m[0].write_amplification() - 1.0,
            })
        },
        note:
            "(paper: +0.5% for SPMV up to +2.2% for TMM — only the checksum stores are new writes)",
    }
    .run(args)
}
