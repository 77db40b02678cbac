//! E9 — §VII-4: Lazy Persistency on a real application. MEGA-KV-style
//! batched key-value store; the paper reports LP overheads of 3.4 %
//! (search), 5.2 % (delete) and 2.1 % (insert) for 16 K-record batches.

use crate::{fmt_overhead, measure_configs, Args, Failure, Table};
use gpu_lp::LpConfig;
use lp_kernels::{KvBatch, Scale, Workload, SUBJECTS, WORKLOAD_NAMES};
use megakv::app::OpKind;

/// Records per batch (§VII-4: "insert, search & delete 16K recs") — the
/// paper's sizing, which the crash campaign's subject rows do not share.
fn records(scale: Scale) -> usize {
    match scale {
        Scale::Test => 2_048,
        Scale::Bench | Scale::Paper => 16_384,
    }
}

/// A §VII-4 batch of `op`.
pub(crate) fn batch(op: OpKind, scale: Scale, seed: u64) -> Box<dyn Workload> {
    Box::new(KvBatch::new(op, records(scale), seed))
}

pub(crate) fn run(args: &Args) -> Result<(), Failure> {
    let records = records(args.scale);

    println!("# §VII-4 — MEGA-KV with LP (global array + shuffle), {records} records\n");
    let mut table = Table::new(&["Operation", "Baseline (ns)", "LP (ns)", "Overhead"]);
    let mut json_rows = Vec::new();

    // The subject table's MEGA-KV rows name the batches, in `OpKind::ALL`
    // order.
    for (op, row) in OpKind::ALL
        .into_iter()
        .zip(&SUBJECTS[WORKLOAD_NAMES.len()..])
    {
        let build = || batch(op, args.scale, args.seed);
        let m = &measure_configs(row.name, &build, false, &[LpConfig::recommended()])[0];
        let (base_ns, lp_ns) = (m.baseline.kernel_ns, m.lp.kernel_ns);
        table.row(&[
            op.name().to_string(),
            format!("{base_ns:.0}"),
            format!("{lp_ns:.0}"),
            fmt_overhead(m.overhead),
        ]);
        json_rows.push(serde_json::json!({
            "operation": op.name(),
            "baseline_ns": base_ns,
            "lp_ns": lp_ns,
            "overhead": m.overhead,
        }));
    }
    println!("{}", table.to_markdown());
    println!("(paper: search 3.4%, delete 5.2%, insert 2.1%)");
    if args.json {
        println!("{}", serde_json::to_string_pretty(&json_rows).unwrap());
    }
    Ok(())
}
