//! E9 — §VII-4: Lazy Persistency on a real application. MEGA-KV-style
//! batched key-value store; the paper reports LP overheads of 3.4 %
//! (search), 5.2 % (delete) and 2.1 % (insert) for 16 K-record batches.

use crate::measure::{measure_megakv, megakv_records};
use crate::{fmt_overhead, Args, Failure, Table};
use gpu_lp::LpConfig;
use megakv::app::OpKind;

pub(crate) fn run(args: &Args) -> Result<(), Failure> {
    let records = megakv_records(args.scale);

    println!("# §VII-4 — MEGA-KV with LP (global array + shuffle), {records} records\n");
    let mut table = Table::new(&["Operation", "Baseline (ns)", "LP (ns)", "Overhead"]);
    let mut json_rows = Vec::new();

    for op in OpKind::ALL {
        let (base_ns, lp_ns, overhead) =
            measure_megakv(args.scale, args.seed, op, &LpConfig::recommended());
        table.row(&[
            op.name().to_string(),
            format!("{base_ns:.0}"),
            format!("{lp_ns:.0}"),
            fmt_overhead(overhead),
        ]);
        json_rows.push(serde_json::json!({
            "operation": op.name(),
            "baseline_ns": base_ns,
            "lp_ns": lp_ns,
            "overhead": overhead,
        }));
    }
    println!("{}", table.to_markdown());
    println!("(paper: search 3.4%, delete 5.2%, insert 2.1%)");
    if args.json {
        println!("{}", serde_json::to_string_pretty(&json_rows).unwrap());
    }
    Ok(())
}
