//! E7 — §VII-2: the cost of simultaneous checksums. The paper's TMM/Quad
//! numbers: parity alone 7.6 %, modular alone 7.7 %, both together 8.1 % —
//! i.e. the second checksum is nearly free thanks to register-to-register
//! shuffles, and it buys a <10⁻¹² false-negative rate.

use crate::{fmt_overhead, measure_configs, Args, Failure, Table};
use gpu_lp::checksum::ChecksumSet;
use gpu_lp::LpConfig;
use lp_kernels::WORKLOAD_NAMES;

pub(crate) fn run(args: &Args) -> Result<(), Failure> {
    let subject = args.workload_or(&WORKLOAD_NAMES, "TMM")?;
    let name = subject.name;

    println!("# §VII-2 — single vs. simultaneous checksums ({name}, quadratic probing)\n");
    let variants: [(&str, ChecksumSet); 3] = [
        ("parity only", ChecksumSet::parity_only()),
        ("modular only", ChecksumSet::modular_only()),
        ("modular + parity", ChecksumSet::modular_parity()),
    ];
    // This table is the transpose of the others — variants down the rows,
    // table organisations across — so it lays the pairs out itself.
    let configs: Vec<LpConfig> = variants
        .iter()
        .flat_map(|(_, set)| {
            [
                LpConfig::quad().with_checksums(set.clone()),
                LpConfig::recommended().with_checksums(set.clone()),
            ]
        })
        .collect();
    let build = || (subject.build)(args.scale, args.seed);
    let measured = measure_configs(&build, false, &configs);

    let mut table = Table::new(&["Checksums", "Overhead (Quad)", "Overhead (GlobalArray)"]);
    let mut json_rows = Vec::new();
    for ((label, _), m) in variants.iter().zip(measured.chunks(2)) {
        table.row(&[
            label.to_string(),
            fmt_overhead(m[0].overhead),
            fmt_overhead(m[1].overhead),
        ]);
        json_rows.push(serde_json::json!({
            "checksums": label,
            "quad_overhead": m[0].overhead,
            "array_overhead": m[1].overhead,
        }));
    }
    println!("{}", table.to_markdown());
    println!("(paper, TMM/Quad: parity 7.6%, modular 7.7%, both 8.1% — the second checksum is nearly free)");
    if args.json {
        println!("{}", serde_json::to_string_pretty(&json_rows).unwrap());
    }
    Ok(())
}
