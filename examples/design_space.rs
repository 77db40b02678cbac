//! The paper's design space in one sweep: measure a single workload under
//! every LP configuration axis — table organisation, lock policy, atomic
//! policy, reduction strategy — and print the overhead of each point.
//!
//! This is the condensed version of §IV's characterization; the full
//! per-table reproductions live in `lp-bench`'s binaries.
//!
//! Run with: `cargo run --release --example design_space [WORKLOAD]`

use lpgpu::gpu_lp::{AtomicPolicy, LockPolicy, LpConfig, ReduceStrategy};
use lpgpu::lp_kernels::Scale;

fn main() {
    let name = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "MRI-GRIDDING".to_string());
    let Some(subject) = lpgpu::lp_kernels::subject(&name) else {
        eprintln!(
            "unknown workload {name:?} (one of {})",
            lpgpu::lp_kernels::SUBJECT_NAMES.join(", ")
        );
        std::process::exit(2);
    };
    let name = subject.name;

    let points: Vec<(&str, LpConfig)> = vec![
        (
            "global array + shuffle (recommended)",
            LpConfig::recommended(),
        ),
        ("quadratic probing + shuffle", LpConfig::quad()),
        ("cuckoo + shuffle", LpConfig::cuckoo()),
        (
            "quadratic probing + sequential reduce",
            LpConfig::quad().with_reduce(ReduceStrategy::SequentialMemory),
        ),
        (
            "quadratic probing, racy (no atomics)",
            LpConfig::quad().with_atomic(AtomicPolicy::Racy),
        ),
        (
            "quadratic probing, global lock",
            LpConfig::quad().with_lock(LockPolicy::GlobalLock),
        ),
        (
            "global array + sequential reduce",
            LpConfig::recommended().with_reduce(ReduceStrategy::SequentialMemory),
        ),
    ];

    println!("design-space sweep on {name} (Bench scale)\n");
    println!(
        "{:<42} {:>10} {:>12} {:>12}",
        "configuration", "overhead", "collisions", "atomics"
    );
    for (label, config) in points {
        let m = lp_bench::measure_workload(subject, Scale::Bench, 42, &config, false);
        println!(
            "{:<42} {:>9.1}% {:>12} {:>12}",
            label,
            m.overhead * 100.0,
            m.table_stats.collisions,
            m.lp.atomic_ops
        );
    }
    println!("\nthe paper's conclusion in one table: the hash-table-less global array");
    println!("with warp-shuffle reduction and no locks is the only configuration whose");
    println!("overhead stays in the low single digits at GPU thread-block counts.");
}
