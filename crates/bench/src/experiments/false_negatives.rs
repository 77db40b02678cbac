//! E12 — §II-A/§IV-B: checksum false-negative rates under random error
//! injection. A false negative = the checksum still matches although some
//! store value was corrupted/lost. The paper cites < 2·10⁻⁹ for modular or
//! Adler-32 alone and < 10⁻¹² for modular+parity together; with 64-bit
//! accumulators a false negative needs a colliding pair, so none should
//! ever be observed in feasible trial counts.

use crate::{Args, Failure, Table};
use gpu_lp::checksum::{ChecksumKind, ChecksumSet};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn trials_for(set: &ChecksumSet, trials: u64, seed: u64) -> (u64, u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut undetected = 0u64;
    for _ in 0..trials {
        let n = rng.gen_range(8..64);
        let values: Vec<u64> = (0..n).map(|_| rng.gen()).collect();
        let good = set.digest(values.iter().copied());
        // Inject one of the crash failure modes: flip bits of one value,
        // drop a suffix (lost cache lines), or zero a value.
        let mut bad = values.clone();
        match rng.gen_range(0..3) {
            0 => {
                let i = rng.gen_range(0..n);
                bad[i] ^= 1u64 << rng.gen_range(0..64);
            }
            1 => {
                let keep = rng.gen_range(1..n);
                bad.truncate(keep);
            }
            _ => {
                let i = rng.gen_range(0..n);
                bad[i] = 0;
            }
        }
        if bad != values && set.digest(bad) == good {
            undetected += 1;
        }
    }
    (trials, undetected)
}

pub(crate) fn run(args: &Args) -> Result<(), Failure> {
    let trials = match args.scale {
        lp_kernels::Scale::Test => 20_000,
        _ => 2_000_000,
    };

    println!(
        "# §IV-B — false-negative rates under random error injection ({trials} trials each)\n"
    );
    let sets: [(&str, ChecksumSet); 4] = [
        ("parity", ChecksumSet::parity_only()),
        ("modular", ChecksumSet::modular_only()),
        ("adler-32", ChecksumSet::new(vec![ChecksumKind::Adler32])),
        ("modular+parity", ChecksumSet::modular_parity()),
    ];
    let mut table = Table::new(&["Checksum(s)", "Trials", "Undetected", "Rate"]);
    let mut json_rows = Vec::new();
    for (label, set) in sets {
        let (t, undetected) = trials_for(&set, trials, args.seed);
        let rate = undetected as f64 / t as f64;
        table.row(&[
            label.to_string(),
            t.to_string(),
            undetected.to_string(),
            if undetected == 0 {
                format!("< {:.1e}", 1.0 / t as f64)
            } else {
                format!("{rate:.2e}")
            },
        ]);
        json_rows.push(serde_json::json!({
            "checksums": label,
            "trials": t,
            "undetected": undetected,
        }));
    }
    println!("{}", table.to_markdown());
    println!("(paper: modular and Adler-32 < 2e-9 each; modular+parity < 1e-12)");
    if args.json {
        println!("{}", serde_json::to_string_pretty(&json_rows).unwrap());
    }
    Ok(())
}
