//! E22 — symbolic store-footprint engine: corpus precision and campaign
//! pruning power.
//!
//! Two claims, both falsifiable here:
//!
//! 1. **Zero false positives on real kernels.** The footprint rules
//!    (byte-precise LP011, affine LP013, LP022–LP024) must stay silent on
//!    the 11-benchmark clean corpus — every subject's static twin lints
//!    to zero findings while the engine still extracts affine footprints
//!    and (where the partition proof goes through) certificates.
//! 2. **Certificates buy real pruning.** With footprint facts enabled,
//!    the default campaign sweep must prune strictly more crash trials
//!    than the contract + geometry families alone, with every decision
//!    justified in the ledger.

use crate::{Args, Failure, Table};
use lp_directive::analysis::footprint::source_footprints;
use lp_fault::{subject_footprint, subject_twin, CampaignSpec};
use lp_kernels::SUBJECT_NAMES;

pub(crate) fn run(args: &Args) -> Result<(), Failure> {
    println!("# E22: symbolic store-footprint engine\n");
    println!("## Corpus precision — 11 clean benchmark twins\n");
    let mut table = Table::new(&[
        "Subject",
        "Twin kernel",
        "Stores",
        "Affine",
        "Partitioned",
        "Folded",
        "Certified",
        "Findings",
    ]);

    let mut corpus_rows = Vec::new();
    let mut false_positives = 0usize;
    let mut certified = 0usize;
    let mut linted: Vec<&str> = Vec::new(); // dedupe shared twin sources
    for subject in SUBJECT_NAMES {
        let (src, kernel) = subject_twin(subject).expect("every subject has a twin");
        let findings = if linted.contains(&src) {
            0 // shared source (the MEGA-KV kernels): counted once
        } else {
            linted.push(src);
            lp_directive::lint(src).len()
        };
        false_positives += findings;
        let fp = source_footprints(src)
            .into_iter()
            .find(|f| f.kernel == kernel)
            .expect("twin kernel analysed");
        let affine = fp.stores.iter().filter(|s| s.index.is_some()).count();
        let cert = subject_footprint(subject).expect("certificate computed");
        certified += usize::from(cert.certified());
        table.row(&[
            subject.to_string(),
            kernel.to_string(),
            fp.stores.len().to_string(),
            affine.to_string(),
            fp.block_partitioned.to_string(),
            fp.fully_folded.to_string(),
            if cert.certified() { "yes" } else { "-" }.to_string(),
            findings.to_string(),
        ]);
        corpus_rows.push(serde_json::json!({
            "subject": subject,
            "kernel": kernel,
            "stores": fp.stores.len(),
            "affine_stores": affine,
            "block_partitioned": fp.block_partitioned,
            "fully_folded": fp.fully_folded,
            "certified": cert.certified(),
            "lint_findings": findings,
        }));
    }
    println!("{}", table.to_markdown());
    println!(
        "\nFootprint false positives across the corpus: {false_positives} \
         (certified subjects: {certified}/{})",
        SUBJECT_NAMES.len()
    );
    assert_eq!(
        false_positives, 0,
        "footprint rules fired on the clean corpus"
    );
    assert!(certified > 0, "no subject earned a certificate");

    println!("\n## Campaign pruning — default sweep, footprint family on\n");
    let mut spec = CampaignSpec::default_sweep(args.scale);
    let full = spec.enumerate().len();
    spec.prune = true;
    let (kept, ledger) = spec.enumerate_explained();
    let footprint_prunes = ledger
        .iter()
        .filter(|r| r.decision.why.contains("footprint"))
        .count();
    // Family ordering makes the split exact: contract and geometry run
    // before the footprint family, so a footprint record is a trial
    // neither of them could prune.
    let baseline = ledger.len() - footprint_prunes;
    let pct = |n: usize| 100.0 * n as f64 / full as f64;
    println!("full sweep:             {full} trials");
    println!(
        "contract + geometry:    {baseline} pruned ({:.1}%)",
        pct(baseline)
    );
    println!(
        "+ footprint family:     {} pruned ({:.1}%), {footprint_prunes} footprint decisions",
        ledger.len(),
        pct(ledger.len())
    );
    println!("kept:                   {} trials", kept.len());
    assert_eq!(kept.len() + ledger.len(), full, "pruning lost a trial");
    assert!(
        footprint_prunes > 0,
        "footprint certificates pruned nothing"
    );

    if args.json {
        let out = serde_json::json!({
            "corpus": corpus_rows,
            "prune": serde_json::json!({
                "full": full,
                "kept": kept.len(),
                "pruned": ledger.len(),
                "baseline_pruned": baseline,
                "footprint_pruned": footprint_prunes,
                "pruned_pct": pct(ledger.len()),
            }),
        });
        println!("{}", serde_json::to_string_pretty(&out).unwrap());
    }
    Ok(())
}
