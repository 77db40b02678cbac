//! Static crash-site pruning: drop campaign trials whose verdict is
//! already determined by another trial in the sweep.
//!
//! The static verifier (`lp-directive`'s relevance pass) proves two kinds
//! of crash-site equivalence without running a single trial:
//!
//! * **contract facts** — e.g. under a fixed backend there is no policy
//!   engine, so every `MidPolicySwitch` site degrades to `BetweenKernels`;
//!   a checkpoint crash at 0% flushed is a between-kernels power loss;
//! * **launch geometry** — `BlockBoundary { pct }` crashes after
//!   `num_blocks * pct / 100` whole blocks, so at small launches distinct
//!   percentages collapse to the same count, and a count of zero is the
//!   pristine-image crash `AfterStores { pct: 0 }` already covers.
//!
//! A site is only pruned when its *representative* (the equivalent site)
//! stays in the kept set, so every equivalence class still runs exactly
//! once. Pruning is off by default on [`crate::CampaignSpec`] (`--no-prune`
//! is the campaign binary's escape hatch back to the full product), and
//! the `pruned_sites_agree_with_their_representatives` oracle re-runs
//! pruned pairs at sampled scale to assert the verdicts really match.

use crate::site::CrashSite;
use crate::trial::TrialId;
use gpu_lp::BackendKind;
use lp_directive::analysis::footprint::source_footprints;
use lp_directive::analysis::relevance::{
    block_boundary_after_blocks, contract_site_facts, SiteFact,
};
use lp_kernels::{subject, Scale};
use serde::{Deserialize, Serialize};

/// One pruned site and the evidence for dropping it.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PruneDecision {
    /// The site removed from the cell's enumeration.
    pub site: CrashSite,
    /// The trial-equivalent site that stays and represents it.
    pub replaced_by: CrashSite,
    /// Why the equivalence holds.
    pub why: String,
}

/// The result of pruning one cell's site list.
#[derive(Debug, Clone, Default)]
pub struct PruneOutcome {
    /// Sites the cell still runs, in catalog order.
    pub kept: Vec<CrashSite>,
    /// Sites dropped, each with its representative and justification.
    pub pruned: Vec<PruneDecision>,
}

/// The launch block count of `workload` at `scale` — the same geometry the
/// injector reads off the built kernel, derived here without building the
/// world (a workload's launch geometry is fixed at construction).
pub fn subject_num_blocks(workload: &str, scale: Scale, seed: u64) -> Option<u64> {
    let w = (subject(workload)?.build)(scale, seed);
    Some(w.launch_config().num_blocks())
}

/// The static store-footprint certificate of one subject's kernel, read
/// off the annotated clean-twin source the lint corpus carries for it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubjectFootprint {
    /// The twin kernel the certificate was proved on.
    pub kernel: String,
    /// Distinct blocks provably write distinct elements.
    pub block_partitioned: bool,
    /// Every persisted store's final bytes are folded into a checksum.
    pub fully_folded: bool,
}

impl SubjectFootprint {
    /// Whether the certificate grounds the block-boundary collapse: with
    /// per-block element sets pairwise disjoint and every persisted byte
    /// checksum-validated, a crash after N ≥ 1 whole blocks leaves N
    /// independent, self-validating per-block subproblems — recovery
    /// re-derives every block that did not persist, so the verdict does
    /// not depend on N.
    pub fn certified(&self) -> bool {
        self.block_partitioned && self.fully_folded
    }
}

/// The clean static twin of a campaign subject: the annotated `.cu` source
/// the footprint engine analyses in place of the Rust kernel — from the
/// corpus `lpcuda-lint --fixtures` keeps clean — plus the kernel name
/// inside it, as the subject table names them. Public so the differential
/// tests can re-derive the byte-level claims a certificate rests on and
/// check them against a dynamically observed launch.
pub fn subject_twin(workload: &str) -> Option<(&'static str, &'static str)> {
    let (file, kernel) = subject(workload)?.twin;
    let (_, src) = lp_directive::fixtures::CLEAN
        .iter()
        .find(|(name, _)| *name == file)?;
    Some((src, kernel))
}

/// Runs the symbolic store-footprint engine over `workload`'s clean twin
/// and returns the certificate, or `None` for subjects without a twin.
pub fn subject_footprint(workload: &str) -> Option<SubjectFootprint> {
    let (src, kernel) = subject_twin(workload)?;
    let fp = source_footprints(src)
        .into_iter()
        .find(|fp| fp.kernel == kernel)?;
    Some(SubjectFootprint {
        kernel: fp.kernel,
        block_partitioned: fp.block_partitioned,
        fully_folded: fp.fully_folded,
    })
}

/// Prunes `sites` for one campaign cell. `num_blocks` enables the
/// geometry family; `footprint` (the subject's static store-footprint
/// certificate) enables the block-boundary collapse; `None` for either
/// applies the remaining families only.
pub fn prune_sites(
    sites: &[CrashSite],
    backend: BackendKind,
    num_blocks: Option<u64>,
    footprint: Option<&SubjectFootprint>,
) -> PruneOutcome {
    let facts = contract_site_facts(backend);
    let has = |s: &CrashSite| sites.contains(s);
    let mut out = PruneOutcome::default();
    for &site in sites {
        let decision = match site {
            CrashSite::MidPolicySwitch { .. }
                if facts.contains(&SiteFact::PolicySwitchIsBetweenKernels)
                    && has(&CrashSite::BetweenKernels) =>
            {
                Some((
                    CrashSite::BetweenKernels,
                    SiteFact::PolicySwitchIsBetweenKernels
                        .justification()
                        .to_string(),
                ))
            }
            CrashSite::MidCheckpoint { pct: 0 }
                if facts.contains(&SiteFact::CheckpointZeroPctIsBetweenKernels)
                    && has(&CrashSite::BetweenKernels) =>
            {
                Some((
                    CrashSite::BetweenKernels,
                    SiteFact::CheckpointZeroPctIsBetweenKernels
                        .justification()
                        .to_string(),
                ))
            }
            CrashSite::BlockBoundary { pct } => num_blocks.and_then(|nb| {
                let count = block_boundary_after_blocks(nb, pct);
                if count == 0 && has(&CrashSite::AfterStores { pct: 0 }) {
                    return Some((
                        CrashSite::AfterStores { pct: 0 },
                        format!(
                            "{nb}-block launch: {pct}% of blocks is 0 whole \
                             blocks, the pristine-image crash stores@0% runs"
                        ),
                    ));
                }
                // Distinct percentages with the same whole-block count are
                // the same trial; the lowest percentage represents them.
                let twin = sites.iter().find_map(|s| match s {
                    CrashSite::BlockBoundary { pct: p }
                        if *p < pct && block_boundary_after_blocks(nb, *p) == count =>
                    {
                        Some(*s)
                    }
                    _ => None,
                });
                // The representative must itself survive pruning: it does
                // unless its count is 0 and stores@0% absorbed it — then
                // this site's count is 0 too and the branch above fired.
                if let Some(twin) = twin {
                    return Some((
                        twin,
                        format!(
                            "{nb}-block launch: {pct}% and {}% both crash after \
                             {count} whole blocks",
                            match twin {
                                CrashSite::BlockBoundary { pct } => pct,
                                _ => unreachable!("twin is a block boundary"),
                            }
                        ),
                    ));
                }
                // Footprint family: a block-partitioned, fully folded
                // kernel under the checksum contract makes every boundary
                // crash with ≥ 1 complete block verdict-equivalent, so the
                // lowest such percentage represents the whole family. Only
                // the LP backend's recovery validates through the folds the
                // certificate is about.
                let fact = footprint.filter(|f| f.certified())?;
                if backend != BackendKind::LpChecksum {
                    return None;
                }
                let rep = sites
                    .iter()
                    .filter_map(|s| match s {
                        CrashSite::BlockBoundary { pct: p }
                            if *p < pct && block_boundary_after_blocks(nb, *p) >= 1 =>
                        {
                            Some(*p)
                        }
                        _ => None,
                    })
                    .min()?;
                Some((
                    CrashSite::BlockBoundary { pct: rep },
                    format!(
                        "footprint of `{}` is block-partitioned and fully \
                         folded: a crash after any N ≥ 1 of {nb} blocks \
                         leaves N disjoint self-validating block regions, \
                         so {pct}% recovers identically to {rep}%",
                        fact.kernel
                    ),
                ))
            }),
            _ => None,
        };
        match decision {
            Some((replaced_by, why)) => out.pruned.push(PruneDecision {
                site,
                replaced_by,
                why,
            }),
            None => out.kept.push(site),
        }
    }
    out
}

/// The pruned twin of a trial: same cell, representative site.
pub fn representative_trial(id: &TrialId, decision: &PruneDecision) -> TrialId {
    TrialId {
        site: decision.replaced_by,
        ..id.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contract_facts_prune_switch_and_zero_checkpoint_sites() {
        let sites = CrashSite::catalog();
        let out = prune_sites(&sites, BackendKind::LpChecksum, None, None);
        let switch_pruned = out
            .pruned
            .iter()
            .filter(|d| matches!(d.site, CrashSite::MidPolicySwitch { .. }))
            .count();
        assert_eq!(switch_pruned, 4, "all four switch windows prune");
        assert!(out
            .pruned
            .iter()
            .any(|d| d.site == CrashSite::MidCheckpoint { pct: 0 }));
        assert!(out.kept.contains(&CrashSite::BetweenKernels));
        assert!(
            out.kept.contains(&CrashSite::MidCheckpoint { pct: 50 }),
            "non-zero checkpoint sites stay"
        );
        for d in &out.pruned {
            assert!(out.kept.contains(&d.replaced_by), "{d:?}");
            assert!(!d.why.is_empty());
        }
    }

    #[test]
    fn adaptive_keeps_its_switch_windows() {
        let sites = CrashSite::catalog();
        let out = prune_sites(&sites, BackendKind::Adaptive, None, None);
        assert!(out
            .kept
            .iter()
            .any(|s| matches!(s, CrashSite::MidPolicySwitch { .. })));
        assert!(out
            .pruned
            .iter()
            .all(|d| !matches!(d.site, CrashSite::MidPolicySwitch { .. })));
    }

    #[test]
    fn tiny_launches_collapse_block_boundary_sites() {
        let sites = CrashSite::catalog();
        // 2 blocks (MEGAKV-DELETE at test scale): 10% → 0 blocks (goes to
        // stores@0%), 50% and 90% → 1 block (90% folds into 50%).
        let out = prune_sites(&sites, BackendKind::LpChecksum, Some(2), None);
        let boundary: Vec<&PruneDecision> = out
            .pruned
            .iter()
            .filter(|d| matches!(d.site, CrashSite::BlockBoundary { .. }))
            .collect();
        assert_eq!(boundary.len(), 2, "{boundary:#?}");
        assert_eq!(boundary[0].site, CrashSite::BlockBoundary { pct: 10 });
        assert_eq!(boundary[0].replaced_by, CrashSite::AfterStores { pct: 0 });
        assert_eq!(boundary[1].site, CrashSite::BlockBoundary { pct: 90 });
        assert_eq!(
            boundary[1].replaced_by,
            CrashSite::BlockBoundary { pct: 50 }
        );
        // 128 blocks: every percentage is a distinct count — no pruning.
        let out = prune_sites(&sites, BackendKind::LpChecksum, Some(128), None);
        assert!(out
            .pruned
            .iter()
            .all(|d| !matches!(d.site, CrashSite::BlockBoundary { .. })));
    }

    #[test]
    fn every_representative_survives_pruning() {
        let certified = SubjectFootprint {
            kernel: "k".to_string(),
            block_partitioned: true,
            fully_folded: true,
        };
        for backend in BackendKind::ALL {
            for nb in [None, Some(2), Some(8), Some(64), Some(128)] {
                for fp in [None, Some(&certified)] {
                    let out = prune_sites(&CrashSite::catalog(), backend, nb, fp);
                    for d in &out.pruned {
                        assert!(
                            out.kept.contains(&d.replaced_by),
                            "{backend} nb={nb:?} fp={fp:?}: {d:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn footprint_certificates_come_from_the_clean_twins() {
        // Certified: the twin's store index is affine with a blockIdx
        // stride covering the per-block width, and every store is folded.
        for w in ["SPMV", "CUTCP", "MRI-Q", "SAD", "MEGAKV-SEARCH"] {
            let fp = subject_footprint(w).unwrap_or_else(|| panic!("{w} has a twin"));
            assert!(fp.certified(), "{w}: {fp:?}");
        }
        // Not certified, each for a real reason: HISTO/TPACF commit with a
        // constant bin stride against a symbolic block width; TMM's index
        // spans two blockIdx dimensions; MRI-GRIDDING scatters through a
        // data-dependent cell; the KV insert/delete slots are hash-derived.
        for w in [
            "HISTO",
            "TPACF",
            "TMM",
            "MRI-GRIDDING",
            "MEGAKV-INSERT",
            "MEGAKV-DELETE",
        ] {
            let fp = subject_footprint(w).unwrap_or_else(|| panic!("{w} has a twin"));
            assert!(!fp.certified(), "{w} must not over-claim: {fp:?}");
        }
        assert_eq!(subject_footprint("NOT-A-SUBJECT"), None);
    }

    #[test]
    fn footprint_collapses_the_block_boundary_family() {
        let sites = CrashSite::catalog();
        let fp = subject_footprint("SPMV").expect("SPMV twin");
        // 16 blocks: 10%/50%/90% land on 1/8/14 whole blocks — distinct
        // counts, so geometry alone keeps all three. The footprint
        // certificate collapses 50% and 90% into 10%.
        let out = prune_sites(&sites, BackendKind::LpChecksum, Some(16), Some(&fp));
        let boundary: Vec<&PruneDecision> = out
            .pruned
            .iter()
            .filter(|d| matches!(d.site, CrashSite::BlockBoundary { .. }))
            .collect();
        assert_eq!(boundary.len(), 2, "{boundary:#?}");
        for d in &boundary {
            assert_eq!(d.replaced_by, CrashSite::BlockBoundary { pct: 10 });
            assert!(d.why.contains("footprint"), "{}", d.why);
            assert!(d.why.contains("spmv_csr"), "{}", d.why);
        }
        // The same geometry without the certificate prunes nothing.
        let out = prune_sites(&sites, BackendKind::LpChecksum, Some(16), None);
        assert!(out
            .pruned
            .iter()
            .all(|d| !matches!(d.site, CrashSite::BlockBoundary { .. })));
        // An uncertified twin (HISTO) never grounds the collapse.
        let histo = subject_footprint("HISTO").expect("HISTO twin");
        let out = prune_sites(&sites, BackendKind::LpChecksum, Some(16), Some(&histo));
        assert!(out
            .pruned
            .iter()
            .all(|d| !matches!(d.site, CrashSite::BlockBoundary { .. })));
        // The argument runs through checksum validation, so non-LP
        // backends keep the full family even when certified.
        let out = prune_sites(&sites, BackendKind::Eager, Some(16), Some(&fp));
        assert!(out
            .pruned
            .iter()
            .all(|d| !matches!(d.site, CrashSite::BlockBoundary { .. })));
        // Unknown geometry: without the block count the ≥ 1-block guard
        // cannot be established, so nothing collapses.
        let out = prune_sites(&sites, BackendKind::LpChecksum, None, Some(&fp));
        assert!(out
            .pruned
            .iter()
            .all(|d| !matches!(d.site, CrashSite::BlockBoundary { .. })));
    }

    #[test]
    fn footprint_family_composes_with_geometry_at_tiny_launches() {
        // 2 blocks, certified twin: 10% → 0 blocks (pristine image, goes
        // to stores@0% via geometry), 50%/90% → 1 block each — geometry
        // already collapses 90% into 50% and its justification wins, so
        // the footprint family adds nothing new here.
        let fp = subject_footprint("SPMV").expect("SPMV twin");
        let out = prune_sites(
            &CrashSite::catalog(),
            BackendKind::LpChecksum,
            Some(2),
            Some(&fp),
        );
        let boundary: Vec<&PruneDecision> = out
            .pruned
            .iter()
            .filter(|d| matches!(d.site, CrashSite::BlockBoundary { .. }))
            .collect();
        assert_eq!(boundary.len(), 2, "{boundary:#?}");
        assert_eq!(boundary[0].replaced_by, CrashSite::AfterStores { pct: 0 });
        assert_eq!(
            boundary[1].replaced_by,
            CrashSite::BlockBoundary { pct: 50 }
        );
        assert!(boundary[1].why.contains("whole blocks"), "geometry wins");
    }
}
