//! Static crash-site relevance: the facts the fault campaign's pruner
//! consumes.
//!
//! The fault campaign enumerates a cross product of crash sites per
//! (workload, config, backend, seed) cell. Some of those sites are
//! *statically* redundant — provable from the durability contract or from
//! launch geometry alone, with no trial execution:
//!
//! * Under a fixed (non-adaptive) backend there is no policy engine, so a
//!   `MidPolicySwitch` crash degenerates to `BetweenKernels` (the injector
//!   says as much at run time; the contract says it beforehand).
//! * `MidCheckpoint { pct: 0 }` arms the flush crash before a single line
//!   is written back, so the durable image equals a plain power loss after
//!   the kernel — again `BetweenKernels`.
//! * `BlockBoundary { pct }` crashes after `num_blocks * pct / 100` whole
//!   blocks; at small launch geometries distinct percentages collapse to
//!   the same block count, and a count of zero is the same pristine-image
//!   crash as `AfterStores { pct: 0 }`.
//!
//! This module states those facts (with their justifications) on the
//! static side; `lp-fault`'s pruner applies them to concrete sweeps and
//! its oracle re-verifies at sampled scale that pruned sites never change
//! a verdict. The per-kernel [`KernelRelevance`] summary also rides along
//! in `lpcuda-lint --json`, so CI can see *why* the campaign pruned.

use super::cfg::NodeKind;
use super::contract::mode_backend;
use super::interproc::FnSummary;
use super::KernelFacts;
use gpu_lp::BackendKind;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// A statically-proven crash-site equivalence, valid for every trial of a
/// backend regardless of workload or seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum SiteFact {
    /// Every `MidPolicySwitch { .. }` site is trial-equivalent to
    /// `BetweenKernels`: the backend is fixed, so no policy engine exists
    /// to switch and the injector degrades the site to a post-kernel power
    /// loss.
    PolicySwitchIsBetweenKernels,
    /// `MidCheckpoint { pct: 0 }` is trial-equivalent to `BetweenKernels`:
    /// the flush crash arms after zero written-back lines, so power fails
    /// with the durable image of a plain post-kernel crash.
    CheckpointZeroPctIsBetweenKernels,
}

impl SiteFact {
    /// Why the equivalence holds — recorded verbatim in prune reports so a
    /// reader of the campaign JSON does not need this source file.
    pub fn justification(self) -> &'static str {
        match self {
            SiteFact::PolicySwitchIsBetweenKernels => {
                "fixed backend has no policy engine: the injector degrades \
                 every mid-policy-switch site to a between-kernels power loss"
            }
            SiteFact::CheckpointZeroPctIsBetweenKernels => {
                "checkpoint crash at 0% arms before any line is written \
                 back, leaving the exact durable image of a between-kernels \
                 power loss"
            }
        }
    }
}

/// The site facts that hold under `backend`'s durability contract.
///
/// The checkpoint-at-zero fact is contract-independent (it is about the
/// checkpoint machinery, which every backend shares). The policy-switch
/// fact holds precisely for the fixed kinds — [`BackendKind::Adaptive`] is
/// the one backend whose contract is journalled per region, i.e. the one
/// with a policy engine that a switch-window crash can actually catch.
pub fn contract_site_facts(backend: BackendKind) -> Vec<SiteFact> {
    let mut facts = vec![SiteFact::CheckpointZeroPctIsBetweenKernels];
    if backend != BackendKind::Adaptive {
        facts.insert(0, SiteFact::PolicySwitchIsBetweenKernels);
    }
    facts.sort();
    facts
}

/// The whole-block count a `BlockBoundary { pct }` site crashes after, for
/// a launch of `num_blocks` blocks — the exact arithmetic the injector
/// uses, exposed so the pruner and the injector cannot drift apart.
///
/// Two percentages with equal counts are the same trial; a count of zero
/// is the same pristine-image crash as `AfterStores { pct: 0 }`.
pub fn block_boundary_after_blocks(num_blocks: u64, pct: u64) -> u64 {
    num_blocks * pct / 100
}

/// Per-kernel static summary: what the verifier saw, in campaign-relevant
/// terms. Serialized into `lpcuda-lint --json` under `"relevance"`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct KernelRelevance {
    /// Kernel name.
    pub kernel: String,
    /// The `lpcuda_mode` pin, or `"auto"` when the adaptive engine (or the
    /// implicit LP default for protected kernels) decides at run time.
    pub mode: String,
    /// Whether the kernel carries `lpcuda_checksum` folds.
    pub protected: bool,
    /// Global stores in the kernel body (not counting helpers).
    pub stores: usize,
    /// Checksum folds in the kernel body.
    pub folds: usize,
    /// Fences in the kernel body.
    pub fences: usize,
    /// Calls that resolve to a summarised `__device__` helper.
    pub helper_calls: usize,
}

/// Summarises one kernel; `fns` are the source's `__device__` summaries.
pub fn kernel_relevance(k: &KernelFacts, fns: &BTreeMap<String, FnSummary>) -> KernelRelevance {
    let mode = match &k.pin {
        Some((_, mode)) if mode_backend(mode).is_some() => mode.clone(),
        _ => "auto".to_string(),
    };
    let mut rel = KernelRelevance {
        kernel: k.ir.name.clone(),
        mode,
        protected: k.is_protected(),
        stores: 0,
        folds: 0,
        fences: 0,
        helper_calls: 0,
    };
    for node in &k.cfg.nodes {
        match &node.kind {
            NodeKind::Store { .. } => rel.stores += 1,
            NodeKind::Fold { .. } => rel.folds += 1,
            NodeKind::Fence { .. } => rel.fences += 1,
            NodeKind::Call { name, .. } if fns.contains_key(*name) => rel.helper_calls += 1,
            _ => {}
        }
    }
    rel
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_backends_get_both_facts_adaptive_only_one() {
        for kind in BackendKind::ALL {
            let facts = contract_site_facts(kind);
            assert!(facts.contains(&SiteFact::CheckpointZeroPctIsBetweenKernels));
            assert!(
                facts.contains(&SiteFact::PolicySwitchIsBetweenKernels),
                "{kind} is fixed"
            );
        }
        let adaptive = contract_site_facts(BackendKind::Adaptive);
        assert_eq!(adaptive, vec![SiteFact::CheckpointZeroPctIsBetweenKernels]);
    }

    #[test]
    fn block_geometry_collapses_small_launches() {
        // 8 blocks: 10% and 12% both crash after 0 blocks; 50% after 4.
        assert_eq!(block_boundary_after_blocks(8, 10), 0);
        assert_eq!(block_boundary_after_blocks(8, 12), 0);
        assert_eq!(block_boundary_after_blocks(8, 50), 4);
        assert_eq!(block_boundary_after_blocks(8, 90), 7);
        // 128 blocks: every default percentage is distinct.
        let counts: Vec<u64> = [10, 50, 90]
            .iter()
            .map(|p| block_boundary_after_blocks(128, *p))
            .collect();
        assert_eq!(counts, vec![12, 64, 115]);
    }

    #[test]
    fn justifications_are_nonempty_and_distinct() {
        let a = SiteFact::PolicySwitchIsBetweenKernels.justification();
        let b = SiteFact::CheckpointZeroPctIsBetweenKernels.justification();
        assert!(!a.is_empty() && !b.is_empty());
        assert_ne!(a, b);
    }

    #[test]
    fn relevance_summarises_each_kernel() {
        let src = r#"
__device__ void put(float *dst, int i, float v) {
    dst[i] = v;
}

__global__ void work(float *out) {
#pragma nvm lpcuda_checksum("+", tab, blockIdx.x)
    out[blockIdx.x] = 1.0f;
    put(out, 1, 2.0f);
    __threadfence();
}

__global__ void pinned(float *out) {
#pragma nvm lpcuda_mode(epoch)
    out[blockIdx.x] = 1.0f;
    __threadfence();
}
"#;
        let a = crate::analysis::SourceAnalysis::new(src).unwrap();
        let mut rels: Vec<_> = a.kernels().map(|k| kernel_relevance(&k, &a.fns)).collect();
        rels.sort_by(|a, b| a.kernel.cmp(&b.kernel));
        assert_eq!(rels.len(), 2);
        assert_eq!(rels[0].kernel, "pinned");
        assert_eq!(rels[0].mode, "epoch");
        assert!(!rels[0].protected);
        assert_eq!((rels[0].stores, rels[0].fences), (1, 1));
        assert_eq!(rels[1].kernel, "work");
        assert_eq!(rels[1].mode, "auto");
        assert!(rels[1].protected);
        assert_eq!(rels[1].folds, 1);
        assert_eq!(rels[1].helper_calls, 1);
    }

    #[test]
    fn relevance_round_trips_through_json() {
        let rel = KernelRelevance {
            kernel: "k".into(),
            mode: "lp".into(),
            protected: true,
            stores: 2,
            folds: 1,
            fences: 0,
            helper_calls: 1,
        };
        let text = serde_json::to_string(&rel).unwrap();
        let back: KernelRelevance = serde_json::from_str(&text).unwrap();
        assert_eq!(back, rel);
    }
}
