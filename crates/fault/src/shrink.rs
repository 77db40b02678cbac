//! Greedy shrinking of failing trials.
//!
//! When a campaign finds a failure, the raw trial is often noisier than it
//! needs to be: an exotic config, a large seed, an aggressive crash site.
//! [`shrink`] searches for a *simpler* trial that still fails, by
//! repeatedly proposing one simplification at a time and keeping it only
//! if the failure reproduces:
//!
//! 1. reset the seed to 1;
//! 2. swap a non-default persistency backend for the LP default;
//! 3. swap the config for `recommended` (the simplest design point) —
//!    unless the config *is* the suspected bug (sabotage configs shrink to
//!    themselves);
//! 4. weaken the crash site ([`CrashSite::weakened`](crate::CrashSite::weakened)).
//!
//! Every acceptance re-runs the full trial, so the returned reproducer is
//! guaranteed to fail, not merely suspected to. The search is budgeted:
//! trials are whole simulated GPU executions, not cheap property checks.

use crate::trial::{run_trial, TrialId};
use gpu_lp::BackendKind;
use lp_kernels::Scale;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// The result of shrinking one failing trial.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct ShrinkOutcome {
    /// The simplest trial found that still fails.
    pub minimal: TrialId,
    /// Simplifications accepted.
    pub accepted: u32,
    /// Trials executed while searching.
    pub attempts: u32,
}

/// Whether `id` fails (oracle failure or panic) when run at `scale`.
fn fails(id: &TrialId, scale: Scale) -> bool {
    catch_unwind(AssertUnwindSafe(|| run_trial(id, scale)))
        .map(|r| !r.passed)
        .unwrap_or(true)
}

fn candidates(id: &TrialId) -> Vec<TrialId> {
    let mut out = Vec::new();
    if id.seed != 1 {
        out.push(TrialId {
            seed: 1,
            ..id.clone()
        });
    }
    // A failure that reproduces under the default (LP) backend is a bug in
    // the shared machinery, not in the swept persistency model.
    if id.backend != BackendKind::default() {
        out.push(TrialId {
            backend: BackendKind::default(),
            ..id.clone()
        });
    }
    // Keep deliberately-broken configs: shrinking one away would "fix" the
    // failure and hide the bug the reproducer exists to show.
    if id.config != "recommended" && !id.config.starts_with("broken-") {
        out.push(TrialId {
            config: "recommended".to_string(),
            ..id.clone()
        });
    }
    if let Some(site) = id.site.weakened() {
        out.push(TrialId { site, ..id.clone() });
    }
    out
}

/// Shrinks `failing` (assumed to fail) to a minimal reproducer, running at
/// most `max_attempts` verification trials.
pub fn shrink(failing: &TrialId, scale: Scale, max_attempts: u32) -> ShrinkOutcome {
    let mut current = failing.clone();
    let mut accepted = 0;
    let mut attempts = 0;
    'outer: loop {
        for cand in candidates(&current) {
            if attempts >= max_attempts {
                break 'outer;
            }
            attempts += 1;
            if fails(&cand, scale) {
                current = cand;
                accepted += 1;
                continue 'outer;
            }
        }
        break;
    }
    ShrinkOutcome {
        minimal: current,
        accepted,
        attempts,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::site::CrashSite;
    use crate::trial::SABOTAGE_CONFIG;

    fn broken(site: CrashSite, seed: u64) -> TrialId {
        TrialId {
            workload: "SPMV".to_string(),
            config: SABOTAGE_CONFIG.to_string(),
            backend: BackendKind::default(),
            seed,
            site,
        }
    }

    #[test]
    fn candidate_order_prefers_seed_then_backend_then_config_then_site() {
        let id = TrialId {
            workload: "TMM".to_string(),
            config: "cuckoo".to_string(),
            backend: BackendKind::Sbrp,
            seed: 7,
            site: CrashSite::AfterStores { pct: 50 },
        };
        let c = candidates(&id);
        assert_eq!(c.len(), 4);
        assert_eq!(c[0].seed, 1);
        assert_eq!(c[1].backend, BackendKind::default());
        assert_eq!(c[2].config, "recommended");
        assert_eq!(c[3].site, CrashSite::AfterStores { pct: 25 });
    }

    #[test]
    fn sabotage_configs_are_never_shrunk_away() {
        let id = broken(CrashSite::AfterStores { pct: 50 }, 1);
        assert!(candidates(&id).iter().all(|c| c.config == SABOTAGE_CONFIG));
    }

    #[test]
    fn shrinking_a_sabotaged_failure_keeps_it_failing() {
        let id = broken(CrashSite::AfterStores { pct: 75 }, 2);
        assert!(fails(&id, Scale::Test), "premise: the sabotage must fail");
        let out = shrink(&id, Scale::Test, 12);
        assert!(fails(&out.minimal, Scale::Test), "{out:?}");
        assert_eq!(out.minimal.config, SABOTAGE_CONFIG);
        assert_eq!(out.minimal.seed, 1, "seed should shrink to 1");
        assert!(out.attempts <= 12);
    }
}
