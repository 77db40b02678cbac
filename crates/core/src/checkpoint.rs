//! The checkpoint-interval and availability arithmetic of §IV-A.
//!
//! LP validation may otherwise have to examine arbitrarily old regions
//! (nothing guarantees *when* a region's lines evict). The paper's remedy:
//! combine LP with periodic whole-cache flushing or checkpointing, so only
//! regions newer than the last checkpoint need validation, and pick the
//! interval from the crash probability and recovery time to meet an MTBF
//! or availability target. At run time a service's checkpoint window
//! (`lp-apps`) and the adaptive policy's `Checkpoint` rung take the
//! checkpoints; between plain launches the boundary is
//! `PersistMemory::flush_all`.

/// Young's approximation for the optimal checkpoint interval:
/// `τ* ≈ sqrt(2 · δ · MTBF)` where `δ` is the cost of taking one
/// checkpoint. Inputs in any consistent time unit.
///
/// # Panics
///
/// Panics if either argument is non-positive.
pub fn optimal_checkpoint_interval(checkpoint_cost: f64, mtbf: f64) -> f64 {
    assert!(
        checkpoint_cost > 0.0 && mtbf > 0.0,
        "costs must be positive"
    );
    (2.0 * checkpoint_cost * mtbf).sqrt()
}

/// Expected fraction of wall-clock time doing *useful* work given a
/// checkpoint interval `tau`, per-checkpoint cost `delta`, mean time
/// between failures `mtbf`, and mean recovery cost `recovery` (half an
/// interval of lost work is accounted automatically).
///
/// This is the first-order model the paper alludes to for picking the
/// flush period against an availability target.
///
/// # Panics
///
/// Panics if any argument is non-positive.
pub fn availability(tau: f64, delta: f64, mtbf: f64, recovery: f64) -> f64 {
    assert!(tau > 0.0 && delta > 0.0 && mtbf > 0.0 && recovery > 0.0);
    // Overhead per cycle: checkpoint cost amortised over the interval.
    let checkpoint_overhead = delta / (tau + delta);
    // Failure cost per unit time: each failure loses recovery + ~tau/2 of
    // redone work.
    let failure_overhead = (recovery + tau / 2.0) / mtbf;
    (1.0 - checkpoint_overhead - failure_overhead).max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn youngs_formula() {
        // sqrt(2 * 1 * 50) = 10
        assert!((optimal_checkpoint_interval(1.0, 50.0) - 10.0).abs() < 1e-12);
        // Longer MTBF -> longer interval; costlier checkpoints -> longer interval.
        assert!(optimal_checkpoint_interval(1.0, 200.0) > optimal_checkpoint_interval(1.0, 50.0));
        assert!(optimal_checkpoint_interval(4.0, 50.0) > optimal_checkpoint_interval(1.0, 50.0));
    }

    #[test]
    fn availability_behaviour() {
        // Availability peaks near Young's optimum.
        let (delta, mtbf, rec) = (1.0, 10_000.0, 5.0);
        let opt = optimal_checkpoint_interval(delta, mtbf);
        let at_opt = availability(opt, delta, mtbf, rec);
        assert!(
            at_opt > availability(opt / 20.0, delta, mtbf, rec),
            "too-frequent checkpoints hurt"
        );
        assert!(
            at_opt > availability(opt * 20.0, delta, mtbf, rec),
            "too-rare checkpoints hurt"
        );
        assert!(at_opt > 0.95 && at_opt < 1.0);
    }

    #[test]
    fn availability_degrades_with_flaky_hardware() {
        assert!(availability(10.0, 1.0, 100_000.0, 5.0) > availability(10.0, 1.0, 100.0, 5.0));
    }
}
