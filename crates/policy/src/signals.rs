//! The observation vector the policy engine consumes.

use nvm::NvmStats;
use serde::{Deserialize, Serialize};

/// Live signals for one region over one observation window (typically one
/// kernel launch): write-traffic shape from [`NvmStats`], device-fault
/// history from the fault-model counters, and crash/recovery pressure from
/// the resilient-recovery reports.
///
/// The struct is plain data on purpose — `lp-policy` sits *below* the LP
/// runtime in the crate graph, so recovery-side numbers arrive as fields
/// filled in by the caller rather than as borrowed report types.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RegionSignals {
    /// Program-level stores in the window (write-density numerator).
    pub store_ops: u64,
    /// Lines written back to the device (evictions + flushes).
    pub nvm_writes: u64,
    /// Dirty lines persisted by capacity eviction.
    pub natural_evictions: u64,
    /// Dirty lines persisted by explicit flush / ADR acceptance.
    pub explicit_flushes: u64,
    /// Write-backs the device refused (line stayed dirty).
    pub transient_persist_fails: u64,
    /// Write-backs that silently persisted only a prefix of the line.
    pub torn_writebacks: u64,
    /// ECC-detected (corrected) media bit errors on line fills.
    pub ecc_detected_errors: u64,
    /// Undetected media bit flips (only checksums can catch these).
    pub silent_bit_errors: u64,
    /// Lines retired to the quarantine remap table.
    pub quarantined_lines: u64,
    /// Power-loss events observed in the window.
    pub crashes: u64,
    /// Whether this region failed post-crash validation in the window.
    pub validation_failed: bool,
    /// Degraded (per-line-persist) re-executions recovery charged.
    pub degraded_reexecutions: u64,
    /// Modelled recovery latency spent in the window, nanoseconds.
    pub recovery_ns: u64,
    /// Modelled execution time of the window, nanoseconds.
    pub exec_ns: u64,
}

impl RegionSignals {
    /// Builds the traffic/fault portion from an [`NvmStats`] window delta
    /// (`mem.stats() - before`); crash and recovery fields start at zero.
    pub fn from_nvm(delta: &NvmStats) -> Self {
        Self {
            store_ops: delta.store_ops,
            nvm_writes: delta.nvm_writes,
            natural_evictions: delta.natural_evictions,
            explicit_flushes: delta.explicit_flushes,
            transient_persist_fails: delta.transient_persist_fails,
            torn_writebacks: delta.torn_writebacks,
            ecc_detected_errors: delta.ecc_detected_errors,
            silent_bit_errors: delta.silent_bit_errors,
            quarantined_lines: delta.quarantined_lines,
            ..Self::default()
        }
    }

    /// Faults where the device *lied* about durability (torn write-backs,
    /// silent bit flips). Only end-to-end checksums catch these, so any
    /// non-zero value drives the fault floor straight to checkpoint mode.
    pub fn lying_faults(&self) -> u64 {
        self.torn_writebacks + self.silent_bit_errors
    }

    /// Persist-refusal rate in basis points of all write-back attempts
    /// (refused + completed), or 0 when the window saw no attempts.
    pub fn refusal_rate_bp(&self) -> u32 {
        let attempts =
            self.natural_evictions + self.explicit_flushes + self.transient_persist_fails;
        if attempts == 0 {
            return 0;
        }
        (self.transient_persist_fails.saturating_mul(10_000) / attempts) as u32
    }

    /// Recovery cost as a percentage of window execution time (crash
    /// pressure), or 0 when the window had no execution.
    pub fn recovery_cost_pct(&self) -> u32 {
        if self.exec_ns == 0 {
            return 0;
        }
        (self.recovery_ns.saturating_mul(100) / self.exec_ns).min(u32::MAX as u64) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_nvm_copies_the_traffic_and_fault_counters() {
        let delta = NvmStats {
            store_ops: 100,
            nvm_writes: 40,
            natural_evictions: 30,
            explicit_flushes: 10,
            transient_persist_fails: 5,
            torn_writebacks: 2,
            ecc_detected_errors: 1,
            silent_bit_errors: 1,
            quarantined_lines: 3,
            ..NvmStats::default()
        };
        let s = RegionSignals::from_nvm(&delta);
        assert_eq!(s.store_ops, 100);
        assert_eq!(s.lying_faults(), 3);
        assert_eq!(s.crashes, 0);
        assert_eq!(s.exec_ns, 0);
    }

    #[test]
    fn rates_handle_empty_windows() {
        let s = RegionSignals::default();
        assert_eq!(s.refusal_rate_bp(), 0);
        assert_eq!(s.recovery_cost_pct(), 0);
    }

    #[test]
    fn refusal_rate_counts_refusals_against_all_attempts() {
        let s = RegionSignals {
            natural_evictions: 70,
            explicit_flushes: 20,
            transient_persist_fails: 10,
            ..RegionSignals::default()
        };
        assert_eq!(s.refusal_rate_bp(), 1_000); // 10%
    }

    #[test]
    fn recovery_cost_is_a_percentage_of_exec() {
        let s = RegionSignals {
            exec_ns: 1_000,
            recovery_ns: 450,
            ..RegionSignals::default()
        };
        assert_eq!(s.recovery_cost_pct(), 45);
    }
}
