//! Counters for NVM traffic and cache behaviour.

use serde::{Deserialize, Serialize};
use std::ops::Sub;

/// Traffic and persistence statistics accumulated by [`crate::PersistMemory`].
///
/// The write counters are what the paper's write-amplification study
/// (§VII-3) measures: Lazy Persistency only adds the checksum stores, so the
/// NVM write count should grow by ~0.5–2.2 % over the baseline.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct NvmStats {
    /// Line fills read from the NVM device.
    pub nvm_reads: u64,
    /// Lines written back to the NVM device (evictions + flushes).
    pub nvm_writes: u64,
    /// Bytes read from NVM.
    pub nvm_read_bytes: u64,
    /// Bytes written to NVM.
    pub nvm_write_bytes: u64,
    /// Cache hits (reads + writes).
    pub cache_hits: u64,
    /// Cache misses (reads + writes).
    pub cache_misses: u64,
    /// Dirty lines persisted by capacity eviction ("natural" persistence).
    pub natural_evictions: u64,
    /// Dirty lines persisted by an explicit flush (checkpoint boundary).
    pub explicit_flushes: u64,
    /// Dirty lines persisted by acceptance into the ADR-backed memory
    /// queue (epoch/SBRP backends). A subset of `explicit_flushes`.
    pub adr_accepts: u64,
    /// Program-level store operations issued (any size).
    pub store_ops: u64,
    /// Program-level load operations issued (any size).
    pub load_ops: u64,
    /// Write-backs that persisted only a prefix of the line's 8-byte words
    /// while the device reported success (injected by the fault model).
    pub torn_writebacks: u64,
    /// Write-backs that failed and left the line dirty (transient persist
    /// failures plus every attempt against a stuck line).
    pub transient_persist_fails: u64,
    /// Media bit errors on line fills that ECC detected and corrected.
    pub ecc_detected_errors: u64,
    /// Media bit errors on line fills that went undetected (one bit of the
    /// durable image flipped silently).
    pub silent_bit_errors: u64,
    /// Lines retired and remapped to fresh physical lines by
    /// [`crate::PersistMemory::quarantine_line`].
    pub quarantined_lines: u64,
}

impl Sub for NvmStats {
    type Output = NvmStats;

    /// Component-wise difference; useful for measuring a phase:
    /// `let delta = mem.stats() - before;`
    fn sub(self, rhs: NvmStats) -> NvmStats {
        NvmStats {
            nvm_reads: self.nvm_reads - rhs.nvm_reads,
            nvm_writes: self.nvm_writes - rhs.nvm_writes,
            nvm_read_bytes: self.nvm_read_bytes - rhs.nvm_read_bytes,
            nvm_write_bytes: self.nvm_write_bytes - rhs.nvm_write_bytes,
            cache_hits: self.cache_hits - rhs.cache_hits,
            cache_misses: self.cache_misses - rhs.cache_misses,
            natural_evictions: self.natural_evictions - rhs.natural_evictions,
            explicit_flushes: self.explicit_flushes - rhs.explicit_flushes,
            adr_accepts: self.adr_accepts - rhs.adr_accepts,
            store_ops: self.store_ops - rhs.store_ops,
            load_ops: self.load_ops - rhs.load_ops,
            torn_writebacks: self.torn_writebacks - rhs.torn_writebacks,
            transient_persist_fails: self.transient_persist_fails - rhs.transient_persist_fails,
            ecc_detected_errors: self.ecc_detected_errors - rhs.ecc_detected_errors,
            silent_bit_errors: self.silent_bit_errors - rhs.silent_bit_errors,
            quarantined_lines: self.quarantined_lines - rhs.quarantined_lines,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn subtraction_is_componentwise() {
        let a = NvmStats {
            nvm_reads: 10,
            store_ops: 7,
            ..NvmStats::default()
        };
        let b = NvmStats {
            nvm_reads: 4,
            store_ops: 2,
            ..NvmStats::default()
        };
        let d = a - b;
        assert_eq!(d.nvm_reads, 6);
        assert_eq!(d.store_ops, 5);
    }
}
