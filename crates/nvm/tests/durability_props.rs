//! Property tests for the durability invariants the device fault model
//! must preserve:
//!
//! * with no (or an all-zero-rate) fault model, behaviour is bit-identical
//!   to the perfect device — the zero-cost-when-off guarantee;
//! * a flush that the device *accepts* is durable: flush-until-clean (with
//!   retry and quarantine for failing lines) followed by a crash loses
//!   nothing, even under transient-persist and stuck-line faults;
//! * `crash` is idempotent under any fault configuration;
//! * statistics counters are monotone across any operation sequence.

use nvm::{Addr, FaultConfig, NvmConfig, NvmStats, PersistMemory};
use proptest::prelude::*;
use std::collections::HashMap;

const SLOTS: u64 = 64;

fn small_mem(fcfg: Option<FaultConfig>) -> PersistMemory {
    let mut m = PersistMemory::new(NvmConfig {
        line_size: 32,
        cache_lines: 8,
        associativity: 2,
    });
    m.set_fault_config(fcfg);
    m
}

/// Decodes one drawn `(kind, slot, value)` tuple into a program-level
/// operation and applies it. The kind weights favour writes and reads.
fn apply(m: &mut PersistMemory, a: Addr, kind: u8, slot: u64, value: u64) {
    match kind {
        0..=3 => m.write_u64(a.index(slot, 8), value),
        4..=6 => {
            m.read_u64(a.index(slot, 8));
        }
        7 => {
            m.flush_all();
        }
        8 => {
            m.flush_line(a.index(slot, 8));
        }
        _ => m.crash(),
    }
}

/// Componentwise `a <= b` over every counter.
fn stats_leq(a: &NvmStats, b: &NvmStats) -> bool {
    a.nvm_reads <= b.nvm_reads
        && a.nvm_writes <= b.nvm_writes
        && a.nvm_read_bytes <= b.nvm_read_bytes
        && a.nvm_write_bytes <= b.nvm_write_bytes
        && a.cache_hits <= b.cache_hits
        && a.cache_misses <= b.cache_misses
        && a.natural_evictions <= b.natural_evictions
        && a.explicit_flushes <= b.explicit_flushes
        && a.store_ops <= b.store_ops
        && a.load_ops <= b.load_ops
        && a.torn_writebacks <= b.torn_writebacks
        && a.transient_persist_fails <= b.transient_persist_fails
        && a.ecc_detected_errors <= b.ecc_detected_errors
        && a.silent_bit_errors <= b.silent_bit_errors
        && a.quarantined_lines <= b.quarantined_lines
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Zero-cost when off: an attached-but-all-zero fault model must be
    /// indistinguishable — same stats, same durable bytes — from no model.
    #[test]
    fn inactive_fault_model_is_bit_identical(
        seed in any::<u64>(),
        ops in prop::collection::vec((0u8..10, 0u64..SLOTS, any::<u64>()), 1..120),
    ) {
        let mut plain = small_mem(None);
        let mut modeled = small_mem(Some(FaultConfig::none(seed)));
        let ap = plain.alloc(SLOTS * 8, 8);
        let am = modeled.alloc(SLOTS * 8, 8);
        for &(k, s, v) in &ops {
            apply(&mut plain, ap, k, s, v);
            apply(&mut modeled, am, k, s, v);
        }
        prop_assert_eq!(plain.stats(), modeled.stats());
        for s in 0..SLOTS {
            prop_assert_eq!(
                plain.read_durable_u64(ap.index(s, 8)),
                modeled.read_durable_u64(am.index(s, 8))
            );
        }
    }

    /// Flush-until-clean → crash never loses data, even when the device
    /// fails persists transiently or has stuck lines — provided the caller
    /// honours failed flushes by retrying and quarantining. (Torn and
    /// silent faults are excluded by construction: those *do* corrupt
    /// durable data silently, which is what LP validation is for.)
    #[test]
    fn accepted_flushes_survive_crashes(
        seed in any::<u64>(),
        transient_bp in 0u32..2_000,
        stuck_bp in 0u32..400,
        writes in prop::collection::vec((0u64..SLOTS, any::<u64>()), 1..80),
    ) {
        let mut m = small_mem(Some(FaultConfig {
            transient_persist_bp: transient_bp,
            stuck_line_bp: stuck_bp,
            ..FaultConfig::none(seed)
        }));
        let a = m.alloc(SLOTS * 8, 8);
        let mut shadow: HashMap<u64, u64> = HashMap::new();
        for &(s, v) in &writes {
            m.write_u64(a.index(s, 8), v);
            shadow.insert(s, v);
        }
        let mut attempts = 0;
        while m.flush_all() > 0 {
            attempts += 1;
            prop_assert!(attempts < 200, "flush-until-clean failed to converge");
            if attempts % 4 == 0 {
                // Persistent refusals: retire the lines, firmware-style.
                for base in m.dirty_line_bases() {
                    m.quarantine_line(base);
                }
            }
        }
        prop_assert_eq!(m.dirty_lines(), 0);
        m.crash();
        for (&s, &v) in &shadow {
            prop_assert_eq!(m.read_u64(a.index(s, 8)), v);
        }
    }

    /// `crash` is idempotent: crashing an already-crashed memory changes
    /// nothing durable, under any fault configuration.
    #[test]
    fn crash_is_idempotent(
        seed in any::<u64>(),
        (torn_bp, transient_bp, silent_bp) in (0u32..2_000, 0u32..2_000, 0u32..500),
        ops in prop::collection::vec((0u8..10, 0u64..SLOTS, any::<u64>()), 1..100),
    ) {
        let mut m = small_mem(Some(FaultConfig {
            torn_writeback_bp: torn_bp,
            transient_persist_bp: transient_bp,
            silent_error_bp: silent_bp,
            ..FaultConfig::none(seed)
        }));
        let a = m.alloc(SLOTS * 8, 8);
        for &(k, s, v) in &ops {
            apply(&mut m, a, k, s, v);
        }
        m.crash();
        let first: Vec<u64> = (0..SLOTS).map(|s| m.read_durable_u64(a.index(s, 8))).collect();
        m.crash();
        let second: Vec<u64> = (0..SLOTS).map(|s| m.read_durable_u64(a.index(s, 8))).collect();
        prop_assert_eq!(first, second);
        prop_assert_eq!(m.dirty_lines(), 0);
    }

    /// Every stats counter is monotone non-decreasing across any operation
    /// sequence, faults or not.
    #[test]
    fn stats_are_monotone(
        seed in any::<u64>(),
        (torn_bp, transient_bp, ecc_bp) in (0u32..2_000, 0u32..2_000, 0u32..2_000),
        ops in prop::collection::vec((0u8..10, 0u64..SLOTS, any::<u64>()), 1..120),
    ) {
        let mut m = small_mem(Some(FaultConfig {
            torn_writeback_bp: torn_bp,
            transient_persist_bp: transient_bp,
            ecc_error_bp: ecc_bp,
            ..FaultConfig::none(seed)
        }));
        let a = m.alloc(SLOTS * 8, 8);
        let mut prev = m.stats();
        for &(k, s, v) in &ops {
            apply(&mut m, a, k, s, v);
            let now = m.stats();
            prop_assert!(stats_leq(&prev, &now), "counter decreased: {prev:?} -> {now:?}");
            prev = now;
        }
    }
}
