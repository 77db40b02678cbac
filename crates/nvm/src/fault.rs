//! Deterministic device-fault model for the NVM.
//!
//! Real persistent-memory devices are not the perfect store the rest of
//! this crate models by default: write-backs can *tear* (only a prefix of
//! the line's 8-byte words reaches the media before the eviction completes),
//! persists can fail transiently (the line simply stays dirty and must be
//! retried), individual lines can be *stuck* (every persist to them fails
//! until the line is retired), and media cells decay, surfacing as
//! correctable (ECC-detected) or silent bit errors on reads.
//!
//! [`FaultConfig`] describes the fault intensities in basis points
//! (1/10 000 per device event) plus a PRNG seed; [`FaultModel`] is the
//! seeded instance. Both are plain data: the same config and the same
//! access trace always produce the same faults, so crash-injection trials
//! stay fully replayable. When no model is attached (or every rate is
//! zero) the device behaves exactly as before — the fast paths perform no
//! PRNG work at all, keeping the fault machinery zero-cost when off.

use crate::stats::NvmStats;
use serde::{Deserialize, Serialize};

/// Sebastiano Vigna's SplitMix64 finaliser: a cheap, well-mixed 64-bit
/// permutation. The workspace's one deterministic mixer — fault sampling
/// here, checksum-table indexing and region seals in the LP runtime,
/// journal and manifest checksums, seed derivation everywhere.
#[inline]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Fault intensities, in basis points (1/10 000) per device event, plus
/// the PRNG seed. Entirely plain data so a
/// fault campaign can serialize it into a trial coordinate.
///
/// "Per device event" means: the write-back rates are rolled once per
/// line write-back (eviction or flush), the media rates once per line
/// fill from NVM. `stuck_line_bp` is different — it is a *per-line*
/// property derived from the seed, not a per-event roll: a stuck line
/// fails every persist until it is retired via
/// [`crate::PersistMemory::quarantine_line`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultConfig {
    /// PRNG seed; two models with equal seeds and rates inject identical
    /// fault sequences over identical access traces.
    pub seed: u64,
    /// Torn write-back probability: the line persists only a prefix of its
    /// 8-byte words, but the device reports success.
    pub torn_writeback_bp: u32,
    /// Transient persist-failure probability: the write-back fails and the
    /// line stays dirty; the caller sees the failure and may retry.
    pub transient_persist_bp: u32,
    /// Fraction of lines that are permanently stuck: every persist to them
    /// fails until the line is quarantined and remapped.
    pub stuck_line_bp: u32,
    /// ECC-detected (and corrected) media bit error probability per line
    /// fill: data is delivered intact, but the error is counted and the
    /// line address logged so the runtime can retire decaying lines.
    pub ecc_error_bp: u32,
    /// Silent media bit-flip probability per line fill: one bit of the
    /// durable line is corrupted with no notification. Only LP's checksum
    /// validation can catch these (and only inside protected data).
    pub silent_error_bp: u32,
}

impl FaultConfig {
    /// A model that injects nothing (all rates zero).
    pub fn none(seed: u64) -> Self {
        Self {
            seed,
            torn_writeback_bp: 0,
            transient_persist_bp: 0,
            stuck_line_bp: 0,
            ecc_error_bp: 0,
            silent_error_bp: 0,
        }
    }

    /// Torn write-backs only, at `bp` basis points.
    pub fn torn(seed: u64, bp: u32) -> Self {
        Self {
            torn_writeback_bp: bp,
            ..Self::none(seed)
        }
    }

    /// Transient persist failures at `bp` basis points plus a smaller
    /// population (`bp / 4`) of permanently stuck lines, so retry *and*
    /// quarantine both get exercised.
    pub fn transient(seed: u64, bp: u32) -> Self {
        Self {
            transient_persist_bp: bp,
            stuck_line_bp: bp / 4,
            ..Self::none(seed)
        }
    }

    /// Media bit errors on fills: ECC-detected at `ecc_bp`, silent at
    /// `silent_bp` basis points.
    pub fn media(seed: u64, ecc_bp: u32, silent_bp: u32) -> Self {
        Self {
            ecc_error_bp: ecc_bp,
            silent_error_bp: silent_bp,
            ..Self::none(seed)
        }
    }

    /// Whether any fault class has a non-zero rate.
    pub fn is_active(&self) -> bool {
        self.torn_writeback_bp > 0
            || self.transient_persist_bp > 0
            || self.stuck_line_bp > 0
            || self.ecc_error_bp > 0
            || self.silent_error_bp > 0
    }
}

/// The fate the model assigns to one line write-back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum WritebackFate {
    /// The whole line reached the media.
    Full,
    /// Only the first `n` 8-byte words persisted; the device still reports
    /// success (the dangerous case LP validation must catch).
    Torn(usize),
    /// The persist failed; the line stays dirty and the caller may retry.
    Fail,
}

/// A seeded instance of [`FaultConfig`]: the config plus the PRNG cursor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultModel {
    cfg: FaultConfig,
    state: u64,
}

impl FaultModel {
    /// Creates a model at the start of its deterministic fault sequence.
    pub fn new(cfg: FaultConfig) -> Self {
        Self {
            state: splitmix64(cfg.seed ^ 0xDE71_CE00_FA17_0001),
            cfg,
        }
    }

    /// The configuration this model was built from.
    pub fn config(&self) -> &FaultConfig {
        &self.cfg
    }

    fn roll(&mut self) -> u64 {
        self.state = splitmix64(self.state);
        self.state
    }

    /// Rolls one event against a basis-point rate. Zero rates consume no
    /// randomness, so inactive fault classes never perturb the stream.
    fn hit(&mut self, bp: u32) -> bool {
        bp > 0 && self.roll() % 10_000 < u64::from(bp)
    }

    /// Whether `line_base` is a stuck line. This is a stateless per-line
    /// property (hash of seed and address), so the same line fails every
    /// persist until the runtime remaps it elsewhere.
    pub fn line_is_stuck(&self, line_base: u64) -> bool {
        self.cfg.stuck_line_bp > 0
            && splitmix64(self.cfg.seed ^ line_base.rotate_left(17)) % 10_000
                < u64::from(self.cfg.stuck_line_bp)
    }
}

/// The per-memory fault state: an optional model plus the log of
/// ECC-detected read errors awaiting the runtime's attention.
///
/// This is what [`crate::PersistMemory`] owns and threads through the
/// cache. With no model attached every hook is a branch on `None` and
/// nothing else — the zero-cost-when-off guarantee.
#[derive(Debug, Clone, Default)]
pub struct DeviceFaults {
    model: Option<FaultModel>,
    ecc_log: Vec<u64>,
}

impl DeviceFaults {
    /// Fault state driven by `cfg` (`None` disables injection entirely).
    pub fn new(cfg: Option<FaultConfig>) -> Self {
        Self {
            model: cfg.map(FaultModel::new),
            ecc_log: Vec::new(),
        }
    }

    /// Fault injection disabled.
    pub fn off() -> Self {
        Self::default()
    }

    /// Whether a model with at least one non-zero rate is attached.
    pub fn is_active(&self) -> bool {
        self.model.as_ref().is_some_and(|m| m.cfg.is_active())
    }

    /// The attached configuration, if any.
    pub fn config(&self) -> Option<&FaultConfig> {
        self.model.as_ref().map(FaultModel::config)
    }

    /// Drains the line base addresses whose fills hit ECC-detected errors
    /// since the last call (duplicates possible: one entry per event).
    pub fn take_ecc_log(&mut self) -> Vec<u64> {
        std::mem::take(&mut self.ecc_log)
    }

    /// Decides the fate of a write-back of the line at `line_base` holding
    /// `words` 8-byte words, updating the fault counters.
    pub(crate) fn writeback_fate(&mut self, line_base: u64, words: usize) -> WritebackFate {
        let Some(m) = &mut self.model else {
            return WritebackFate::Full;
        };
        if m.line_is_stuck(line_base) || m.hit(m.cfg.transient_persist_bp) {
            return WritebackFate::Fail;
        }
        if words > 0 && m.hit(m.cfg.torn_writeback_bp) {
            // A strict prefix: 0..words-1 complete words persisted.
            return WritebackFate::Torn((m.roll() % words as u64) as usize);
        }
        WritebackFate::Full
    }

    /// Applies media read faults to the durable bytes of one line as it is
    /// filled into the cache. ECC-detected errors are corrected (data
    /// intact) but counted and logged; silent errors flip one bit of the
    /// durable image.
    pub(crate) fn fill_fault(&mut self, line_base: u64, durable: &mut [u8], stats: &mut NvmStats) {
        let Some(m) = &mut self.model else {
            return;
        };
        if m.hit(m.cfg.ecc_error_bp) {
            stats.ecc_detected_errors += 1;
            self.ecc_log.push(line_base);
        }
        if m.hit(m.cfg.silent_error_bp) && !durable.is_empty() {
            let bit = (m.roll() % (durable.len() as u64 * 8)) as usize;
            durable[bit / 8] ^= 1 << (bit % 8);
            stats.silent_bit_errors += 1;
        }
    }
}

/// Outcome of a single-line flush (`clwb`) when the device can fail.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlushOutcome {
    /// The line was not resident or not dirty — nothing to persist.
    Clean,
    /// The line was written back and reported durable (a torn write-back
    /// also reports this: the tear is silent by definition).
    Persisted,
    /// The write-back failed; the line stays dirty. Retry or quarantine.
    TransientFail,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inactive_config_is_not_active() {
        assert!(!FaultConfig::none(7).is_active());
        assert!(FaultConfig::torn(7, 1).is_active());
        assert!(FaultConfig::transient(7, 4).is_active());
        assert!(FaultConfig::media(7, 1, 0).is_active());
    }

    #[test]
    fn fault_sequences_are_replayable() {
        let cfg = FaultConfig {
            torn_writeback_bp: 2_000,
            transient_persist_bp: 2_000,
            ..FaultConfig::none(42)
        };
        let run = |mut d: DeviceFaults| {
            (0..64)
                .map(|i| d.writeback_fate(i * 128, 16))
                .collect::<Vec<_>>()
        };
        let a = run(DeviceFaults::new(Some(cfg)));
        let b = run(DeviceFaults::new(Some(cfg)));
        assert_eq!(a, b);
        assert!(a.iter().any(|f| *f != WritebackFate::Full));
    }

    #[test]
    fn no_model_injects_nothing() {
        let mut d = DeviceFaults::off();
        let mut stats = NvmStats::default();
        let mut line = [0xABu8; 128];
        for i in 0..1000 {
            assert_eq!(d.writeback_fate(i * 128, 16), WritebackFate::Full);
            d.fill_fault(i * 128, &mut line, &mut stats);
        }
        assert_eq!(stats, NvmStats::default());
        assert!(line.iter().all(|&b| b == 0xAB));
        assert!(d.take_ecc_log().is_empty());
    }

    #[test]
    fn inactive_model_behaves_like_no_model() {
        let mut d = DeviceFaults::new(Some(FaultConfig::none(9)));
        assert!(!d.is_active());
        for i in 0..1000 {
            assert_eq!(d.writeback_fate(i * 64, 8), WritebackFate::Full);
        }
    }

    #[test]
    fn stuck_lines_fail_every_writeback() {
        let cfg = FaultConfig {
            stuck_line_bp: 2_000,
            ..FaultConfig::none(3)
        };
        let m = FaultModel::new(cfg);
        let stuck: Vec<u64> = (0..512)
            .map(|i| i * 128)
            .filter(|&b| m.line_is_stuck(b))
            .collect();
        assert!(!stuck.is_empty(), "a 20% stuck rate must hit some line");
        let mut d = DeviceFaults::new(Some(cfg));
        for &b in &stuck {
            for _ in 0..8 {
                assert_eq!(d.writeback_fate(b, 16), WritebackFate::Fail);
            }
        }
    }

    #[test]
    fn torn_fate_is_a_strict_prefix() {
        let cfg = FaultConfig::torn(11, 10_000);
        let mut d = DeviceFaults::new(Some(cfg));
        for i in 0..200 {
            match d.writeback_fate(i * 128, 16) {
                WritebackFate::Torn(n) => assert!(n < 16),
                other => panic!("100% torn rate must always tear, got {other:?}"),
            }
        }
    }

    #[test]
    fn ecc_errors_are_logged_and_corrected() {
        let cfg = FaultConfig::media(5, 10_000, 0);
        let mut d = DeviceFaults::new(Some(cfg));
        let mut stats = NvmStats::default();
        let mut line = [0x5Au8; 128];
        d.fill_fault(4096, &mut line, &mut stats);
        assert_eq!(stats.ecc_detected_errors, 1);
        assert!(line.iter().all(|&b| b == 0x5A), "ECC corrects the data");
        assert_eq!(d.take_ecc_log(), vec![4096]);
        assert!(d.take_ecc_log().is_empty(), "log drains");
    }

    #[test]
    fn silent_errors_corrupt_one_bit() {
        let cfg = FaultConfig::media(5, 0, 10_000);
        let mut d = DeviceFaults::new(Some(cfg));
        let mut stats = NvmStats::default();
        let mut line = [0u8; 128];
        d.fill_fault(0, &mut line, &mut stats);
        assert_eq!(stats.silent_bit_errors, 1);
        let flipped: u32 = line.iter().map(|b| b.count_ones()).sum();
        assert_eq!(flipped, 1, "exactly one bit flips per event");
        assert!(d.take_ecc_log().is_empty(), "silent errors are not logged");
    }

    #[test]
    fn config_roundtrips_through_json() {
        let cfg = FaultConfig {
            torn_writeback_bp: 50,
            transient_persist_bp: 25,
            stuck_line_bp: 5,
            ecc_error_bp: 100,
            silent_error_bp: 1,
            ..FaultConfig::none(123)
        };
        let s = serde_json::to_string(&cfg).unwrap();
        let back: FaultConfig = serde_json::from_str(&s).unwrap();
        assert_eq!(cfg, back);
    }
}
