//! Checksum algebra: the detectors Lazy Persistency regions are protected
//! with (§II-A, §IV-B of the paper).
//!
//! A checksum here is a fold over the 64-bit images of all *persistent
//! stores* of an LP region. For parallel (warp-shuffle) reduction the fold
//! must be associative and commutative, which holds for the two checksums
//! the paper recommends using **simultaneously**:
//!
//! * **modular** — wrapping integer addition;
//! * **parity** — bitwise XOR (a float enters as the integer its sign,
//!   exponent and mantissa bits form, Fig. 2).
//!
//! Adler-32 is also provided for parity with the CPU work it cites, but it
//! is order-*sensitive*, so it only composes with sequential reduction.

use nvm::{Addr, PersistMemory};
use serde::{Deserialize, Serialize};

/// Maximum number of simultaneous checksums a region can carry.
pub const MAX_CHECKSUMS: usize = 4;

/// The checksum functions explored by the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ChecksumKind {
    /// Wrapping 64-bit addition of store values.
    Modular,
    /// Bitwise XOR of store values.
    Parity,
    /// Adler-32 over the little-endian bytes of each store value.
    /// Order-sensitive: incompatible with parallel reduction.
    Adler32,
}

impl ChecksumKind {
    /// Identity element of the fold.
    pub fn init(self) -> u64 {
        match self {
            ChecksumKind::Modular | ChecksumKind::Parity => 0,
            ChecksumKind::Adler32 => 1, // Adler-32 starts at A=1, B=0
        }
    }

    /// Folds one store value into an accumulator.
    #[inline]
    pub fn update(self, acc: u64, value: u64) -> u64 {
        match self {
            ChecksumKind::Modular => acc.wrapping_add(value),
            ChecksumKind::Parity => acc ^ value,
            ChecksumKind::Adler32 => adler32_update(acc as u32, &value.to_le_bytes()) as u64,
        }
    }

    /// Combines two partial accumulators (used by reduction trees).
    ///
    /// # Panics
    ///
    /// Panics for [`ChecksumKind::Adler32`], which is not associative over
    /// accumulators; use sequential reduction for it.
    pub fn combine(self, a: u64, b: u64) -> u64 {
        match self {
            ChecksumKind::Modular => a.wrapping_add(b),
            ChecksumKind::Parity => a ^ b,
            ChecksumKind::Adler32 => {
                panic!("Adler-32 accumulators cannot be combined associatively")
            }
        }
    }

    /// Whether partial accumulators can be combined in any order — the
    /// requirement for warp-shuffle (parallel) reduction.
    pub fn is_associative(self) -> bool {
        !matches!(self, ChecksumKind::Adler32)
    }

    /// ALU operations one `update` costs on the simulated GPU (used by the
    /// timing model; Adler-32 is markedly more expensive, §IV-B).
    #[inline]
    pub fn update_alu_ops(self) -> u64 {
        match self {
            ChecksumKind::Modular => 1,
            ChecksumKind::Parity => 2, // ordered-int conversion + XOR
            ChecksumKind::Adler32 => 24,
        }
    }
}

/// The set of checksums protecting a region, applied simultaneously to
/// drive the false-negative rate down (§IV-B: modular + parity together
/// reach < 10⁻¹²).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChecksumSet {
    kinds: Vec<ChecksumKind>,
}

impl ChecksumSet {
    /// Creates a set from the given kinds.
    ///
    /// # Panics
    ///
    /// Panics if `kinds` is empty or holds more than [`MAX_CHECKSUMS`].
    pub fn new(kinds: Vec<ChecksumKind>) -> Self {
        assert!(
            !kinds.is_empty() && kinds.len() <= MAX_CHECKSUMS,
            "a checksum set needs 1..={MAX_CHECKSUMS} checksums"
        );
        Self { kinds }
    }

    /// The paper's recommended pair: modular + parity.
    pub fn modular_parity() -> Self {
        Self::new(vec![ChecksumKind::Modular, ChecksumKind::Parity])
    }

    /// Modular checksum alone.
    pub fn modular_only() -> Self {
        Self::new(vec![ChecksumKind::Modular])
    }

    /// Parity checksum alone.
    pub fn parity_only() -> Self {
        Self::new(vec![ChecksumKind::Parity])
    }

    /// The member kinds, in order.
    pub fn kinds(&self) -> &[ChecksumKind] {
        &self.kinds
    }

    /// Number of simultaneous checksums.
    pub fn arity(&self) -> usize {
        self.kinds.len()
    }

    /// Fresh accumulators (one per kind).
    pub fn init(&self) -> Vec<u64> {
        self.kinds.iter().map(|k| k.init()).collect()
    }

    /// Folds one store value into every accumulator.
    #[inline]
    pub fn update(&self, acc: &mut [u64], value: u64) {
        for (a, k) in acc.iter_mut().zip(&self.kinds) {
            *a = k.update(*a, value);
        }
    }

    /// Combines two accumulator vectors component-wise.
    ///
    /// # Panics
    ///
    /// Panics if the set contains a non-associative kind.
    pub fn combine(&self, a: &[u64], b: &[u64]) -> Vec<u64> {
        self.kinds
            .iter()
            .zip(a.iter().zip(b))
            .map(|(k, (&x, &y))| k.combine(x, y))
            .collect()
    }

    /// Whether every member kind supports parallel reduction.
    pub fn is_associative(&self) -> bool {
        self.kinds.iter().all(|k| k.is_associative())
    }

    /// Total ALU cost of one `update` across the set.
    #[inline]
    pub fn update_alu_ops(&self) -> u64 {
        self.kinds.iter().map(|k| k.update_alu_ops()).sum()
    }

    /// Checksums a whole sequence of store values (the recovery-side
    /// recomputation path).
    pub fn digest(&self, values: impl IntoIterator<Item = u64>) -> Vec<u64> {
        let mut acc = self.init();
        for v in values {
            self.update(&mut acc, v);
        }
        acc
    }
}

impl Default for ChecksumSet {
    fn default() -> Self {
        Self::modular_parity()
    }
}

const ADLER_MOD: u32 = 65_521;

/// One streaming Adler-32 step over `bytes`, with `(B << 16) | A` packing.
pub fn adler32_update(state: u32, bytes: &[u8]) -> u32 {
    let mut a = state & 0xFFFF;
    let mut b = state >> 16;
    for &byte in bytes {
        a = (a + byte as u32) % ADLER_MOD;
        b = (b + a) % ADLER_MOD;
    }
    (b << 16) | a
}

/// Adler-32 of a byte slice (standard initial state).
pub fn adler32(bytes: &[u8]) -> u32 {
    adler32_update(1, bytes)
}

/// The 64-bit image of an `f32` store used for checksum updates: the
/// paper's example (Fig. 2) concatenates sign, exponent, and mantissa into
/// an integer — e.g. `3.5f32` becomes `1080033280`.
///
/// ```
/// assert_eq!(gpu_lp::checksum::f32_store_image(3.5), 1_080_033_280);
/// ```
#[inline]
pub fn f32_store_image(v: f32) -> u64 {
    v.to_bits() as u64
}

/// The 64-bit image of an `f64` store used for checksum updates.
#[inline]
pub fn f64_store_image(v: f64) -> u64 {
    v.to_bits()
}

/// Appends to `images` the store images of `count` rounds of the `M`
/// contiguous streams of `N`-byte words at `starts` — word `i` of every
/// stream, in stream order, then word `i + 1` — read back in one
/// [`PersistMemory::read_runs`]. A word's image is its little-endian value,
/// so a `u32` and an `f32` (as [`f32_store_image`]) image alike.
///
/// This is the whole read-back of a region that folded each of these words
/// once, in this order. Recovery reads back every block, so it allocates
/// nothing: `images` is the caller's, sized by the caller.
///
/// ```
/// use gpu_lp::checksum::{f32_store_image, read_back_images};
/// use nvm::{NvmConfig, PersistMemory};
/// let mut mem = PersistMemory::new(NvmConfig::tiny_cache());
/// let (re, im) = (mem.alloc(8, 4), mem.alloc(8, 4));
/// mem.write_run_u32(re, [1.5f32.to_bits(), 2.5f32.to_bits()]);
/// mem.write_run_u32(im, [7, 9]);
/// let mut images = Vec::with_capacity(4);
/// read_back_images::<2, 4>(&mut mem, [re, im], 2, &mut images);
/// assert_eq!(images, [f32_store_image(1.5), 7, f32_store_image(2.5), 9]);
/// ```
pub fn read_back_images<const M: usize, const N: usize>(
    mem: &mut PersistMemory,
    starts: [Addr; M],
    count: u64,
    images: &mut Vec<u64>,
) {
    const { assert!(N <= 8, "a store image is at most 8 bytes") };
    mem.read_runs::<M, N>(starts, count, |_, words| {
        images.extend(words.map(|w| {
            let mut image = [0u8; 8];
            image[..N].copy_from_slice(&w);
            u64::from_le_bytes(image)
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn modular_is_wrapping_sum() {
        let k = ChecksumKind::Modular;
        let mut acc = k.init();
        for v in [u64::MAX, 5, 7] {
            acc = k.update(acc, v);
        }
        assert_eq!(acc, u64::MAX.wrapping_add(12));
    }

    #[test]
    fn parity_is_xor() {
        let k = ChecksumKind::Parity;
        let acc = [3u64, 5, 3, 5, 9]
            .iter()
            .fold(k.init(), |a, &v| k.update(a, v));
        assert_eq!(acc, 9);
    }

    #[test]
    fn combine_matches_split_fold() {
        for k in [ChecksumKind::Modular, ChecksumKind::Parity] {
            let vals: Vec<u64> = (0..100).map(|i| i * 0x9E37_79B9).collect();
            let whole = vals.iter().fold(k.init(), |a, &v| k.update(a, v));
            let left = vals[..50].iter().fold(k.init(), |a, &v| k.update(a, v));
            let right = vals[50..].iter().fold(k.init(), |a, &v| k.update(a, v));
            assert_eq!(k.combine(left, right), whole);
        }
    }

    #[test]
    fn adler_is_order_sensitive_and_flagged() {
        let k = ChecksumKind::Adler32;
        assert!(!k.is_associative());
        let ab = k.update(k.update(k.init(), 1), 2);
        let ba = k.update(k.update(k.init(), 2), 1);
        assert_ne!(ab, ba);
    }

    #[test]
    #[should_panic(expected = "associatively")]
    fn adler_combine_panics() {
        ChecksumKind::Adler32.combine(1, 2);
    }

    #[test]
    fn adler32_known_vector() {
        // Adler-32 of "Wikipedia" is 0x11E60398.
        assert_eq!(adler32(b"Wikipedia"), 0x11E6_0398);
    }

    #[test]
    fn set_detects_single_value_change() {
        let set = ChecksumSet::modular_parity();
        let vals: Vec<u64> = (0..64).map(|i| i * 1234567).collect();
        let good = set.digest(vals.iter().copied());
        let mut bad_vals = vals.clone();
        bad_vals[17] ^= 0x10; // one flipped bit
        let bad = set.digest(bad_vals);
        assert_ne!(good, bad);
    }

    #[test]
    fn set_detects_missing_value() {
        let set = ChecksumSet::modular_parity();
        let vals: Vec<u64> = (1..=32).collect();
        let good = set.digest(vals.iter().copied());
        let dropped = set.digest(vals[..31].iter().copied());
        assert_ne!(good, dropped);
    }

    #[test]
    fn modular_alone_misses_compensating_swap_but_pair_often_catches() {
        // The motivation for simultaneous checksums: +d on one value and -d
        // on another fools modular, but not parity (unless bit patterns
        // collide).
        let modular = ChecksumSet::modular_only();
        let vals = vec![10u64, 20, 30];
        let swapped = vec![11u64, 19, 30];
        assert_eq!(
            modular.digest(vals.clone()),
            modular.digest(swapped.clone())
        );
        let pair = ChecksumSet::modular_parity();
        assert_ne!(pair.digest(vals), pair.digest(swapped));
    }

    #[test]
    fn set_update_and_digest_agree() {
        let set = ChecksumSet::modular_parity();
        let mut acc = set.init();
        for v in 0..50u64 {
            set.update(&mut acc, v * 31);
        }
        assert_eq!(acc, set.digest((0..50u64).map(|v| v * 31)));
    }

    #[test]
    fn set_combine_componentwise() {
        let set = ChecksumSet::modular_parity();
        let a = set.digest(0..10u64);
        let b = set.digest(10..20u64);
        assert_eq!(set.combine(&a, &b), set.digest(0..20u64));
    }

    #[test]
    #[should_panic(expected = "checksum set needs")]
    fn empty_set_rejected() {
        ChecksumSet::new(vec![]);
    }

    #[test]
    fn paper_figure2_example() {
        assert_eq!(f32_store_image(3.5), 1_080_033_280);
    }

    #[test]
    fn adler_costlier_than_modular() {
        assert!(ChecksumKind::Adler32.update_alu_ops() > ChecksumKind::Modular.update_alu_ops());
    }
}
