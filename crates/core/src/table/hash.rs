//! Hash functions used by the checksum tables.

pub use nvm::splitmix64;

/// Seeded hash of a table key. Different seeds give the independent hash
/// functions cuckoo hashing needs.
pub fn hash_with_seed(key: u64, seed: u64) -> u64 {
    splitmix64(key ^ splitmix64(seed))
}

/// ALU operations one hash evaluation costs in the timing model.
pub const HASH_ALU_OPS: u64 = 6;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_permutation_like() {
        // Distinct inputs give distinct outputs over a decent range.
        let mut seen = std::collections::HashSet::new();
        for i in 0..10_000u64 {
            assert!(seen.insert(splitmix64(i)), "collision at {i}");
        }
    }

    #[test]
    fn seeds_decorrelate() {
        let same_seed: usize = (0..1000)
            .filter(|&k| hash_with_seed(k, 1) % 128 == hash_with_seed(k, 2) % 128)
            .count();
        // Two independent hash functions agree on a 128-bucket index ~1/128
        // of the time; allow generous slack.
        assert!(same_seed < 40, "seeded hashes too correlated: {same_seed}");
    }

    #[test]
    fn hash_is_deterministic() {
        assert_eq!(hash_with_seed(42, 7), hash_with_seed(42, 7));
    }

    #[test]
    fn buckets_reasonably_uniform() {
        let n = 64u64;
        let mut counts = vec![0u32; n as usize];
        for k in 0..6400u64 {
            counts[(hash_with_seed(k, 0) % n) as usize] += 1;
        }
        let (min, max) = counts
            .iter()
            .fold((u32::MAX, 0), |(lo, hi), &c| (lo.min(c), hi.max(c)));
        // Mean is 100; a sane hash stays within a loose band.
        assert!(min > 50 && max < 180, "skewed distribution: {min}..{max}");
    }
}
