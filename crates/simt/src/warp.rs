//! Pure SIMT warp-collective semantics.
//!
//! These functions model what Kepler+ GPUs do with `__shfl_down_sync` and
//! friends at the *value* level, for a warp represented as a slice of lane
//! values. The Lazy Persistency runtime uses them to implement the paper's
//! Listing 3/4 parallel reduction, and the tests verify the classic
//! butterfly-reduction identities.
//!
//! Cost accounting lives in [`crate::BlockCtx`]; these helpers are pure.

/// Threads per warp on every NVIDIA architecture.
pub const WARP_SIZE: usize = 32;

/// `__shfl_down_sync`: lane `i` receives the value of lane `i + offset`;
/// lanes whose source is out of range keep their own value.
///
/// # Examples
///
/// ```
/// let lanes: Vec<u64> = (0..32).collect();
/// let shifted = simt::warp::shfl_down(&lanes, 16);
/// assert_eq!(shifted[0], 16);
/// assert_eq!(shifted[20], 20); // no source lane: keeps its own value
/// ```
pub fn shfl_down(lanes: &[u64], offset: usize) -> Vec<u64> {
    lanes
        .iter()
        .enumerate()
        .map(|(i, &v)| {
            if i + offset < lanes.len() {
                lanes[i + offset]
            } else {
                v
            }
        })
        .collect()
}

/// `__shfl_xor_sync`: lane `i` exchanges with lane `i ^ mask` (within range).
pub fn shfl_xor(lanes: &[u64], mask: usize) -> Vec<u64> {
    lanes
        .iter()
        .enumerate()
        .map(|(i, &v)| {
            let src = i ^ mask;
            if src < lanes.len() {
                lanes[src]
            } else {
                v
            }
        })
        .collect()
}

/// Number of butterfly steps for a warp-wide reduction
/// (`log2(WARP_SIZE)` = 5).
pub fn reduction_steps() -> u32 {
    WARP_SIZE.trailing_zeros()
}

/// Warp-wide reduction via the `shfl_down` butterfly (Listing 4 of the
/// paper): after `log2(n)` halving steps, lane 0 holds `op` folded over all
/// lanes. `op` must be associative and commutative — the same requirement LP
/// places on its checksums.
///
/// The butterfly folds in place on a stack copy of the lanes and allocates
/// nothing: within a step, lanes are visited in ascending order, so lane
/// `i + offset` still holds its pre-step value when lane `i` reads it —
/// exactly what [`shfl_down`] would deliver.
///
/// # Panics
///
/// Panics if `lanes` is empty or longer than [`WARP_SIZE`].
///
/// # Examples
///
/// ```
/// let lanes: Vec<u64> = (1..=32).collect();
/// let total = simt::warp::warp_reduce(&lanes, |a, b| a.wrapping_add(b));
/// assert_eq!(total, (1..=32).sum::<u64>());
/// ```
pub fn warp_reduce(lanes: &[u64], op: impl Fn(u64, u64) -> u64) -> u64 {
    assert!(
        !lanes.is_empty() && lanes.len() <= WARP_SIZE,
        "invalid warp width"
    );
    let n = lanes.len();
    let mut vals = [0u64; WARP_SIZE];
    vals[..n].copy_from_slice(lanes);
    let mut offset = WARP_SIZE / 2;
    while offset > 0 {
        // Lanes whose partner is out of the active width contribute
        // nothing (CUDA masks them off).
        for i in 0..n.saturating_sub(offset) {
            vals[i] = op(vals[i], vals[i + offset]);
        }
        offset /= 2;
    }
    vals[0]
}

/// Convenience: warp-wide modular (wrapping add) reduction.
pub fn warp_reduce_sum(lanes: &[u64]) -> u64 {
    warp_reduce(lanes, |a, b| a.wrapping_add(b))
}

/// Convenience: warp-wide parity (XOR) reduction.
pub fn warp_reduce_xor(lanes: &[u64]) -> u64 {
    warp_reduce(lanes, |a, b| a ^ b)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shfl_down_shifts() {
        let lanes: Vec<u64> = (0..32).collect();
        let s = shfl_down(&lanes, 1);
        assert_eq!(s[0], 1);
        assert_eq!(s[30], 31);
        assert_eq!(s[31], 31); // keeps own
    }

    #[test]
    fn shfl_xor_is_involution() {
        let lanes: Vec<u64> = (100..132).collect();
        let once = shfl_xor(&lanes, 5);
        let twice = shfl_xor(&once, 5);
        assert_eq!(twice, lanes);
    }

    /// [`warp_reduce`] as it was built before the in-place fold: every
    /// step materialises the `shfl_down` result. The reference that pins
    /// the fold's combination order.
    fn warp_reduce_via_shfl_down(lanes: &[u64], op: impl Fn(u64, u64) -> u64) -> u64 {
        let mut vals = lanes.to_vec();
        let mut offset = WARP_SIZE / 2;
        while offset > 0 {
            let shifted = shfl_down(&vals, offset);
            for (i, v) in vals.iter_mut().enumerate() {
                if i + offset < lanes.len() {
                    *v = op(*v, shifted[i]);
                }
            }
            offset /= 2;
        }
        vals[0]
    }

    #[test]
    fn in_place_fold_keeps_the_shfl_down_combination_order() {
        // Neither commutative nor associative: equal results mean every
        // lane met the same partner in the same step and argument order.
        let op = |a: u64, b: u64| {
            (a ^ b.rotate_left(17))
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(a)
        };
        for width in 1..=WARP_SIZE {
            let lanes: Vec<u64> = (0..width as u64)
                .map(|i| (i + 1).wrapping_mul(0xD6E8_FEB8_6659_FD93) ^ (i << 40))
                .collect();
            assert_eq!(
                warp_reduce(&lanes, op),
                warp_reduce_via_shfl_down(&lanes, op),
                "width {width}"
            );
        }
    }

    #[test]
    fn reduce_sum_matches_direct_sum() {
        let lanes: Vec<u64> = (0..32).map(|i| i * i + 7).collect();
        assert_eq!(warp_reduce_sum(&lanes), lanes.iter().sum::<u64>());
    }

    #[test]
    fn reduce_xor_matches_direct_xor() {
        let lanes: Vec<u64> = (0..32u64)
            .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .collect();
        let direct = lanes.iter().fold(0, |a, b| a ^ b);
        assert_eq!(warp_reduce_xor(&lanes), direct);
    }

    #[test]
    fn partial_warp_reduces_correctly() {
        // 20 active lanes (grid tail), like __shfl_down_sync with a partial mask.
        let lanes: Vec<u64> = (1..=20).collect();
        assert_eq!(warp_reduce_sum(&lanes), 210);
    }

    #[test]
    fn single_lane_is_identity() {
        assert_eq!(warp_reduce_sum(&[42]), 42);
    }

    #[test]
    fn five_steps_for_full_warp() {
        assert_eq!(reduction_steps(), 5);
    }

    #[test]
    #[should_panic(expected = "invalid warp width")]
    fn oversized_warp_panics() {
        warp_reduce_sum(&[0; 33]);
    }

    #[test]
    fn wrapping_sum_no_overflow_panic() {
        let lanes = [u64::MAX; 32];
        // Must not panic in debug builds.
        warp_reduce_sum(&lanes);
    }
}
