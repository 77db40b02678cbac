//! Grid/block dimension types.

use serde::{Deserialize, Serialize};

/// A three-component dimension, like CUDA's `dim3`.
///
/// # Examples
///
/// ```
/// use simt::Dim3;
/// let d = Dim3::xy(4, 3);
/// assert_eq!(d.count(), 12);
/// assert_eq!(d.flatten(1, 2, 0), 9); // x + y*dim.x
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Dim3 {
    /// Extent in x.
    pub x: u32,
    /// Extent in y.
    pub y: u32,
    /// Extent in z.
    pub z: u32,
}

impl Dim3 {
    /// A 1-D dimension.
    pub fn x(x: u32) -> Self {
        Dim3 { x, y: 1, z: 1 }
    }

    /// A 2-D dimension.
    pub fn xy(x: u32, y: u32) -> Self {
        Dim3 { x, y, z: 1 }
    }

    /// A full 3-D dimension.
    pub fn xyz(x: u32, y: u32, z: u32) -> Self {
        Dim3 { x, y, z }
    }

    /// Total number of elements.
    #[inline]
    pub fn count(&self) -> u64 {
        self.x as u64 * self.y as u64 * self.z as u64
    }

    /// Flat index of coordinate `(x, y, z)` in row-major (x fastest) order.
    #[inline]
    pub fn flatten(&self, x: u32, y: u32, z: u32) -> u64 {
        x as u64 + self.x as u64 * (y as u64 + self.y as u64 * z as u64)
    }

    /// Inverse of [`Dim3::flatten`].
    #[inline]
    pub fn unflatten(&self, flat: u64) -> (u32, u32, u32) {
        // Thread and block indices all but always fit 32 bits, where the
        // two div/mod pairs on runtime divisors cost a fraction of their
        // 64-bit forms.
        match u32::try_from(flat) {
            Ok(flat) => self.unflatten_u32(flat),
            Err(_) => self.unflatten_u64(flat),
        }
    }

    #[inline]
    fn unflatten_u32(&self, flat: u32) -> (u32, u32, u32) {
        let rest = flat / self.x;
        (flat % self.x, rest % self.y, rest / self.y)
    }

    #[inline]
    fn unflatten_u64(&self, flat: u64) -> (u32, u32, u32) {
        let rest = flat / self.x as u64;
        let x = (flat % self.x as u64) as u32;
        let y = (rest % self.y as u64) as u32;
        let z = (rest / self.y as u64) as u32;
        (x, y, z)
    }
}

impl Default for Dim3 {
    fn default() -> Self {
        Dim3::x(1)
    }
}

/// Grid and thread-block dimensions of a kernel launch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LaunchConfig {
    /// Number of thread blocks in each grid dimension.
    pub grid: Dim3,
    /// Number of threads in each block dimension.
    pub block: Dim3,
}

impl LaunchConfig {
    /// A 1-D launch covering `n` work items with `block_threads` threads per
    /// block (grid size rounded up).
    ///
    /// # Panics
    ///
    /// Panics if `block_threads` is zero.
    pub fn linear(n: u64, block_threads: u32) -> Self {
        assert!(block_threads > 0, "block size must be non-zero");
        let blocks = n.div_ceil(block_threads as u64).max(1);
        LaunchConfig {
            grid: Dim3::x(u32::try_from(blocks).expect("grid too large")),
            block: Dim3::x(block_threads),
        }
    }

    /// A 2-D launch of `grid_x` × `grid_y` blocks of `bx` × `by` threads.
    pub fn grid2d(grid_x: u32, grid_y: u32, bx: u32, by: u32) -> Self {
        LaunchConfig {
            grid: Dim3::xy(grid_x, grid_y),
            block: Dim3::xy(bx, by),
        }
    }

    /// Total number of thread blocks.
    #[inline]
    pub fn num_blocks(&self) -> u64 {
        self.grid.count()
    }

    /// Threads per block.
    #[inline]
    pub fn threads_per_block(&self) -> u64 {
        self.block.count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn flatten_unflatten_roundtrip() {
        let d = Dim3::xyz(5, 4, 3);
        for flat in 0..d.count() {
            let (x, y, z) = d.unflatten(flat);
            assert_eq!(d.flatten(x, y, z), flat);
        }
    }

    #[test]
    fn narrow_and_wide_unflatten_agree_on_small_dims() {
        for (x, y, z) in [(1, 1, 1), (7, 1, 1), (1, 9, 2), (5, 4, 3), (8, 8, 1)] {
            let d = Dim3::xyz(x, y, z);
            // Past `count()` too: z just keeps growing, in both paths.
            for flat in 0..2 * d.count() as u32 {
                assert_eq!(d.unflatten_u32(flat), d.unflatten_u64(flat as u64));
                assert_eq!(d.unflatten(flat as u64), d.unflatten_u64(flat as u64));
            }
        }
    }

    proptest! {
        /// Indices past 32 bits take the wide path and still invert `flatten`.
        #[test]
        fn wide_indices_roundtrip(
            x in 1u32..=u32::MAX,
            y in 1u32..=u32::MAX,
            z in 1u32..=u32::MAX,
            pick in any::<u64>(),
        ) {
            let d = Dim3::xyz(x, y, z);
            // `count()` itself may not fit 64 bits here.
            let count = x as u128 * y as u128 * z as u128;
            prop_assume!(count > 1 << 32);
            let span = count.min(u64::MAX as u128) as u64 - (1 << 32);
            let flat = (1 << 32) + pick % span;
            let (cx, cy, cz) = d.unflatten(flat);
            prop_assert!(cx < d.x && cy < d.y && cz < d.z);
            prop_assert_eq!(d.flatten(cx, cy, cz), flat);
        }

        /// ... and so do the indices that take the 32-bit path.
        #[test]
        fn narrow_indices_roundtrip(
            x in 1u32..2000,
            y in 1u32..2000,
            z in 1u32..1000,
            pick in any::<u64>(),
        ) {
            let d = Dim3::xyz(x, y, z);
            let flat = pick % d.count().min(1 << 32);
            let (cx, cy, cz) = d.unflatten(flat);
            prop_assert_eq!(d.unflatten_u64(flat), (cx, cy, cz));
            prop_assert_eq!(d.flatten(cx, cy, cz), flat);
        }
    }

    #[test]
    fn linear_rounds_up() {
        let lc = LaunchConfig::linear(100, 32);
        assert_eq!(lc.num_blocks(), 4);
        assert_eq!(lc.threads_per_block(), 32);
        assert!(lc.num_blocks() * lc.threads_per_block() >= 100);
    }

    #[test]
    fn linear_minimum_one_block() {
        assert_eq!(LaunchConfig::linear(0, 64).num_blocks(), 1);
    }

    #[test]
    fn grid2d_counts() {
        let lc = LaunchConfig::grid2d(8, 8, 16, 16);
        assert_eq!(lc.num_blocks(), 64);
        assert_eq!(lc.threads_per_block(), 256);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_block_panics() {
        LaunchConfig::linear(10, 0);
    }
}
