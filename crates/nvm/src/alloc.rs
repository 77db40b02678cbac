//! Device-address newtype and a simple bump allocator.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A byte address in the simulated device memory.
///
/// `Addr` is a newtype over `u64` so kernel code cannot accidentally mix
/// device addresses with sizes or host indices.
///
/// # Examples
///
/// ```
/// use nvm::Addr;
/// let a = Addr::new(0x100);
/// assert_eq!(a.offset(8).raw(), 0x108);
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Addr(u64);

impl Addr {
    /// The null device address. Dereferencing it panics in the memory model.
    pub const NULL: Addr = Addr(0);

    /// Creates an address from a raw byte offset.
    pub fn new(raw: u64) -> Self {
        Addr(raw)
    }

    /// Returns the raw byte offset.
    pub fn raw(self) -> u64 {
        self.0
    }

    /// Returns this address displaced by `bytes` bytes.
    pub fn offset(self, bytes: u64) -> Addr {
        Addr(self.0 + bytes)
    }

    /// Returns the address of element `i` in an array of `elem_size`-byte
    /// elements starting at `self`.
    pub fn index(self, i: u64, elem_size: u64) -> Addr {
        Addr(self.0 + i * elem_size)
    }

    /// Whether this is the null address.
    pub fn is_null(self) -> bool {
        self.0 == 0
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x{:x}", self.0)
    }
}

impl From<Addr> for u64 {
    fn from(a: Addr) -> u64 {
        a.0
    }
}

/// A monotonically growing bump allocator over the device address space.
///
/// Address 0 is reserved as [`Addr::NULL`]; the first allocation starts at
/// the configured base. There is no `free`: simulated workloads allocate
/// their working set once per run, matching how the benchmark kernels use
/// `cudaMalloc`.
///
/// # Examples
///
/// ```
/// use nvm::BumpAllocator;
/// let mut bump = BumpAllocator::new();
/// let a = bump.alloc(100, 8);
/// let b = bump.alloc(16, 64);
/// assert_eq!(b.raw() % 64, 0);
/// assert!(b.raw() >= a.raw() + 100);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BumpAllocator {
    next: u64,
}

impl BumpAllocator {
    /// Default base of the allocation arena (leaves page 0 unmapped).
    pub const BASE: u64 = 0x1000;

    /// Creates an allocator starting at [`BumpAllocator::BASE`].
    pub fn new() -> Self {
        Self { next: Self::BASE }
    }

    /// Allocates `size` bytes aligned to `align` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `align` is zero or not a power of two.
    pub fn alloc(&mut self, size: u64, align: u64) -> Addr {
        assert!(align.is_power_of_two(), "alignment must be a power of two");
        let aligned = (self.next + align - 1) & !(align - 1);
        self.next = aligned + size;
        Addr::new(aligned)
    }

    /// Total bytes of address space handed out so far (including padding).
    pub fn used(&self) -> u64 {
        self.next - Self::BASE
    }
}

impl Default for BumpAllocator {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_is_null() {
        assert!(Addr::NULL.is_null());
        assert!(!Addr::new(4).is_null());
    }

    #[test]
    fn offset_and_index() {
        let a = Addr::new(100);
        assert_eq!(a.offset(4).raw(), 104);
        assert_eq!(a.index(3, 8).raw(), 124);
    }

    #[test]
    fn alloc_respects_alignment() {
        let mut b = BumpAllocator::new();
        b.alloc(3, 1);
        let a = b.alloc(8, 128);
        assert_eq!(a.raw() % 128, 0);
    }

    #[test]
    fn allocations_do_not_overlap() {
        let mut b = BumpAllocator::new();
        let a1 = b.alloc(100, 8);
        let a2 = b.alloc(100, 8);
        assert!(a2.raw() >= a1.raw() + 100);
    }

    #[test]
    fn never_returns_null() {
        let mut b = BumpAllocator::new();
        for _ in 0..100 {
            assert!(!b.alloc(1, 1).is_null());
        }
    }

    #[test]
    fn used_tracks_consumption() {
        let mut b = BumpAllocator::new();
        assert_eq!(b.used(), 0);
        b.alloc(64, 1);
        assert_eq!(b.used(), 64);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_alignment_panics() {
        BumpAllocator::new().alloc(8, 3);
    }

    #[test]
    fn display_is_hex() {
        assert_eq!(format!("{}", Addr::new(255)), "0xff");
    }
}
