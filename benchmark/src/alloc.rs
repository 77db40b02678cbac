//! A counting `#[global_allocator]` for the benchmark binary.
//!
//! The simulator's known hot spots allocate (a boxed line per cache miss, a
//! `Vec` per block), so `host.allocs_per_item` is a per-layer number. The
//! counters are switched on only around traced repetitions; while off, the
//! allocator adds one relaxed load to the system allocator's path.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};

/// Forwards to [`System`], counting calls and bytes while enabled.
pub struct Counting;

// The counters publish no other data: they are statistics read after the
// measured region has joined all its threads, so `Relaxed` suffices.
static ENABLED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

fn note(size: usize) {
    if ENABLED.load(Relaxed) {
        ALLOCS.fetch_add(1, Relaxed);
        BYTES.fetch_add(size as u64, Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counting touches only atomics and
// never allocates, so it cannot re-enter the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's obligations are passed through as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: `ptr` and `layout` come from a previous call on this
        // allocator, which was a call on `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Allocation calls and requested bytes seen while counting was on.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocCounts {
    /// `alloc` + `alloc_zeroed` + `realloc` calls.
    pub allocs: u64,
    /// Bytes those calls asked for.
    pub bytes: u64,
}

/// Starts (or stops) counting. Totals accumulate across enabled periods.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Relaxed);
}

/// Totals so far.
pub fn counts() -> AllocCounts {
    AllocCounts {
        allocs: ALLOCS.load(Relaxed),
        bytes: BYTES.load(Relaxed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    // The counters are process-wide and `cargo test` runs tests on parallel
    // threads, so the tests that read them take turns.
    static TURN: Mutex<()> = Mutex::new(());

    #[test]
    fn counts_nothing_while_disabled() {
        let _turn = TURN.lock().expect("no test panics holding the turn");
        set_enabled(false);
        let before = counts();
        let v: Vec<u64> = (0..4096).collect();
        let boxed = Box::new([0u8; 512]);
        std::hint::black_box((&v, &boxed));
        assert_eq!(counts(), before);
    }

    #[test]
    fn counts_calls_and_bytes_while_enabled() {
        let _turn = TURN.lock().expect("no test panics holding the turn");
        let before = counts();
        set_enabled(true);
        let v: Vec<u8> = Vec::with_capacity(1000);
        std::hint::black_box(&v);
        set_enabled(false);
        let after = counts();
        // Other test threads may allocate while counting is on, so the
        // deltas are lower bounds.
        assert!(after.allocs > before.allocs);
        assert!(after.bytes - before.bytes >= 1000);
    }
}
