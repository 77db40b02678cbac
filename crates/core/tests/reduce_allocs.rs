//! Heap allocations on the shuffle reduction path and on recovery's check,
//! counted by a per-thread counting allocator: the warp butterfly and the
//! block shuffle reduction allocate nothing, one LP block (session open →
//! region body → reduce and publish) allocates only its accumulators and
//! the reduced checksum vector, and validating a launch allocates nothing
//! per block.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use gpu_lp::reduce::block_reduce;
use gpu_lp::{ChecksumSet, LpBlockSession, LpConfig, LpKernel, LpRuntime, ReduceStrategy, Region};
use nvm::{NvmConfig, PersistMemory};
use simt::{warp, BlockCtx, DeviceConfig, DeviceState, Dim3, Gpu, Kernel, LaunchConfig};

/// Forwards to [`System`], counting this thread's allocations.
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn note() {
    // `try_with`: the slot is gone while the thread tears down.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a const-initialised
// thread-local `Cell`, which never allocates, so counting cannot re-enter
// the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: the caller's obligations are passed through as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        // SAFETY: `ptr` and `layout` come from a previous call on this
        // allocator, which was a call on `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Heap allocations `f` makes on this thread.
fn allocations<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (ALLOCS.with(Cell::get) - before, out)
}

const THREADS: u32 = 256;

fn machine() -> (PersistMemory, DeviceState, DeviceConfig, LaunchConfig) {
    let cfg = DeviceConfig::test_gpu();
    let mem = PersistMemory::new(NvmConfig::default());
    let dev = DeviceState::new(&cfg, 4, u64::from(THREADS));
    (mem, dev, cfg, Folds.config())
}

#[test]
fn warp_reduce_allocates_nothing() {
    for width in 1..=warp::WARP_SIZE as u64 {
        let lanes: Vec<u64> = (0..width).collect();
        let (n, total) = allocations(|| warp::warp_reduce(&lanes, u64::wrapping_add));
        assert_eq!(total, width * (width - 1) / 2);
        assert_eq!(n, 0, "width {width}");
    }
}

#[test]
fn shuffle_block_reduce_allocates_only_its_result() {
    let (mut mem, mut dev, cfg, lc) = machine();
    let set = ChecksumSet::modular_parity();
    let per_thread: Vec<u64> = (0..u64::from(THREADS) * set.arity() as u64).collect();
    let reduce = |ctx: &mut BlockCtx<'_>| {
        block_reduce(
            ctx,
            &set,
            &per_thread,
            ReduceStrategy::ParallelShuffle,
            None,
        )
    };
    // The first block grows the device's reused shared-memory arena.
    let mut ctx = BlockCtx::standalone(lc, 0, &mut mem, &mut dev, &cfg);
    let warm = reduce(&mut ctx);
    let _ = ctx.into_cost();
    let mut ctx = BlockCtx::standalone(lc, 1, &mut mem, &mut dev, &cfg);
    let (n, got) = allocations(|| reduce(&mut ctx));
    let _ = ctx.into_cost();
    assert_eq!(got, warm);
    assert_eq!(n, 1, "only the returned checksum vector");
}

/// Thread `t` of block `b` folds `3t + b`, with no store.
struct Folds;

impl Region for Folds {
    fn name(&self) -> &str {
        "folds"
    }

    fn config(&self) -> LaunchConfig {
        LaunchConfig {
            grid: Dim3::x(4),
            block: Dim3::x(THREADS),
        }
    }

    fn run_region(&self, ctx: &mut BlockCtx<'_>, lp: &mut LpBlockSession<'_>) {
        let block = ctx.block_id();
        for t in 0..u64::from(THREADS) {
            lp.update(ctx, t, t * 3 + block);
        }
    }

    fn region_images(&self, _mem: &mut PersistMemory, block: u64, images: &mut Vec<u64>) {
        images.extend((0..u64::from(THREADS)).map(|t| t * 3 + block));
    }
}

#[test]
fn one_lp_block_allocates_at_most_three_times() {
    let (mut mem, mut dev, cfg, lc) = machine();
    let rt = LpRuntime::setup(&mut mem, 4, u64::from(THREADS), LpConfig::default());
    assert_eq!(rt.config().reduce, ReduceStrategy::ParallelShuffle);
    let kernel = LpKernel::new(Folds, Some(&rt));
    let run = |mem: &mut PersistMemory, dev: &mut DeviceState, block: u64| {
        let mut ctx = BlockCtx::standalone(lc, block, mem, dev, &cfg);
        let (n, ()) = allocations(|| kernel.run_block(&mut ctx));
        let _ = ctx.into_cost();
        n
    };
    run(&mut mem, &mut dev, 0);
    let n = run(&mut mem, &mut dev, 1);
    assert!(n <= 3, "{n} allocations");
}

#[test]
fn validating_a_clean_launch_allocates_nothing_per_block() {
    let (mut mem, _, cfg, lc) = machine();
    let rt = LpRuntime::setup(&mut mem, 4, u64::from(THREADS), LpConfig::default());
    let kernel = LpKernel::new(Folds, Some(&rt));
    Gpu::new(cfg).launch(&kernel, &mut mem).expect("launch");
    mem.flush_all();
    let (n, failing) = allocations(|| rt.failing_regions(&kernel, &mut mem));
    assert!(failing.is_empty(), "{failing:?}");
    // At most the result and the one read-back buffer, for all 4 blocks:
    // the images, their digest and the table compare stay in place.
    assert!(lc.num_blocks() == 4 && n <= 2, "{n} allocations");
}
