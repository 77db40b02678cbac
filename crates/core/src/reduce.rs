//! Block-level checksum reduction (§IV-B, Listings 3–4, and the Table IV
//! ablation).
//!
//! Every thread of an LP region folds its own stores into private checksum
//! accumulators (registers). At the end of the region the block must
//! combine `threads × arity` partials into one checksum vector. Two ways:
//!
//! * [`ReduceStrategy::ParallelShuffle`] — the paper's design: each warp
//!   reduces register-to-register with `__shfl_down_sync` in log₂ 32 = 5
//!   steps, warp leaders park partials in shared memory, a barrier, then
//!   warp 0 reduces the partials the same way.
//! * [`ReduceStrategy::SequentialMemory`] — the pre-Kepler fallback the
//!   paper compares against: every thread spills its accumulators to a
//!   *global-memory* scratch buffer, and one thread folds them serially.
//!   The spill traffic is what wrecks bandwidth-bound kernels (SPMV:
//!   22 % → 438 % overhead in Table IV).

use crate::checksum::ChecksumSet;
use nvm::Addr;
use serde::{Deserialize, Serialize};
use simt::{warp, BlockCtx};

/// How a block combines its per-thread checksum accumulators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ReduceStrategy {
    /// Warp-shuffle butterfly tree (Listings 3–4). Requires every checksum
    /// in the set to be associative.
    ParallelShuffle,
    /// Spill all accumulators to global scratch memory; one thread reduces
    /// sequentially. Works for any checksum (including Adler-32) but adds
    /// memory traffic and a serial tail.
    SequentialMemory,
}

/// Reduces per-thread accumulators to the block's checksum vector.
///
/// `per_thread` is the flattened `threads × arity` accumulator matrix
/// (thread-major). For [`ReduceStrategy::SequentialMemory`], `scratch` must
/// point at a per-block scratch area of at least `threads × arity` u64
/// words; it is ignored for the shuffle path.
///
/// The returned vector has `set.arity()` entries. Costs (shuffles, shared
/// memory, barriers, global spills, the serial fold) are charged to `ctx`.
///
/// # Panics
///
/// Panics if `per_thread` is not `threads × arity` long, if the shuffle
/// path is used with a non-associative checksum set, or if the sequential
/// path is missing its scratch buffer.
pub fn block_reduce(
    ctx: &mut BlockCtx<'_>,
    set: &ChecksumSet,
    per_thread: &[u64],
    strategy: ReduceStrategy,
    scratch: Option<Addr>,
) -> Vec<u64> {
    let threads = ctx.threads_per_block() as usize;
    let arity = set.arity();
    assert_eq!(
        per_thread.len(),
        threads * arity,
        "accumulator matrix shape mismatch"
    );
    match strategy {
        ReduceStrategy::ParallelShuffle => {
            let mut out = vec![0; arity];
            shuffle_reduce(ctx, set, per_thread, &mut out);
            out
        }
        ReduceStrategy::SequentialMemory => {
            let scratch = scratch.expect("SequentialMemory reduction needs a scratch buffer");
            sequential_reduce(ctx, set, per_thread, scratch)
        }
    }
}

/// The shuffle path of [`block_reduce`], writing checksum `c` to `out[c]`.
/// Lanes are gathered on the stack, so it allocates nothing.
fn shuffle_reduce(ctx: &mut BlockCtx<'_>, set: &ChecksumSet, per_thread: &[u64], out: &mut [u64]) {
    assert!(
        set.is_associative(),
        "parallel (shuffle) reduction requires associative checksums; \
         Adler-32 needs ReduceStrategy::SequentialMemory"
    );
    let threads = ctx.threads_per_block() as usize;
    let arity = set.arity();
    let warp_size = ctx.device_config().warp_size as usize;
    let warps = threads.div_ceil(warp_size);
    let steps = warp::reduction_steps() as u64;
    let mut lanes = [0u64; warp::WARP_SIZE];

    // Stage 1: every warp reduces its lanes register-to-register.
    // Shared staging area: one partial per (warp, checksum).
    let stage = ctx.shared_alloc(warps * arity);
    for w in 0..warps {
        let lo = w * warp_size;
        let hi = ((w + 1) * warp_size).min(threads);
        let width = hi - lo;
        for (c, kind) in set.kinds().iter().enumerate() {
            for (lane, t) in lanes.iter_mut().zip(lo..hi) {
                *lane = per_thread[t * arity + c];
            }
            let partial = warp::warp_reduce(&lanes[..width], |a, b| kind.combine(a, b));
            ctx.charge_shuffle(steps, width as u64);
            // Lane 0 of the warp parks the partial in shared memory.
            ctx.shm_write(stage, w * arity + c, partial);
        }
    }
    ctx.sync_threads();

    // Stage 2: warp 0 reduces the per-warp partials.
    let width = warps.min(warp_size);
    for (c, kind) in set.kinds().iter().enumerate() {
        for (w, lane) in lanes[..width].iter_mut().enumerate() {
            *lane = ctx.shm_read(stage, w * arity + c);
        }
        let mut total = warp::warp_reduce(&lanes[..width], |a, b| kind.combine(a, b));
        ctx.charge_shuffle(steps, width as u64);
        // Blocks wider than warp_size² don't exist on real hardware (max
        // 1024 threads = 32 warps), but stay correct anyway:
        for w in warp_size..warps {
            total = kind.combine(total, ctx.shm_read(stage, w * arity + c));
            ctx.charge_alu(1);
        }
        out[c] = total;
    }
}

fn sequential_reduce(
    ctx: &mut BlockCtx<'_>,
    set: &ChecksumSet,
    per_thread: &[u64],
    scratch: Addr,
) -> Vec<u64> {
    let threads = ctx.threads_per_block() as usize;
    let arity = set.arity();

    // Stage 1: every thread spills its accumulators to global scratch —
    // this is real global-memory traffic, the bandwidth pressure Table IV
    // measures.
    for t in 0..threads {
        for c in 0..arity {
            ctx.store_u64(
                scratch.index((t * arity + c) as u64, 8),
                per_thread[t * arity + c],
            );
        }
    }
    ctx.sync_threads();

    // Stage 2: thread 0 walks the spilled partials and folds them in
    // thread order. The loads and the dependent fold chain are serial —
    // nothing else in the block can proceed.
    let mut out = set.init();
    for t in 0..threads {
        for (c, kind) in set.kinds().iter().enumerate() {
            let v = ctx.load_u64(scratch.index((t * arity + c) as u64, 8));
            // Fold partial accumulators: for associative kinds this is
            // `combine`; for Adler-32 the per-thread accumulator *is* the
            // stream state, so thread accumulators are chained by treating
            // each as a value update (documented sequential semantics).
            out[c] = if kind.is_associative() {
                kind.combine(out[c], v)
            } else {
                kind.update(out[c], v)
            };
        }
    }
    // Serial fold: thread 0's loads form a dependent chain — unlike the
    // parallel-bucket loads above, the latency of each partial's read-back
    // cannot be hidden (≈ a dozen cycles each even with L2 hits).
    ctx.charge_serial_alu((threads * arity * 6) as u64);
    out
}

/// Words of per-block scratch the sequential strategy needs.
pub fn scratch_words(threads_per_block: u64, arity: usize) -> u64 {
    threads_per_block * arity as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checksum::ChecksumKind;
    use crate::table::testutil::Rig;

    fn accumulate(set: &ChecksumSet, threads: usize, f: impl Fn(usize) -> u64) -> Vec<u64> {
        // Build the per-thread accumulator matrix: thread t folded f(t).
        let arity = set.arity();
        let mut m = vec![0u64; threads * arity];
        for t in 0..threads {
            let mut acc = set.init();
            set.update(&mut acc, f(t));
            m[t * arity..(t + 1) * arity].copy_from_slice(&acc);
        }
        m
    }

    #[test]
    fn shuffle_matches_direct_digest() {
        let mut rig = Rig::new();
        let set = ChecksumSet::modular_parity();
        let per_thread = accumulate(&set, 64, |t| (t as u64) * 77 + 5);
        let mut ctx = simt::BlockCtx::standalone(rig.lc, 0, &mut rig.mem, &mut rig.dev, &rig.cfg);
        let got = block_reduce(
            &mut ctx,
            &set,
            &per_thread,
            ReduceStrategy::ParallelShuffle,
            None,
        );
        let _ = ctx.into_cost();
        let want = set.digest((0..64u64).map(|t| t * 77 + 5));
        assert_eq!(got, want);
    }

    #[test]
    fn sequential_matches_direct_digest() {
        let mut rig = Rig::new();
        let set = ChecksumSet::modular_parity();
        let per_thread = accumulate(&set, 64, |t| (t as u64) ^ 0xABCD);
        let scratch = rig.mem.alloc(64 * 2 * 8, 8);
        let mut ctx = simt::BlockCtx::standalone(rig.lc, 0, &mut rig.mem, &mut rig.dev, &rig.cfg);
        let got = block_reduce(
            &mut ctx,
            &set,
            &per_thread,
            ReduceStrategy::SequentialMemory,
            Some(scratch),
        );
        let _ = ctx.into_cost();
        let want = set.digest((0..64u64).map(|t| t ^ 0xABCD));
        assert_eq!(got, want);
    }

    #[test]
    fn strategies_agree() {
        let mut rig = Rig::new();
        let set = ChecksumSet::modular_parity();
        let per_thread = accumulate(&set, 128, |t| (t as u64).wrapping_mul(0x9E37_79B9));
        let scratch = rig.mem.alloc(128 * 2 * 8, 8);
        let lc = simt::LaunchConfig {
            grid: simt::Dim3::x(4),
            block: simt::Dim3::x(128),
        };
        let mut ctx = simt::BlockCtx::standalone(lc, 0, &mut rig.mem, &mut rig.dev, &rig.cfg);
        let a = block_reduce(
            &mut ctx,
            &set,
            &per_thread,
            ReduceStrategy::ParallelShuffle,
            None,
        );
        let b = block_reduce(
            &mut ctx,
            &set,
            &per_thread,
            ReduceStrategy::SequentialMemory,
            Some(scratch),
        );
        let _ = ctx.into_cost();
        assert_eq!(a, b);
    }

    #[test]
    fn sequential_moves_global_bytes_shuffle_does_not() {
        let mut rig = Rig::new();
        let set = ChecksumSet::modular_parity();
        let per_thread = accumulate(&set, 64, |t| t as u64);
        let scratch = rig.mem.alloc(64 * 2 * 8, 8);

        let mut ctx = simt::BlockCtx::standalone(rig.lc, 0, &mut rig.mem, &mut rig.dev, &rig.cfg);
        block_reduce(
            &mut ctx,
            &set,
            &per_thread,
            ReduceStrategy::ParallelShuffle,
            None,
        );
        let shuffle_cost = ctx.into_cost();

        let mut ctx = simt::BlockCtx::standalone(rig.lc, 0, &mut rig.mem, &mut rig.dev, &rig.cfg);
        block_reduce(
            &mut ctx,
            &set,
            &per_thread,
            ReduceStrategy::SequentialMemory,
            Some(scratch),
        );
        let seq_cost = ctx.into_cost();

        assert_eq!(shuffle_cost.global_bytes, 0, "shuffle stays on-chip");
        assert!(
            seq_cost.global_bytes > 0,
            "sequential spills to global memory"
        );
        assert!(seq_cost.serial_cycles > 0.0, "sequential has a serial tail");
    }

    #[test]
    fn partial_last_warp_handled() {
        let mut rig = Rig::new();
        let set = ChecksumSet::modular_parity();
        // 80 threads = 2.5 warps.
        let lc = simt::LaunchConfig {
            grid: simt::Dim3::x(4),
            block: simt::Dim3::x(80),
        };
        let per_thread = accumulate(&set, 80, |t| t as u64 + 1);
        let mut ctx = simt::BlockCtx::standalone(lc, 0, &mut rig.mem, &mut rig.dev, &rig.cfg);
        let got = block_reduce(
            &mut ctx,
            &set,
            &per_thread,
            ReduceStrategy::ParallelShuffle,
            None,
        );
        let _ = ctx.into_cost();
        assert_eq!(got, set.digest((0..80u64).map(|t| t + 1)));
    }

    #[test]
    #[should_panic(expected = "associative")]
    fn adler_rejects_shuffle() {
        let mut rig = Rig::new();
        let set = ChecksumSet::new(vec![ChecksumKind::Adler32]);
        let per_thread = vec![1u64; 64];
        let mut ctx = simt::BlockCtx::standalone(rig.lc, 0, &mut rig.mem, &mut rig.dev, &rig.cfg);
        block_reduce(
            &mut ctx,
            &set,
            &per_thread,
            ReduceStrategy::ParallelShuffle,
            None,
        );
    }

    #[test]
    #[should_panic(expected = "scratch")]
    fn sequential_without_scratch_panics() {
        let mut rig = Rig::new();
        let set = ChecksumSet::modular_parity();
        let per_thread = vec![0u64; 64 * 2];
        let mut ctx = simt::BlockCtx::standalone(rig.lc, 0, &mut rig.mem, &mut rig.dev, &rig.cfg);
        block_reduce(
            &mut ctx,
            &set,
            &per_thread,
            ReduceStrategy::SequentialMemory,
            None,
        );
    }

    #[test]
    fn scratch_words_formula() {
        assert_eq!(scratch_words(256, 2), 512);
    }
}
