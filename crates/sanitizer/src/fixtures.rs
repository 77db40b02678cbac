//! Seeded-bug fixture kernels.
//!
//! Each fixture plants exactly one bug class the sanitizer must witness —
//! they are the dynamic half of the static/dynamic differential contract
//! (`tests/differential.rs`): every fixture here either has a static twin
//! under `crates/directive/tests/fixtures/seeded/` that `lp_directive::lint`
//! flags at compile time, or is documented dynamic-only. They live in the
//! library (not the test tree) so the integration suite, the differential
//! test, and external harnesses all exercise the same bugs.

use gpu_lp::{LpBlockSession, Region};
use nvm::{Addr, PersistMemory};
use simt::{BlockCtx, Dim3, Kernel, LaunchConfig};

/// Two threads exchange values through shared memory but the author forgot
/// the `sync_threads()` between write and read.
///
/// Dynamic: one [`crate::Finding::SharedRace`] per shared word per block.
/// Static twin: none — `seeded/missing_sync.cu` lints clean (the static
/// rules have no shared-memory happens-before model), which the
/// differential test documents as the dynamic-only gap.
#[derive(Debug)]
pub struct MissingSyncFixture {
    /// Number of blocks to launch (two threads each).
    pub blocks: u32,
}

impl Kernel for MissingSyncFixture {
    fn name(&self) -> &str {
        "missing-sync-fixture"
    }

    fn config(&self) -> LaunchConfig {
        LaunchConfig {
            grid: Dim3::x(self.blocks),
            block: Dim3::x(2),
        }
    }

    fn run_block(&self, ctx: &mut BlockCtx<'_>) {
        let sh = ctx.shared_alloc(2);
        for t in 0..2 {
            ctx.set_active_thread(t);
            ctx.shm_write(sh, t as usize, t + 1);
        }
        // BUG: no ctx.sync_threads() here.
        for t in 0..2 {
            ctx.set_active_thread(t);
            let _ = ctx.shm_read(sh, (1 - t) as usize);
        }
    }
}

/// An LP region in which one store is issued directly through the context
/// instead of through the session, so it never reaches the checksum
/// accumulator — exactly the omission LP recovery cannot survive. Launch it
/// as an [`gpu_lp::LpKernel`].
///
/// Dynamic: one [`crate::Finding::UncoveredStore`] per block.
/// Static twin: `seeded/uncovered_store.cu`, flagged LP011.
#[derive(Debug)]
pub struct UncoveredStoreFixture {
    /// Output buffer, `blocks * tpb` u32 words.
    pub out: Addr,
    /// Number of blocks to launch.
    pub blocks: u32,
    /// Threads per block.
    pub tpb: u32,
}

impl Region for UncoveredStoreFixture {
    fn name(&self) -> &str {
        "uncovered-store-fixture"
    }

    fn config(&self) -> LaunchConfig {
        LaunchConfig {
            grid: Dim3::x(self.blocks),
            block: Dim3::x(self.tpb),
        }
    }

    fn run_region(&self, ctx: &mut BlockCtx<'_>, lp: &mut LpBlockSession<'_>) {
        let tpb = ctx.threads_per_block();
        for t in 0..tpb {
            ctx.set_active_thread(t);
            let i = ctx.global_thread_id(t);
            if t == 1 {
                // BUG: raw store inside the LP region; the checksum never
                // sees this value, so recovery would silently lose it.
                ctx.store_u32(self.out.index(i, 4), 0xBAD);
            } else {
                lp.store_u32(ctx, t, self.out.index(i, 4), i as u32);
            }
        }
    }

    /// Every word but thread 1's: the session folded no other.
    fn region_images(&self, mem: &mut PersistMemory, block: u64, images: &mut Vec<u64>) {
        let tpb = u64::from(self.tpb);
        for t in (0..tpb).filter(|&t| t != 1) {
            images.push(u64::from(mem.read_u32(self.out.index(block * tpb + t, 4))));
        }
    }
}

/// Every block plain-stores a "done" flag to the same global word — the
/// unsynchronised cross-block write the paper's lock-free checksum tables
/// are designed to avoid.
///
/// Dynamic: one [`crate::Finding::CrossBlockWrite`] naming all the blocks.
/// Static twin: `seeded/cross_block_conflict.cu`, flagged LP013.
#[derive(Debug)]
pub struct CrossBlockWriteFixture {
    /// Per-block output buffer, `blocks` u32 words (benign writes).
    pub out: Addr,
    /// The single contested flag word every block writes.
    pub flag: Addr,
    /// Number of blocks to launch (one thread each).
    pub blocks: u32,
}

impl Kernel for CrossBlockWriteFixture {
    fn name(&self) -> &str {
        "cross-block-write-fixture"
    }

    fn config(&self) -> LaunchConfig {
        LaunchConfig {
            grid: Dim3::x(self.blocks),
            block: Dim3::x(1),
        }
    }

    fn run_block(&self, ctx: &mut BlockCtx<'_>) {
        ctx.set_active_thread(0);
        let b = ctx.block_idx().0 as u64;
        // Fine: partitioned by blockIdx.
        ctx.store_u32(self.out.index(b, 4), b as u32);
        // BUG: every block writes the same word, no atomics, no ordering.
        ctx.store_u32(self.flag, 1);
    }
}

/// Block 0 plain-stores a counter word that every other block updates
/// atomically — the plain access tears the atomics' consistency.
///
/// Dynamic: one [`crate::Finding::AtomicPlainMix`].
/// Static twin: none — the static rules do not model atomics (calls are
/// opaque statements), documented dynamic-only in the differential test.
#[derive(Debug)]
pub struct AtomicPlainMixFixture {
    /// The contested counter word.
    pub counter: Addr,
    /// Number of blocks to launch (one thread each).
    pub blocks: u32,
}

impl Kernel for AtomicPlainMixFixture {
    fn name(&self) -> &str {
        "atomic-plain-mix-fixture"
    }

    fn config(&self) -> LaunchConfig {
        LaunchConfig {
            grid: Dim3::x(self.blocks),
            block: Dim3::x(1),
        }
    }

    fn run_block(&self, ctx: &mut BlockCtx<'_>) {
        ctx.set_active_thread(0);
        let b = ctx.block_idx().0;
        if b == 0 {
            // BUG: resets the counter with a plain store while other
            // blocks are incrementing it atomically.
            ctx.store_u32(self.counter, 0);
        } else {
            ctx.atomic_add_u32(self.counter, 1);
        }
    }
}
