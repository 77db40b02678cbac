//! SBRP-style buffered release persistency.
//!
//! Hardware persist buffers absorb persists off the critical path: each SM
//! has a small L1-level buffer, draining into a larger L2-level buffer
//! shared by the device, which in turn drains into the ADR-backed memory
//! queue. A region's commit is a device-scope *release persist*: it drains
//! both buffers into the memory queue, and acceptance there is durability.
//! Buffered-but-undrained persists are volatile: a crash inside the
//! buffered window loses them, and recovery (token check + re-execution)
//! is expected to repair the loss.

use crate::backend::{BackendKind, BlockPersistSession, DurabilityContract, PersistencyBackend};
use nvm::Addr;
use simt::BlockCtx;
use std::collections::{BTreeSet, VecDeque};

/// Entries in the per-SM (L1) persist buffer.
const L1_ENTRIES: usize = 64;

/// Entries in the L2-level persist buffer.
const L2_ENTRIES: usize = 1024;

/// The SBRP backend: buffered release persistency.
#[derive(Debug, Clone, Copy, Default)]
pub struct SbrpBackend;

impl PersistencyBackend for SbrpBackend {
    fn contract(&self) -> DurabilityContract {
        DurabilityContract::of(BackendKind::Sbrp)
    }

    fn boxed(&self) -> Box<dyn PersistencyBackend> {
        Box::new(*self)
    }

    fn begin_block(&self, _block: u64) -> Box<dyn BlockPersistSession> {
        Box::new(SbrpSession {
            l1: VecDeque::new(),
            l2: VecDeque::new(),
            seen: BTreeSet::new(),
        })
    }
}

/// Per-block SBRP session: the block's view of the persist-buffer
/// hierarchy. (Blocks run one at a time in this simulator, so the L2-level
/// buffer is modelled per session; its capacity still bounds the number of
/// lines that can sit in the buffered window at once.)
#[derive(Debug)]
pub struct SbrpSession {
    /// FIFO of line bases buffered at the SM level (insertion order;
    /// coalesced, so each line appears at most once).
    l1: VecDeque<u64>,
    /// FIFO of line bases buffered at the L2 level.
    l2: VecDeque<u64>,
    /// Every line base the region has touched (first-touch tracking).
    seen: BTreeSet<u64>,
}

impl SbrpSession {
    /// Moves the oldest L1 entry into the L2 buffer, charging one
    /// buffer-drain stall; a full L2 buffer first evicts its oldest entry
    /// to the memory queue.
    fn drain_one_from_l1(&mut self, ctx: &mut BlockCtx<'_>) {
        let Some(line) = self.l1.pop_front() else {
            return;
        };
        ctx.buffer_drain_stall(1);
        if self.l2.len() >= L2_ENTRIES {
            if let Some(old) = self.l2.pop_front() {
                ctx.persist_line_reliably(Addr::new(old), true);
            }
        }
        // A line leaves L1 only for L2, and `on_store` buffers a line only
        // when neither level holds it, so it is never in L2 already.
        self.l2.push_back(line);
    }
}

impl BlockPersistSession for SbrpSession {
    fn on_store(&mut self, ctx: &mut BlockCtx<'_>, addr: Addr) -> bool {
        let line = addr.raw() & !(ctx.line_size() - 1);
        let first = self.seen.insert(line);
        if self.l1.contains(&line) || self.l2.contains(&line) {
            // Coalesce into the existing buffer entry: persists to a
            // buffered line are free until it drains.
            return first;
        }
        self.l1.push_back(line);
        if self.l1.len() > L1_ENTRIES {
            // Capacity overflow: the oldest buffered persist leaves the SM.
            self.drain_one_from_l1(ctx);
        }
        first
    }

    fn commit(&mut self, ctx: &mut BlockCtx<'_>) {
        ctx.sync_threads();
        // Device-scope release: L1 into L2, L2 into the ADR-backed memory
        // queue, then the fence that orders the region before its token.
        while !self.l1.is_empty() {
            self.drain_one_from_l1(ctx);
        }
        ctx.buffer_drain_stall(self.l2.len() as u64);
        for line in std::mem::take(&mut self.l2) {
            ctx.persist_line_reliably(Addr::new(line), true);
        }
        ctx.threadfence();
    }

    fn persist_token(&mut self, ctx: &mut BlockCtx<'_>, addr: Option<Addr>) {
        if let Some(addr) = addr {
            let line = addr.raw() & !(ctx.line_size() - 1);
            ctx.persist_line_reliably(Addr::new(line), true);
        }
        ctx.threadfence();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvm::{NvmConfig, PersistMemory};
    use simt::{DeviceConfig, DeviceState, LaunchConfig};

    fn fixture() -> (PersistMemory, DeviceState, DeviceConfig, LaunchConfig) {
        let cfg = DeviceConfig::test_gpu();
        let mem = PersistMemory::new(NvmConfig::default());
        let dev = DeviceState::new(&cfg, 4, 128);
        let lc = LaunchConfig::linear(4 * 64, 64);
        (mem, dev, cfg, lc)
    }

    /// Stores `i + 1` to line `i` of `base` for each of the first `n` lines,
    /// announcing each store to `s`, in one standalone block.
    fn store_lines(
        mem: &mut PersistMemory,
        dev: &mut DeviceState,
        (cfg, lc): (&DeviceConfig, LaunchConfig),
        s: &mut dyn BlockPersistSession,
        base: Addr,
        n: u64,
    ) {
        let mut ctx = BlockCtx::standalone(lc, 0, mem, dev, cfg);
        for i in 0..n {
            ctx.store_u64(base.offset(128 * i), i + 1);
            s.on_store(&mut ctx, base.offset(128 * i));
        }
        let _ = ctx.into_cost();
    }

    fn commit(
        mem: &mut PersistMemory,
        dev: &mut DeviceState,
        (cfg, lc): (&DeviceConfig, LaunchConfig),
        s: &mut dyn BlockPersistSession,
    ) {
        let mut ctx = BlockCtx::standalone(lc, 0, mem, dev, cfg);
        s.commit(&mut ctx);
        let _ = ctx.into_cost();
    }

    #[test]
    fn buffered_persists_stay_volatile_until_the_commit() {
        let (mut mem, mut dev, cfg, lc) = fixture();
        let a = mem.alloc(8 * 128, 128);
        let mut s = SbrpBackend.begin_block(0);
        // Past the L1 buffer's capacity: the overflow only reaches L2.
        store_lines(&mut mem, &mut dev, (&cfg, lc), s.as_mut(), a, 8);
        assert_eq!(mem.stats().adr_accepts, 0, "nothing drained yet");
        assert_eq!(mem.dirty_lines(), 8);
        commit(&mut mem, &mut dev, (&cfg, lc), s.as_mut());
        assert_eq!(mem.stats().adr_accepts, 8);
        assert_eq!(mem.dirty_lines(), 0);
    }

    #[test]
    fn l1_overflow_reaches_only_the_l2_buffer() {
        let (mut mem, mut dev, cfg, lc) = fixture();
        let n = L1_ENTRIES as u64 + 6;
        let a = mem.alloc(128 * n, 128);
        let mut s = SbrpBackend.begin_block(0);
        store_lines(&mut mem, &mut dev, (&cfg, lc), s.as_mut(), a, n);
        assert_eq!(mem.stats().adr_accepts, 0);
        mem.crash();
        assert_eq!(mem.read_durable_u64(a), 0, "the oldest line was buffered");
    }

    #[test]
    fn l2_overflow_persists_the_oldest_lines() {
        let (mut mem, mut dev, cfg, lc) = fixture();
        let n = (L1_ENTRIES + L2_ENTRIES) as u64 + 3;
        let a = mem.alloc(128 * n, 128);
        let mut s = SbrpBackend.begin_block(0);
        store_lines(&mut mem, &mut dev, (&cfg, lc), s.as_mut(), a, n);
        assert_eq!(mem.stats().adr_accepts, 3, "three L2 evictions");
        mem.crash();
        for i in 0..n {
            let expect = if i < 3 { i + 1 } else { 0 };
            assert_eq!(mem.read_durable_u64(a.offset(128 * i)), expect, "line {i}");
        }
    }
}
