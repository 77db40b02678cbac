//! Strict/epoch persistency: `__threadfence`-class fences close epochs by
//! pushing every line the epoch dirtied into the ADR-backed memory queue.
//!
//! This models the epoch persistency design of *Exploring Memory
//! Persistency Models for GPUs*: stores within an epoch are unordered with
//! respect to persistence; a fence guarantees every prior store reaches
//! the memory controller's write queue before any later store does. With
//! ADR (asynchronous DRAM refresh) semantics, *reaching the queue is
//! durability* — residual energy drains the queue on power loss — so
//! acceptance into the queue is modelled as an immediate durable
//! write-back ([`simt::BlockCtx::adr_accept`]) at a fence cost well below
//! a full persist barrier. A region is one epoch: its commit closes it.

use crate::backend::{BackendKind, BlockPersistSession, DurabilityContract, PersistencyBackend};
use nvm::Addr;
use simt::BlockCtx;
use std::collections::BTreeSet;

/// The strict/epoch persistency backend.
#[derive(Debug, Clone, Copy, Default)]
pub struct EpochBackend;

impl PersistencyBackend for EpochBackend {
    fn contract(&self) -> DurabilityContract {
        DurabilityContract::of(BackendKind::Epoch)
    }

    fn boxed(&self) -> Box<dyn PersistencyBackend> {
        Box::new(*self)
    }

    fn begin_block(&self, _block: u64) -> Box<dyn BlockPersistSession> {
        Box::new(EpochSession {
            epoch: BTreeSet::new(),
        })
    }
}

/// Per-block epoch session: the open epoch's dirtied lines. The region is
/// one epoch; its commit closes it.
#[derive(Debug)]
pub struct EpochSession {
    /// Line bases the region has dirtied, in address order.
    epoch: BTreeSet<u64>,
}

impl EpochSession {
    fn close_epoch(&mut self, ctx: &mut BlockCtx<'_>) {
        for line in std::mem::take(&mut self.epoch) {
            ctx.persist_line_reliably(Addr::new(line), true);
        }
        ctx.threadfence();
    }
}

impl BlockPersistSession for EpochSession {
    fn on_store(&mut self, ctx: &mut BlockCtx<'_>, addr: Addr) -> bool {
        self.epoch.insert(addr.raw() & !(ctx.line_size() - 1))
    }

    fn commit(&mut self, ctx: &mut BlockCtx<'_>) {
        ctx.sync_threads();
        self.close_epoch(ctx);
    }

    fn persist_token(&mut self, ctx: &mut BlockCtx<'_>, addr: Option<Addr>) {
        if let Some(addr) = addr {
            ctx.persist_line_reliably(addr, true);
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

    #[test]
    fn stores_buffer_until_the_commit() {
        let (mut mem, mut dev, cfg, lc) = fixture();
        let a = mem.alloc(512, 8);
        let mut ctx = BlockCtx::standalone(lc, 0, &mut mem, &mut dev, &cfg);
        let mut s = EpochBackend.begin_block(0);
        for i in 0..3u64 {
            ctx.store_u64(a.offset(128 * i), i + 1);
            assert!(s.on_store(&mut ctx, a.offset(128 * i)), "first touch");
        }
        assert!(!s.on_store(&mut ctx, a), "line 0 again");
        let _ = ctx.into_cost();
        assert_eq!(mem.dirty_lines(), 3, "epoch still open");
        let mut ctx = BlockCtx::standalone(lc, 0, &mut mem, &mut dev, &cfg);
        s.commit(&mut ctx);
        let _ = ctx.into_cost();
        assert_eq!(mem.dirty_lines(), 0, "queue acceptance is durable");
        assert_eq!(mem.stats().adr_accepts, 3);
    }

    #[test]
    fn fence_is_cheaper_than_a_persist_barrier() {
        let (mut mem, mut dev, cfg, lc) = fixture();
        let mut ctx = BlockCtx::standalone(lc, 0, &mut mem, &mut dev, &cfg);
        ctx.threadfence();
        let fence = ctx.cost_so_far().serial_cycles;
        ctx.persist_barrier();
        let both = ctx.cost_so_far().serial_cycles;
        let _ = ctx.into_cost();
        assert!(fence > 0.0);
        assert!(both - fence > fence, "persist barrier must dominate");
    }
}
