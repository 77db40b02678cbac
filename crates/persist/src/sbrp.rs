//! SBRP-style scoped buffered release persistency.
//!
//! Hardware persist buffers absorb persists off the critical path: each SM
//! has a small L1-level buffer, draining into a larger L2-level buffer
//! shared by the device, which in turn drains into the ADR-backed memory
//! queue. A *release persist* at a given scope only drains as far as that
//! scope requires — block scope reaches the L2 buffer, device scope the
//! memory queue, system scope the persistence domain itself (deep flush,
//! ignoring ADR). Buffered-but-undrained persists are volatile: a crash
//! inside the buffered window loses them, and recovery (token check +
//! re-execution) is expected to repair the loss.

use crate::backend::{
    BackendKind, BlockPersistSession, DurabilityContract, PersistScope, PersistencyBackend,
    SessionStats,
};
use nvm::Addr;
use serde::{Deserialize, Serialize};
use simt::BlockCtx;
use std::collections::VecDeque;

/// SBRP hardware knobs (buffer geometry and drain policy).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SbrpConfig {
    /// Entries in the per-SM (L1) persist buffer.
    pub l1_entries: usize,
    /// Entries in the L2-level persist buffer.
    pub l2_entries: usize,
    /// Whether the L2-level buffer exists (false drains L1 straight to the
    /// memory queue).
    pub use_l2: bool,
    /// Eagerly forward each persist to the L2 buffer instead of waiting
    /// for capacity or a release (trades buffering for a shorter window).
    pub eager_drain: bool,
    /// Treat every release as system-scope (deep flush to the persistence
    /// domain, ignoring ADR).
    pub deep_flush: bool,
    /// Whether the memory queue is ADR-backed (acceptance = durability);
    /// without ADR, draining means a full line write-back.
    pub adr: bool,
}

impl Default for SbrpConfig {
    fn default() -> Self {
        Self {
            l1_entries: 64,
            l2_entries: 1024,
            use_l2: true,
            eager_drain: false,
            deep_flush: false,
            adr: true,
        }
    }
}

/// The SBRP backend: scoped buffered release persistency.
#[derive(Debug, Clone, Copy, Default)]
pub struct SbrpBackend {
    cfg: SbrpConfig,
}

impl SbrpBackend {
    /// A backend with the given hardware knobs.
    pub fn new(cfg: SbrpConfig) -> Self {
        Self { cfg }
    }

    /// The hardware knobs.
    pub fn config(&self) -> &SbrpConfig {
        &self.cfg
    }
}

impl PersistencyBackend for SbrpBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::Sbrp
    }

    fn contract(&self) -> DurabilityContract {
        DurabilityContract::of(BackendKind::Sbrp)
    }

    fn boxed(&self) -> Box<dyn PersistencyBackend> {
        Box::new(*self)
    }

    fn begin_block(&self, _block: u64) -> Box<dyn BlockPersistSession> {
        Box::new(SbrpSession {
            cfg: self.cfg,
            l1: VecDeque::new(),
            l2: VecDeque::new(),
            seen: std::collections::BTreeSet::new(),
            stats: SessionStats::default(),
        })
    }
}

/// Per-block SBRP session: the block's view of the persist-buffer
/// hierarchy. (Blocks run one at a time in this simulator, so the L2-level
/// buffer is modelled per session; its capacity still bounds the number of
/// lines that can sit in the buffered window at once.)
#[derive(Debug)]
pub struct SbrpSession {
    cfg: SbrpConfig,
    /// FIFO of line bases buffered at the SM level (insertion order;
    /// coalesced, so each line appears at most once).
    l1: VecDeque<u64>,
    /// FIFO of line bases buffered at the L2 level.
    l2: VecDeque<u64>,
    /// Every line base the region has touched (first-touch tracking).
    seen: std::collections::BTreeSet<u64>,
    stats: SessionStats,
}

impl SbrpSession {
    /// Makes `line` durable: ADR queue acceptance, or a full write-back
    /// when ADR is off or a deep (system-scope) persist is requested.
    fn persist_line(&mut self, ctx: &mut BlockCtx<'_>, line: u64, deep: bool) {
        let adr = self.cfg.adr && !deep;
        let persisted = ctx.persist_line_reliably(Addr::new(line), adr);
        // ADR counts actual queue acceptances; a deep flush counts the
        // write-back it issues whether or not the line was still dirty.
        if persisted || !adr {
            self.stats.lines_persisted += 1;
        }
    }

    /// Moves one line from L1 toward durability: into the L2 buffer when
    /// present, else straight to the memory queue. Each hop charges one
    /// buffer-drain stall.
    fn drain_one_from_l1(&mut self, ctx: &mut BlockCtx<'_>) {
        let Some(line) = self.l1.pop_front() else {
            return;
        };
        ctx.buffer_drain_stall(1);
        if self.cfg.use_l2 {
            if !self.l2.contains(&line) {
                if self.l2.len() >= self.cfg.l2_entries {
                    // L2 full: evict its oldest entry to the memory queue.
                    if let Some(old) = self.l2.pop_front() {
                        self.persist_line(ctx, old, false);
                    }
                }
                self.l2.push_back(line);
            }
        } else {
            self.persist_line(ctx, line, false);
        }
    }

    /// Drains the whole L1 buffer (block-scope release).
    fn drain_l1(&mut self, ctx: &mut BlockCtx<'_>) {
        while !self.l1.is_empty() {
            self.drain_one_from_l1(ctx);
        }
    }

    /// Drains the L2 buffer into durability (device/system-scope release).
    fn drain_l2(&mut self, ctx: &mut BlockCtx<'_>, deep: bool) {
        let lines: Vec<u64> = std::mem::take(&mut self.l2).into();
        ctx.buffer_drain_stall(lines.len() as u64);
        for line in lines {
            self.persist_line(ctx, line, deep);
        }
    }
}

impl BlockPersistSession for SbrpSession {
    fn on_store(&mut self, ctx: &mut BlockCtx<'_>, addr: Addr) -> bool {
        self.stats.stores += 1;
        let line = addr.raw() & !(ctx.line_size() - 1);
        let first = self.seen.insert(line);
        if first {
            self.stats.lines_touched += 1;
        }
        if self.l1.contains(&line) || self.l2.contains(&line) {
            // Coalesce into the existing buffer entry: persists to a
            // buffered line are free until it drains.
            return first;
        }
        self.l1.push_back(line);
        if self.cfg.eager_drain {
            self.drain_one_from_l1(ctx);
        } else if self.l1.len() > self.cfg.l1_entries {
            // Capacity overflow: the oldest buffered persist leaves the SM.
            self.drain_one_from_l1(ctx);
        }
        first
    }

    fn fence(&mut self, ctx: &mut BlockCtx<'_>, scope: PersistScope) {
        self.stats.fences += 1;
        let scope = if self.cfg.deep_flush {
            PersistScope::System
        } else {
            scope
        };
        self.drain_l1(ctx);
        match scope {
            PersistScope::Block => {}
            PersistScope::Device => self.drain_l2(ctx, false),
            PersistScope::System => self.drain_l2(ctx, true),
        }
        ctx.threadfence();
    }

    fn commit(&mut self, ctx: &mut BlockCtx<'_>) {
        ctx.sync_threads();
        // A region commit is a release persist strong enough to survive
        // power loss: device scope (ADR) or system scope (deep flush).
        self.fence(ctx, PersistScope::Device);
    }

    fn persist_token(&mut self, ctx: &mut BlockCtx<'_>, addr: Option<Addr>) {
        if let Some(addr) = addr {
            let line = addr.raw() & !(ctx.line_size() - 1);
            self.persist_line(ctx, line, self.cfg.deep_flush);
        }
        self.stats.fences += 1;
        ctx.threadfence();
    }

    fn session_stats(&self) -> SessionStats {
        self.stats
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

    fn store_lines(
        ctx: &mut BlockCtx<'_>,
        s: &mut Box<dyn BlockPersistSession>,
        base: Addr,
        n: u64,
    ) {
        for i in 0..n {
            ctx.store_u64(base.offset(128 * i), i + 1);
            s.on_store(ctx, base.offset(128 * i));
        }
    }

    #[test]
    fn buffered_persists_stay_volatile_until_release() {
        let (mut mem, mut dev, cfg, lc) = fixture();
        let a = mem.alloc(4096, 8);
        let mut ctx = BlockCtx::standalone(lc, 0, &mut mem, &mut dev, &cfg);
        let mut s = SbrpBackend::default().begin_block(0);
        store_lines(&mut ctx, &mut s, a, 8);
        assert_eq!(
            s.session_stats().lines_persisted,
            0,
            "everything buffered, nothing durable"
        );
        s.fence(&mut ctx, PersistScope::Block);
        assert_eq!(
            s.session_stats().lines_persisted,
            0,
            "block scope only reaches the L2 buffer"
        );
        s.fence(&mut ctx, PersistScope::Device);
        let _ = ctx.into_cost();
        assert_eq!(s.session_stats().lines_persisted, 8);
        assert_eq!(mem.dirty_lines(), 0);
    }

    #[test]
    fn l1_capacity_overflow_drains_the_oldest() {
        let (mut mem, mut dev, cfg, lc) = fixture();
        let a = mem.alloc(8192, 8);
        let mut ctx = BlockCtx::standalone(lc, 0, &mut mem, &mut dev, &cfg);
        let mut s = SbrpBackend::new(SbrpConfig {
            l1_entries: 4,
            use_l2: false,
            ..SbrpConfig::default()
        })
        .begin_block(0);
        store_lines(&mut ctx, &mut s, a, 6);
        let _ = ctx.into_cost();
        // 6 lines through a 4-entry buffer with no L2: 2 overflowed to the
        // memory queue.
        assert_eq!(s.session_stats().lines_persisted, 2);
    }

    #[test]
    fn eager_drain_forwards_immediately() {
        let (mut mem, mut dev, cfg, lc) = fixture();
        let a = mem.alloc(4096, 8);
        let mut ctx = BlockCtx::standalone(lc, 0, &mut mem, &mut dev, &cfg);
        let mut s = SbrpBackend::new(SbrpConfig {
            eager_drain: true,
            use_l2: false,
            ..SbrpConfig::default()
        })
        .begin_block(0);
        store_lines(&mut ctx, &mut s, a, 5);
        let _ = ctx.into_cost();
        assert_eq!(s.session_stats().lines_persisted, 5);
        assert_eq!(mem.dirty_lines(), 0);
    }

    #[test]
    fn deep_flush_bypasses_adr() {
        let (mut mem, mut dev, cfg, lc) = fixture();
        let a = mem.alloc(4096, 8);
        let mut ctx = BlockCtx::standalone(lc, 0, &mut mem, &mut dev, &cfg);
        let mut s = SbrpBackend::new(SbrpConfig {
            deep_flush: true,
            ..SbrpConfig::default()
        })
        .begin_block(0);
        store_lines(&mut ctx, &mut s, a, 3);
        s.commit(&mut ctx);
        let _ = ctx.into_cost();
        assert_eq!(s.session_stats().lines_persisted, 3);
        assert_eq!(
            mem.stats().adr_accepts,
            0,
            "deep flush must not use the ADR queue"
        );
        assert_eq!(mem.dirty_lines(), 0);
    }

    #[test]
    fn commit_drains_both_levels() {
        let (mut mem, mut dev, cfg, lc) = fixture();
        let a = mem.alloc(8192, 8);
        let mut ctx = BlockCtx::standalone(lc, 0, &mut mem, &mut dev, &cfg);
        let mut s = SbrpBackend::default().begin_block(0);
        store_lines(&mut ctx, &mut s, a, 10);
        s.commit(&mut ctx);
        let _ = ctx.into_cost();
        assert_eq!(s.session_stats().lines_persisted, 10);
        assert_eq!(mem.dirty_lines(), 0);
        assert!(mem.stats().adr_accepts >= 10);
    }

    #[test]
    fn config_roundtrips_through_serde() {
        let cfg = SbrpConfig {
            l1_entries: 8,
            eager_drain: true,
            ..SbrpConfig::default()
        };
        let j = serde_json::to_string(&cfg).unwrap();
        let back: SbrpConfig = serde_json::from_str(&j).unwrap();
        assert_eq!(cfg, back);
    }
}
