//! Eager Persistency: flush-per-store (or per dirtied line), persist
//! barrier, durable commit token — the baseline the paper's §I/§II
//! slowdown numbers come from.

use crate::backend::{BackendKind, BlockPersistSession, DurabilityContract, PersistencyBackend};
use nvm::{Addr, FlushOutcome, PersistMemory};
use serde::{Deserialize, Serialize};
use simt::BlockCtx;
use std::collections::BTreeSet;

/// Undo-log slots of the logged discipline (ring-reused by block id; only
/// this many blocks are ever in flight).
const LOG_SLOTS: u64 = 512;

/// Log capacity per block, in line-sized entries.
const LOG_ENTRIES_PER_BLOCK: u64 = 1024;

/// Bytes per undo-log entry: one 128-byte line image.
const LOG_ENTRY_BYTES: u64 = 128;

/// Bytes of one block's slot of the ring.
const LOG_SLOT_BYTES: u64 = LOG_ENTRIES_PER_BLOCK * LOG_ENTRY_BYTES;

/// When the eager backend writes dirty lines back.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum EagerFlushPolicy {
    /// `clwb` after every protected store (strict eager): repeated stores
    /// to one line write it back repeatedly.
    PerStore,
    /// Logged (epoch) eager: each dirtied line is undo-logged once (one log
    /// line + flush on its first store) and written back exactly once, at
    /// region commit. This is the classic "logging + cache-line flushing"
    /// design whose 20–40 % slowdown and ~2× write amplification the paper
    /// cites as EP's price (§I).
    AtCommit,
}

/// The Eager Persistency backend.
#[derive(Debug, Clone, Copy)]
pub struct EagerBackend {
    /// The logged discipline's undo-log ring, `(base, slots)`; `None` is
    /// strict per-store flushing.
    undo_log: Option<(Addr, u64)>,
}

impl EagerBackend {
    /// Strict eager ([`EagerFlushPolicy::PerStore`]).
    pub fn per_store() -> Self {
        Self { undo_log: None }
    }

    /// Logged eager ([`EagerFlushPolicy::AtCommit`]); allocates the
    /// undo-log ring for a launch of `num_regions` blocks.
    pub fn at_commit(mem: &mut PersistMemory, num_regions: u64) -> Self {
        let slots = num_regions.clamp(1, LOG_SLOTS);
        let base = mem.alloc(slots * LOG_SLOT_BYTES, 128);
        Self {
            undo_log: Some((base, slots)),
        }
    }
}

impl PersistencyBackend for EagerBackend {
    fn contract(&self) -> DurabilityContract {
        DurabilityContract::of(BackendKind::Eager)
    }

    fn boxed(&self) -> Box<dyn PersistencyBackend> {
        Box::new(*self)
    }

    fn begin_block(&self, block: u64) -> Box<dyn BlockPersistSession> {
        Box::new(EagerSession {
            log: self
                .undo_log
                .map(|(base, slots)| base.index(block % slots, LOG_SLOT_BYTES)),
            log_cursor: 0,
            dirtied: BTreeSet::new(),
        })
    }

    fn transient_range(&self) -> Option<(u64, u64)> {
        self.undo_log
            .map(|(base, slots)| (base.raw(), slots * LOG_SLOT_BYTES))
    }
}

/// Per-block eager session: tracks dirtied lines and issues the flushes
/// and barriers of the eager discipline.
#[derive(Debug)]
pub struct EagerSession {
    /// This block's slot of the undo-log ring (logged discipline only).
    log: Option<Addr>,
    /// Next free entry of `log`.
    log_cursor: u64,
    /// Line bases dirtied by this region, in address order (deterministic
    /// commit-time write-back order).
    dirtied: BTreeSet<u64>,
}

impl BlockPersistSession for EagerSession {
    fn on_store(&mut self, ctx: &mut BlockCtx<'_>, addr: Addr) -> bool {
        let line = addr.raw() & !(ctx.line_size() - 1);
        let first = self.dirtied.insert(line);
        let Some(log) = self.log else {
            // Strict eager: `clwb` right behind the store.
            ctx.persist_line_reliably(addr, false);
            return first;
        };
        if first {
            let entry = log.index(self.log_cursor % LOG_ENTRIES_PER_BLOCK, LOG_ENTRY_BYTES);
            self.log_cursor += 1;
            // Undo record: the old line image (16 words) — the recovery
            // path never rolls back (regions are idempotent), but the
            // traffic and durability cost are real: 16 stores + one flush
            // of the log line.
            for wordidx in 0..LOG_ENTRY_BYTES / 8 {
                ctx.store_u64(entry.offset(8 * wordidx), line ^ wordidx);
            }
            ctx.flush_line(entry);
        }
        first
    }

    fn commit(&mut self, ctx: &mut BlockCtx<'_>) {
        if self.log.is_some() {
            for line in std::mem::take(&mut self.dirtied) {
                ctx.persist_line_reliably(Addr::new(line), false);
            }
        }
        ctx.sync_threads();
        ctx.persist_barrier();
    }

    fn persist_token(&mut self, ctx: &mut BlockCtx<'_>, addr: Option<Addr>) {
        if let Some(addr) = addr {
            ctx.persist_line_reliably(addr, false);
        }
        ctx.persist_barrier();
    }
}

/// Writes back the line at `base` with up to `retries` attempts, calling
/// `on_transient_fail(attempt)` after each refused write-back (the caller
/// charges its backoff there). Returns whether the line ended durable.
///
/// This is the recovery runtime's degraded "flush-per-store at region
/// granularity" primitive, shared so the resilient engine and the eager
/// backend agree on what a retried eager persist means.
pub fn drain_line_with_retry(
    mem: &mut PersistMemory,
    base: u64,
    retries: u32,
    mut on_transient_fail: impl FnMut(u32),
) -> bool {
    for attempt in 0..retries {
        match mem.flush_line(Addr::new(base)) {
            FlushOutcome::Clean | FlushOutcome::Persisted => return true,
            FlushOutcome::TransientFail => on_transient_fail(attempt),
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvm::NvmConfig;
    use simt::{DeviceConfig, DeviceState, LaunchConfig};

    fn fixture() -> (PersistMemory, DeviceState, DeviceConfig, LaunchConfig) {
        let cfg = DeviceConfig::test_gpu();
        let mem = PersistMemory::new(NvmConfig::default());
        let dev = DeviceState::new(&cfg, 4, 128);
        let lc = LaunchConfig::linear(4 * 64, 64);
        (mem, dev, cfg, lc)
    }

    /// Stores one word to each of `lines` (line indices from `a`) and
    /// announces it to the session, in order.
    fn store_lines(
        ctx: &mut BlockCtx<'_>,
        s: &mut dyn BlockPersistSession,
        a: Addr,
        lines: impl IntoIterator<Item = u64>,
    ) {
        for i in lines {
            ctx.store_u64(a.offset(128 * i), i);
            s.on_store(ctx, a.offset(128 * i));
        }
    }

    #[test]
    fn per_store_flushes_immediately() {
        let (mut mem, mut dev, cfg, lc) = fixture();
        let a = mem.alloc(256, 8);
        let mut ctx = BlockCtx::standalone(lc, 0, &mut mem, &mut dev, &cfg);
        let mut s = EagerBackend::per_store().begin_block(0);
        ctx.store_u64(a, 7);
        assert!(s.on_store(&mut ctx, a), "first touch of the line");
        ctx.store_u64(a.offset(8), 8);
        assert!(!s.on_store(&mut ctx, a.offset(8)), "same line");
        let _ = ctx.into_cost();
        assert_eq!(mem.stats().explicit_flushes, 2, "one clwb per store");
        assert_eq!(mem.dirty_lines(), 0, "store is durable right away");
    }

    #[test]
    fn at_commit_defers_the_writeback() {
        let (mut mem, mut dev, cfg, lc) = fixture();
        let a = mem.alloc(512, 128);
        let mut s = EagerBackend::at_commit(&mut mem, 4).begin_block(0);
        let mut ctx = BlockCtx::standalone(lc, 0, &mut mem, &mut dev, &cfg);
        store_lines(&mut ctx, s.as_mut(), a, 0..4);
        let _ = ctx.into_cost();
        assert_eq!(mem.dirty_lines(), 4, "only the undo log is flushed yet");
        let mut ctx = BlockCtx::standalone(lc, 0, &mut mem, &mut dev, &cfg);
        s.commit(&mut ctx);
        let _ = ctx.into_cost();
        assert_eq!(mem.stats().explicit_flushes, 4 + 4, "four log, four data");
        assert_eq!(mem.dirty_lines(), 0, "commit drained every dirty line");
    }

    #[test]
    fn logged_session_undo_logs_each_line_once_and_wraps() {
        let (mut mem, mut dev, cfg, lc) = fixture();
        let a = mem.alloc(128 * (LOG_ENTRIES_PER_BLOCK + 1), 128);
        let backend = EagerBackend::at_commit(&mut mem, 4);
        let (log_base, log_len) = backend.transient_range().expect("logged eager has a log");
        assert_eq!(log_len, 4 * LOG_SLOT_BYTES);
        // Block 5 reuses ring slot 5 % 4.
        let slot = Addr::new(log_base).index(1, LOG_SLOT_BYTES);
        let mut s = backend.begin_block(5);
        let before = mem.stats();
        let mut ctx = BlockCtx::standalone(lc, 5, &mut mem, &mut dev, &cfg);
        // Lines 0, 1, 2, then each again: three first touches, six stores.
        store_lines(&mut ctx, s.as_mut(), a, (0..3).chain(0..3));
        let _ = ctx.into_cost();
        let delta = mem.stats() - before;
        assert_eq!(delta.store_ops, 6 + 3 * 16, "one 16-word entry per line");
        assert_eq!(
            delta.explicit_flushes, 3,
            "one log flush per line, no data flush"
        );
        for i in 0..3u64 {
            let (entry, line) = (slot.index(i, LOG_ENTRY_BYTES), a.offset(128 * i).raw());
            for w in 0..16u64 {
                assert_eq!(mem.read_durable_u64(entry.offset(8 * w)), line ^ w);
            }
        }
        assert_eq!(mem.read_durable_u64(slot.index(3, LOG_ENTRY_BYTES)), 0);
        // Fill the block's log: entry LOG_ENTRIES_PER_BLOCK lands on entry 0.
        let mut ctx = BlockCtx::standalone(lc, 5, &mut mem, &mut dev, &cfg);
        store_lines(&mut ctx, s.as_mut(), a, 3..=LOG_ENTRIES_PER_BLOCK);
        let _ = ctx.into_cost();
        let last = a.offset(128 * LOG_ENTRIES_PER_BLOCK).raw();
        assert_eq!(mem.read_durable_u64(slot), last, "wrapped onto entry 0");
        assert_eq!(
            mem.read_durable_u64(slot.offset(LOG_SLOT_BYTES)),
            0,
            "never past the block's slot"
        );
    }

    #[test]
    fn drain_with_retry_reports_attempts() {
        let (mut mem, _, _, _) = fixture();
        let a = mem.alloc(128, 8);
        mem.write_u64(a, 1);
        let mut fails = 0;
        assert!(drain_line_with_retry(&mut mem, a.raw(), 3, |_| fails += 1));
        assert_eq!(fails, 0, "perfect device persists on the first try");
        // Already clean: still true, still no failures.
        assert!(drain_line_with_retry(&mut mem, a.raw(), 3, |_| fails += 1));
        assert_eq!(fails, 0);
    }
}
