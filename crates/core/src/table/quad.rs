//! Quadratic-probing open-addressing checksum table (§IV-C, Fig. 3 right).

use super::hash::{hash_with_seed, HASH_ALU_OPS};
use super::{entry_addr, AtomicPolicy, ChecksumTableOps, LockPolicy, TableStats, EMPTY_TAG};
use nvm::{Addr, PersistMemory};
use simt::BlockCtx;

/// High bit marking a slot lost to a concurrent winner in the racy model;
/// real tags are `block_id + 1` and never reach this bit.
const RACY_WINNER_BIT: u64 = 1 << 63;

/// Open-addressing table: on a collision at index `h`, retry
/// `h + 1², h + 2², h + 3², …` until an empty slot is claimed.
///
/// Slot claiming is an `atomicCAS` on the key-tag word under
/// [`AtomicPolicy::Atomic`]; the checksum words are then written with plain
/// stores (they belong to this entry exclusively once the tag is claimed).
///
/// The paper's Table II instruments exactly the `collisions` counter this
/// type maintains.
#[derive(Debug, Clone)]
pub struct QuadraticProbeTable {
    base: Addr,
    entries: u64,
    arity: usize,
    seed: u64,
    lock: LockPolicy,
    atomic: AtomicPolicy,
    lock_addr: Addr,
    stats: TableStats,
}

impl QuadraticProbeTable {
    /// Allocates a table sized for `capacity` keys at `load_factor`
    /// occupancy, in `mem`.
    ///
    /// # Panics
    ///
    /// Panics if `load_factor` is not in `(0, 1]`, `capacity` is zero, or
    /// `arity` is zero.
    pub fn create(
        mem: &mut PersistMemory,
        capacity: u64,
        load_factor: f64,
        arity: usize,
        lock: LockPolicy,
        atomic: AtomicPolicy,
        seed: u64,
    ) -> Self {
        assert!(
            load_factor > 0.0 && load_factor <= 1.0,
            "load factor out of range"
        );
        assert!(capacity > 0 && arity > 0, "empty table");
        // Power-of-two sizing + triangular probing guarantees the probe
        // sequence visits every slot exactly once, so a non-full table can
        // never spuriously report "full".
        let entries = ((capacity as f64 / load_factor).ceil() as u64)
            .max(capacity)
            .next_power_of_two();
        let stride = super::entry_stride(arity);
        let base = mem.alloc(entries * stride, 8);
        let lock_addr = mem.alloc(8, 8);
        Self {
            base,
            entries,
            arity,
            seed,
            lock,
            atomic,
            lock_addr,
            stats: TableStats::default(),
        }
    }

    /// Number of slots in the table.
    pub fn entries(&self) -> u64 {
        self.entries
    }

    /// Probe sequence for `key`: `h + i(i+1)/2  (mod entries)` — the
    /// quadratic (triangular) schedule, which is a full permutation of a
    /// power-of-two table.
    fn probe_index(&self, key: u64, i: u64) -> u64 {
        (hash_with_seed(key, self.seed).wrapping_add(i * (i + 1) / 2)) % self.entries
    }

    /// Claims the slot's key tag. Returns the tag observed before the
    /// claim attempt (EMPTY on success) plus whether a racy retry happened.
    fn claim_slot(&self, ctx: &mut BlockCtx<'_>, slot: Addr, tag: u64) -> u64 {
        match self.atomic {
            AtomicPolicy::Atomic => ctx.atomic_cas_u64(slot, EMPTY_TAG, tag),
            AtomicPolicy::Racy => {
                // Plain read-check-write with a verification re-read. Under
                // real concurrency another block can claim the slot between
                // the read and the write; we model that lost race with a
                // deterministic pseudo-random draw whose probability is the
                // chance one of the other concurrent blocks targets this
                // slot. A lost race leaves the *winner's* tag in the slot
                // (modelled with a poison tag no real key can have), costs a
                // spin-wait, and sends the loser to the next probe index.
                let old = ctx.load_u64(slot);
                // Read + write + verification read are *dependent*
                // transactions on the same line: they serialise at the
                // memory partition just like atomics do, only more of them.
                ctx.charge_channel(slot, 3);
                if old != EMPTY_TAG {
                    return old;
                }
                // The race window is the handful of cycles between the
                // read and the write — a small fraction of a block's
                // lifetime — so the collision probability is scaled down
                // accordingly.
                let concurrency = ctx.concurrency();
                let draw =
                    hash_with_seed(tag ^ slot.raw(), self.seed ^ 0xACE1) % self.entries.max(1);
                if draw < concurrency.saturating_sub(1) / 32 {
                    self.stats
                        .racy_conflicts
                        .set(self.stats.racy_conflicts.get() + 1);
                    ctx.store_u64(slot, tag | RACY_WINNER_BIT);
                    ctx.charge_alu(32 * concurrency);
                    return tag | RACY_WINNER_BIT;
                }
                ctx.store_u64(slot, tag);
                let _verify = ctx.load_u64(slot);
                EMPTY_TAG
            }
        }
    }

    fn insert_inner(&self, ctx: &mut BlockCtx<'_>, key: u64, checksums: &[u64]) {
        assert_eq!(checksums.len(), self.arity, "checksum arity mismatch");
        let tag = key + 1;
        ctx.charge_alu(HASH_ALU_OPS);
        for i in 0..self.entries {
            let idx = self.probe_index(key, i);
            let slot = entry_addr(self.base, idx, self.arity);
            let old = self.claim_slot(ctx, slot, tag);
            if old == EMPTY_TAG || old == tag {
                // Claimed, or re-inserting the same region after recovery:
                // publish the checksums.
                for (c, &cs) in checksums.iter().enumerate() {
                    ctx.store_u64(slot.offset(8 * (1 + c as u64)), cs);
                }
                self.stats.inserts.set(self.stats.inserts.get() + 1);
                return;
            }
            self.stats.collisions.set(self.stats.collisions.get() + 1);
            ctx.charge_alu(2); // next-index arithmetic
        }
        panic!("quadratic-probing table is full (capacity misconfigured)");
    }

    pub(crate) fn insert(&self, ctx: &mut BlockCtx<'_>, key: u64, checksums: &[u64]) {
        match self.lock {
            LockPolicy::LockFree => self.insert_inner(ctx, key, checksums),
            LockPolicy::GlobalLock => {
                ctx.lock_global(self.lock_addr);
                self.insert_inner(ctx, key, checksums);
                ctx.unlock_global(self.lock_addr);
            }
        }
    }

    pub(crate) fn lookup(&self, mem: &mut PersistMemory, key: u64) -> Option<Vec<u64>> {
        let tag = key + 1;
        for i in 0..self.entries {
            let idx = self.probe_index(key, i);
            let slot = entry_addr(self.base, idx, self.arity);
            let t = mem.read_u64(slot);
            if t == tag {
                return Some(
                    (0..self.arity)
                        .map(|c| mem.read_u64(slot.offset(8 * (1 + c as u64))))
                        .collect(),
                );
            }
            if t == EMPTY_TAG {
                return None;
            }
        }
        None
    }

    pub(crate) fn reset(&self, mem: &mut PersistMemory) {
        let stride = super::entry_stride(self.arity);
        let zeros = vec![0u8; (self.entries * stride) as usize];
        mem.write_bytes(self.base, &zeros);
        mem.write_u64(self.lock_addr, 0);
        self.stats.reset();
    }

    pub(crate) fn size_bytes(&self) -> u64 {
        self.entries * super::entry_stride(self.arity) + 8
    }

    pub(crate) fn storage_ranges(&self) -> Vec<(u64, u64)> {
        vec![
            (
                self.base.raw(),
                self.entries * super::entry_stride(self.arity),
            ),
            (self.lock_addr.raw(), 8),
        ]
    }

    pub(crate) fn stats(&self) -> &TableStats {
        &self.stats
    }
}

impl ChecksumTableOps for QuadraticProbeTable {
    fn insert(&self, ctx: &mut BlockCtx<'_>, key: u64, checksums: &[u64]) {
        QuadraticProbeTable::insert(self, ctx, key, checksums)
    }

    fn lookup(&self, mem: &mut PersistMemory, key: u64) -> Option<Vec<u64>> {
        QuadraticProbeTable::lookup(self, mem, key)
    }

    fn reset(&self, mem: &mut PersistMemory) {
        QuadraticProbeTable::reset(self, mem)
    }

    fn size_bytes(&self) -> u64 {
        QuadraticProbeTable::size_bytes(self)
    }

    fn stats(&self) -> &TableStats {
        QuadraticProbeTable::stats(self)
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::Rig;
    use super::*;

    fn table(rig: &mut Rig, cap: u64) -> QuadraticProbeTable {
        QuadraticProbeTable::create(
            &mut rig.mem,
            cap,
            0.65,
            2,
            LockPolicy::LockFree,
            AtomicPolicy::Atomic,
            0xBEEF,
        )
    }

    #[test]
    fn insert_then_lookup_roundtrips() {
        let mut rig = Rig::new();
        let t = table(&mut rig, 64);
        let mut ctx = simt::BlockCtx::standalone(rig.lc, 0, &mut rig.mem, &mut rig.dev, &rig.cfg);
        for key in 0..64u64 {
            t.insert(&mut ctx, key, &[key * 3, key ^ 0xFF]);
        }
        let _ = ctx.into_cost();
        for key in 0..64u64 {
            assert_eq!(t.lookup(&mut rig.mem, key), Some(vec![key * 3, key ^ 0xFF]));
        }
    }

    #[test]
    fn missing_key_is_none() {
        let mut rig = Rig::new();
        let t = table(&mut rig, 64);
        assert_eq!(t.lookup(&mut rig.mem, 7), None);
    }

    #[test]
    fn reinsert_overwrites() {
        let mut rig = Rig::new();
        let t = table(&mut rig, 16);
        let mut ctx = simt::BlockCtx::standalone(rig.lc, 0, &mut rig.mem, &mut rig.dev, &rig.cfg);
        t.insert(&mut ctx, 5, &[1, 2]);
        t.insert(&mut ctx, 5, &[9, 10]); // recovery re-publishes
        let _ = ctx.into_cost();
        assert_eq!(t.lookup(&mut rig.mem, 5), Some(vec![9, 10]));
    }

    #[test]
    fn collisions_counted_when_table_tight() {
        let mut rig = Rig::new();
        // 100 % load factor forces plenty of collisions.
        let t = QuadraticProbeTable::create(
            &mut rig.mem,
            64,
            1.0,
            2,
            LockPolicy::LockFree,
            AtomicPolicy::Atomic,
            1,
        );
        let mut ctx = simt::BlockCtx::standalone(rig.lc, 0, &mut rig.mem, &mut rig.dev, &rig.cfg);
        for key in 0..64u64 {
            t.insert(&mut ctx, key, &[key, key]);
        }
        let _ = ctx.into_cost();
        assert!(t.stats().collisions.get() > 0);
        assert_eq!(t.stats().inserts.get(), 64);
        // All keys still retrievable despite collisions.
        for key in 0..64u64 {
            assert!(t.lookup(&mut rig.mem, key).is_some());
        }
    }

    #[test]
    fn reset_clears_storage_and_stats() {
        let mut rig = Rig::new();
        let t = table(&mut rig, 16);
        let mut ctx = simt::BlockCtx::standalone(rig.lc, 0, &mut rig.mem, &mut rig.dev, &rig.cfg);
        t.insert(&mut ctx, 3, &[7, 8]);
        let _ = ctx.into_cost();
        t.reset(&mut rig.mem);
        assert_eq!(t.lookup(&mut rig.mem, 3), None);
        assert_eq!(t.stats().inserts.get(), 0);
    }

    #[test]
    fn lock_based_accumulates_serial_time() {
        let mut rig = Rig::new();
        let t = QuadraticProbeTable::create(
            &mut rig.mem,
            16,
            0.65,
            2,
            LockPolicy::GlobalLock,
            AtomicPolicy::Atomic,
            1,
        );
        let mut ctx = simt::BlockCtx::standalone(rig.lc, 0, &mut rig.mem, &mut rig.dev, &rig.cfg);
        t.insert(&mut ctx, 1, &[1, 1]);
        let _ = ctx.into_cost();
        assert!(
            rig.dev.lock_serial_ns > 0.0,
            "global-lock insert must serialise"
        );
    }

    #[test]
    fn size_accounts_for_arity() {
        let mut rig = Rig::new();
        let t1 = QuadraticProbeTable::create(
            &mut rig.mem,
            64,
            1.0,
            1,
            LockPolicy::LockFree,
            AtomicPolicy::Atomic,
            1,
        );
        let t2 = QuadraticProbeTable::create(
            &mut rig.mem,
            64,
            1.0,
            2,
            LockPolicy::LockFree,
            AtomicPolicy::Atomic,
            1,
        );
        assert!(t2.size_bytes() > t1.size_bytes());
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn wrong_arity_panics() {
        let mut rig = Rig::new();
        let t = table(&mut rig, 16);
        let mut ctx = simt::BlockCtx::standalone(rig.lc, 0, &mut rig.mem, &mut rig.dev, &rig.cfg);
        t.insert(&mut ctx, 1, &[1]);
    }
}
