//! Two-table cuckoo-hashing checksum table (§IV-C, Fig. 4).

use super::hash::{hash_with_seed, HASH_ALU_OPS};
use super::{entry_addr, AtomicPolicy, ChecksumTableOps, LockPolicy, TableStats, EMPTY_TAG};
use nvm::{Addr, PersistMemory};
use simt::BlockCtx;
use std::cell::Cell;

/// Standard two-table cuckoo hashing: tables `T₁`/`T₂` with independent
/// hash functions `H₁`/`H₂`. An insertion always lands (via `atomicExch` on
/// the key tag); the displaced previous occupant is re-inserted into the
/// *other* table, possibly displacing again. A displacement chain longer
/// than `max_displacements` signals a cycle and triggers a rehash with new
/// hash seeds.
///
/// Lookup is two probes — one per table — but lookups only happen during
/// crash recovery, off the critical path (§IV-C).
#[derive(Debug, Clone)]
pub struct CuckooTable {
    bases: [Addr; 2],
    entries_per_table: u64,
    arity: usize,
    seeds: Cell<[u64; 2]>,
    max_displacements: u32,
    lock: LockPolicy,
    atomic: AtomicPolicy,
    lock_addr: Addr,
    stats: TableStats,
}

impl CuckooTable {
    /// Allocates a cuckoo table sized for `capacity` keys at the combined
    /// `load_factor` (paper: keep below 50 %).
    ///
    /// # Panics
    ///
    /// Panics if `load_factor` is not in `(0, 1]`, or `capacity`/`arity`
    /// is zero.
    #[allow(clippy::too_many_arguments)]
    pub fn create(
        mem: &mut PersistMemory,
        capacity: u64,
        load_factor: f64,
        max_displacements: u32,
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
        let total_entries = ((capacity as f64 / load_factor).ceil() as u64).max(capacity);
        let entries_per_table = total_entries.div_ceil(2).max(1);
        let stride = super::entry_stride(arity);
        let t1 = mem.alloc(entries_per_table * stride, 8);
        let t2 = mem.alloc(entries_per_table * stride, 8);
        let lock_addr = mem.alloc(8, 8);
        Self {
            bases: [t1, t2],
            entries_per_table,
            arity,
            seeds: Cell::new([seed, seed ^ 0x5DEE_CE66]),
            max_displacements,
            lock,
            atomic,
            lock_addr,
            stats: TableStats::default(),
        }
    }

    /// Slots per sub-table.
    pub fn entries_per_table(&self) -> u64 {
        self.entries_per_table
    }

    fn index(&self, table: usize, key: u64) -> u64 {
        hash_with_seed(key, self.seeds.get()[table]) % self.entries_per_table
    }

    fn slot(&self, table: usize, idx: u64) -> Addr {
        entry_addr(self.bases[table], idx, self.arity)
    }

    /// Swaps the key tag at `slot` for `tag`, returning the previous tag.
    fn exchange_tag(&self, ctx: &mut BlockCtx<'_>, slot: Addr, tag: u64) -> u64 {
        match self.atomic {
            AtomicPolicy::Atomic => ctx.atomic_exch_u64(slot, tag),
            AtomicPolicy::Racy => {
                // Temporary-variable swap (load + store) plus a verification
                // read, as §IV-D3's no-atomics variant does. The extra
                // round-trips are the cost; the displaced value can also be
                // corrupted by a concurrent racer, which we model as a
                // conflict event that forces a retry of the exchange.
                let old = ctx.load_u64(slot);
                ctx.store_u64(slot, tag);
                let verify = ctx.load_u64(slot);
                // Dependent same-line round-trips occupy the partition like
                // atomics (see §IV-D3's finding).
                ctx.charge_channel(slot, 3);
                let concurrency = ctx.concurrency();
                let draw = hash_with_seed(tag ^ slot.raw(), self.seeds.get()[0] ^ 0x51CA)
                    % self.entries_per_table.max(1);
                if draw < concurrency.saturating_sub(1) / 64 {
                    self.stats
                        .racy_conflicts
                        .set(self.stats.racy_conflicts.get() + 1);
                    ctx.charge_alu(16 * concurrency);
                    // Redo the exchange after losing the race.
                    let old2 = ctx.load_u64(slot);
                    ctx.store_u64(slot, tag);
                    let _ = ctx.load_u64(slot);
                    return old2;
                }
                // NOTE: no assert that `verify == tag` — after the
                // injected crash point stores are dropped, so the
                // verification read legitimately sees the old value (the
                // data is lost either way; recovery re-executes).
                let _ = verify;
                old
            }
        }
    }

    fn read_checksums(&self, ctx: &mut BlockCtx<'_>, slot: Addr) -> Vec<u64> {
        (0..self.arity)
            .map(|c| ctx.load_u64(slot.offset(8 * (1 + c as u64))))
            .collect()
    }

    fn write_checksums(&self, ctx: &mut BlockCtx<'_>, slot: Addr, cs: &[u64]) {
        for (c, &v) in cs.iter().enumerate() {
            ctx.store_u64(slot.offset(8 * (1 + c as u64)), v);
        }
    }

    fn insert_inner(&self, ctx: &mut BlockCtx<'_>, key: u64, checksums: &[u64]) {
        assert_eq!(checksums.len(), self.arity, "checksum arity mismatch");
        // Update-in-place first: a key re-published by recovery may already
        // live in either table, and blindly exchanging into table 0 would
        // create a duplicate whose stale copy could win later (e.g. after a
        // rehash). Two probes, same as a lookup.
        let tag0 = key + 1;
        for table in 0..2 {
            let slot = self.slot(table, self.index(table, key));
            ctx.charge_alu(HASH_ALU_OPS);
            if ctx.load_u64(slot) == tag0 {
                self.write_checksums(ctx, slot, checksums);
                self.stats.inserts.set(self.stats.inserts.get() + 1);
                return;
            }
        }
        let mut tag = key + 1;
        let mut cs = checksums.to_vec();
        let mut table = 0usize;
        for attempt in 0..self.max_displacements {
            ctx.charge_alu(HASH_ALU_OPS);
            let idx = self.index(table, tag - 1);
            let slot = self.slot(table, idx);
            // Read the previous occupant's checksums *before* overwriting.
            let displaced_cs = self.read_checksums(ctx, slot);
            let old_tag = self.exchange_tag(ctx, slot, tag);
            self.write_checksums(ctx, slot, &cs);
            if old_tag == EMPTY_TAG || old_tag == tag {
                self.stats.inserts.set(self.stats.inserts.get() + 1);
                return;
            }
            // Evicted someone: carry them to the other table.
            self.stats.collisions.set(self.stats.collisions.get() + 1);
            tag = old_tag;
            cs = displaced_cs;
            table ^= 1;
            let _ = attempt;
        }
        // Cycle: rehash with fresh seeds and retry (paper's fallback).
        self.rehash(ctx);
        self.insert_inner(ctx, tag - 1, &cs);
    }

    /// Rebuilds both tables with new hash seeds, re-inserting every
    /// resident entry. Expensive but rare; counted in
    /// [`TableStats::rehashes`].
    fn rehash(&self, ctx: &mut BlockCtx<'_>) {
        self.stats.rehashes.set(self.stats.rehashes.get() + 1);
        // Collect all occupied entries.
        let mut resident: Vec<(u64, Vec<u64>)> = Vec::new();
        for table in 0..2 {
            for idx in 0..self.entries_per_table {
                let slot = self.slot(table, idx);
                let tag = ctx.load_u64(slot);
                if tag != EMPTY_TAG {
                    let cs = self.read_checksums(ctx, slot);
                    resident.push((tag, cs));
                    ctx.store_u64(slot, EMPTY_TAG);
                }
            }
        }
        // New seed pair derived from the old one.
        let [s1, s2] = self.seeds.get();
        self.seeds
            .set([hash_with_seed(s1, 0xF00D), hash_with_seed(s2, 0xFEED)]);
        for (tag, cs) in resident {
            self.insert_inner(ctx, tag - 1, &cs);
        }
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
        for table in 0..2 {
            let idx = self.index(table, key);
            let slot = self.slot(table, idx);
            if mem.read_u64(slot) == tag {
                return Some(
                    (0..self.arity)
                        .map(|c| mem.read_u64(slot.offset(8 * (1 + c as u64))))
                        .collect(),
                );
            }
        }
        None
    }

    pub(crate) fn reset(&self, mem: &mut PersistMemory) {
        let stride = super::entry_stride(self.arity);
        let zeros = vec![0u8; (self.entries_per_table * stride) as usize];
        for base in self.bases {
            mem.write_bytes(base, &zeros);
        }
        mem.write_u64(self.lock_addr, 0);
        self.stats.reset();
    }

    pub(crate) fn size_bytes(&self) -> u64 {
        2 * self.entries_per_table * super::entry_stride(self.arity) + 8
    }

    pub(crate) fn storage_ranges(&self) -> Vec<(u64, u64)> {
        let per = self.entries_per_table * super::entry_stride(self.arity);
        vec![
            (self.bases[0].raw(), per),
            (self.bases[1].raw(), per),
            (self.lock_addr.raw(), 8),
        ]
    }

    pub(crate) fn stats(&self) -> &TableStats {
        &self.stats
    }
}

impl ChecksumTableOps for CuckooTable {
    fn insert(&self, ctx: &mut BlockCtx<'_>, key: u64, checksums: &[u64]) {
        CuckooTable::insert(self, ctx, key, checksums)
    }

    fn lookup(&self, mem: &mut PersistMemory, key: u64) -> Option<Vec<u64>> {
        CuckooTable::lookup(self, mem, key)
    }

    fn reset(&self, mem: &mut PersistMemory) {
        CuckooTable::reset(self, mem)
    }

    fn size_bytes(&self) -> u64 {
        CuckooTable::size_bytes(self)
    }

    fn stats(&self) -> &TableStats {
        CuckooTable::stats(self)
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::Rig;
    use super::*;

    fn table(rig: &mut Rig, cap: u64, lf: f64) -> CuckooTable {
        CuckooTable::create(
            &mut rig.mem,
            cap,
            lf,
            32,
            2,
            LockPolicy::LockFree,
            AtomicPolicy::Atomic,
            0xC0FFEE,
        )
    }

    #[test]
    fn insert_then_lookup_roundtrips() {
        let mut rig = Rig::new();
        let t = table(&mut rig, 64, 0.45);
        let mut ctx = simt::BlockCtx::standalone(rig.lc, 0, &mut rig.mem, &mut rig.dev, &rig.cfg);
        for key in 0..64u64 {
            t.insert(&mut ctx, key, &[key * 7, key ^ 0xAB]);
        }
        let _ = ctx.into_cost();
        for key in 0..64u64 {
            assert_eq!(
                t.lookup(&mut rig.mem, key),
                Some(vec![key * 7, key ^ 0xAB]),
                "key {key}"
            );
        }
    }

    #[test]
    fn displacements_preserve_evicted_checksums() {
        let mut rig = Rig::new();
        // Tight table: displacement chains guaranteed.
        let t = table(&mut rig, 64, 0.95);
        let mut ctx = simt::BlockCtx::standalone(rig.lc, 0, &mut rig.mem, &mut rig.dev, &rig.cfg);
        for key in 0..60u64 {
            t.insert(&mut ctx, key, &[key + 100, key + 200]);
        }
        let _ = ctx.into_cost();
        assert!(t.stats().collisions.get() > 0, "expected displacements");
        for key in 0..60u64 {
            assert_eq!(
                t.lookup(&mut rig.mem, key),
                Some(vec![key + 100, key + 200]),
                "key {key}"
            );
        }
    }

    #[test]
    fn rehash_keeps_all_keys() {
        let mut rig = Rig::new();
        // Very tight displacement budget to force at least one rehash.
        let t = CuckooTable::create(
            &mut rig.mem,
            128,
            0.98,
            4,
            2,
            LockPolicy::LockFree,
            AtomicPolicy::Atomic,
            7,
        );
        let mut ctx = simt::BlockCtx::standalone(rig.lc, 0, &mut rig.mem, &mut rig.dev, &rig.cfg);
        for key in 0..100u64 {
            t.insert(&mut ctx, key, &[key, !key]);
        }
        let _ = ctx.into_cost();
        assert!(t.stats().rehashes.get() > 0, "expected a rehash");
        for key in 0..100u64 {
            assert_eq!(
                t.lookup(&mut rig.mem, key),
                Some(vec![key, !key]),
                "key {key}"
            );
        }
    }

    #[test]
    fn missing_key_is_none() {
        let mut rig = Rig::new();
        let t = table(&mut rig, 32, 0.45);
        assert_eq!(t.lookup(&mut rig.mem, 31), None);
    }

    #[test]
    fn reinsert_same_key_updates() {
        let mut rig = Rig::new();
        let t = table(&mut rig, 32, 0.45);
        let mut ctx = simt::BlockCtx::standalone(rig.lc, 0, &mut rig.mem, &mut rig.dev, &rig.cfg);
        t.insert(&mut ctx, 9, &[1, 2]);
        t.insert(&mut ctx, 9, &[3, 4]);
        let _ = ctx.into_cost();
        assert_eq!(t.lookup(&mut rig.mem, 9), Some(vec![3, 4]));
    }

    #[test]
    fn reset_clears() {
        let mut rig = Rig::new();
        let t = table(&mut rig, 32, 0.45);
        let mut ctx = simt::BlockCtx::standalone(rig.lc, 0, &mut rig.mem, &mut rig.dev, &rig.cfg);
        t.insert(&mut ctx, 2, &[5, 6]);
        let _ = ctx.into_cost();
        t.reset(&mut rig.mem);
        assert_eq!(t.lookup(&mut rig.mem, 2), None);
    }

    #[test]
    fn two_lookups_max() {
        // Lookup inspects exactly the two candidate slots, regardless of
        // how the key got displaced there — constant-time lookup (§IV-C).
        let mut rig = Rig::new();
        let t = table(&mut rig, 64, 0.5);
        let mut ctx = simt::BlockCtx::standalone(rig.lc, 0, &mut rig.mem, &mut rig.dev, &rig.cfg);
        for key in 0..64u64 {
            t.insert(&mut ctx, key, &[key, key]);
        }
        let _ = ctx.into_cost();
        let before = rig.mem.stats().load_ops;
        t.lookup(&mut rig.mem, 5);
        let loads = rig.mem.stats().load_ops - before;
        assert!(loads <= 2 + 2 * 2, "cuckoo lookup probed too much: {loads}");
    }
}
