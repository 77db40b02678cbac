//! The checksum **global array** (§V) — the paper's scalable, hash-table-less
//! design.

use super::{ChecksumTableOps, TableStats};
use nvm::{Addr, PersistMemory};
use simt::BlockCtx;

/// A flat array of checksum entries indexed directly by the LP-region key
/// (the thread-block ID).
///
/// Because every thread block has a unique ID, indexing by it removes
/// *all* collisions, needs *no* atomics (each block writes a disjoint
/// entry), supports a 100 % load factor (minimum space), and is race-free
/// by construction — the observations that give the paper its 2.1 %
/// geometric-mean overhead (Table V).
#[derive(Debug, Clone)]
pub struct GlobalArrayTable {
    base: Addr,
    entries: u64,
    arity: usize,
    stats: TableStats,
}

impl GlobalArrayTable {
    /// Allocates an array with exactly one entry per key in `0..capacity`.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` or `arity` is zero.
    pub fn create(mem: &mut PersistMemory, capacity: u64, arity: usize) -> Self {
        assert!(capacity > 0 && arity > 0, "empty table");
        let stride = 8 * arity as u64;
        let base = mem.alloc(capacity * stride, 8);
        Self {
            base,
            entries: capacity,
            arity,
            stats: TableStats::default(),
        }
    }

    /// Number of entries (== number of LP regions).
    pub fn entries(&self) -> u64 {
        self.entries
    }

    /// Device address of `key`'s entry (used by the eager baseline to
    /// flush its commit token).
    pub fn entry_addr(&self, key: u64) -> Addr {
        self.slot(key)
    }

    fn slot(&self, key: u64) -> Addr {
        assert!(key < self.entries, "key {key} outside global array");
        self.base.index(key, 8 * self.arity as u64)
    }

    pub(crate) fn insert(&self, ctx: &mut BlockCtx<'_>, key: u64, checksums: &[u64]) {
        assert_eq!(checksums.len(), self.arity, "checksum arity mismatch");
        let slot = self.slot(key);
        for (c, &cs) in checksums.iter().enumerate() {
            ctx.store_u64(slot.offset(8 * c as u64), cs);
        }
        self.stats.inserts.set(self.stats.inserts.get() + 1);
    }

    pub(crate) fn lookup(&self, mem: &mut PersistMemory, key: u64) -> Option<Vec<u64>> {
        if key >= self.entries {
            return None;
        }
        let slot = self.slot(key);
        Some(
            (0..self.arity)
                .map(|c| mem.read_u64(slot.offset(8 * c as u64)))
                .collect(),
        )
    }

    pub(crate) fn reset(&self, mem: &mut PersistMemory) {
        let zeros = vec![0u8; (self.entries * 8 * self.arity as u64) as usize];
        mem.write_bytes(self.base, &zeros);
        self.stats.reset();
    }

    pub(crate) fn size_bytes(&self) -> u64 {
        self.entries * 8 * self.arity as u64
    }

    pub(crate) fn storage_ranges(&self) -> Vec<(u64, u64)> {
        vec![(self.base.raw(), self.entries * 8 * self.arity as u64)]
    }

    pub(crate) fn stats(&self) -> &TableStats {
        &self.stats
    }
}

impl ChecksumTableOps for GlobalArrayTable {
    fn insert(&self, ctx: &mut BlockCtx<'_>, key: u64, checksums: &[u64]) {
        GlobalArrayTable::insert(self, ctx, key, checksums)
    }

    fn lookup(&self, mem: &mut PersistMemory, key: u64) -> Option<Vec<u64>> {
        GlobalArrayTable::lookup(self, mem, key)
    }

    fn reset(&self, mem: &mut PersistMemory) {
        GlobalArrayTable::reset(self, mem)
    }

    fn size_bytes(&self) -> u64 {
        GlobalArrayTable::size_bytes(self)
    }

    fn stats(&self) -> &TableStats {
        GlobalArrayTable::stats(self)
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::Rig;
    use super::*;

    #[test]
    fn insert_then_lookup_roundtrips() {
        let mut rig = Rig::new();
        let t = GlobalArrayTable::create(&mut rig.mem, 64, 2);
        let mut ctx = simt::BlockCtx::standalone(rig.lc, 0, &mut rig.mem, &mut rig.dev, &rig.cfg);
        for key in 0..64u64 {
            t.insert(&mut ctx, key, &[key * 11, key ^ 0x55]);
        }
        let _ = ctx.into_cost();
        for key in 0..64u64 {
            assert_eq!(
                t.lookup(&mut rig.mem, key),
                Some(vec![key * 11, key ^ 0x55])
            );
        }
    }

    #[test]
    fn no_atomics_issued() {
        let mut rig = Rig::new();
        let t = GlobalArrayTable::create(&mut rig.mem, 64, 2);
        let mut ctx = simt::BlockCtx::standalone(rig.lc, 0, &mut rig.mem, &mut rig.dev, &rig.cfg);
        for key in 0..64u64 {
            t.insert(&mut ctx, key, &[1, 2]);
        }
        let cost = ctx.into_cost();
        assert_eq!(cost.atomic_ops, 0, "global array must be atomic-free");
        assert_eq!(t.stats().collisions.get(), 0);
    }

    #[test]
    fn exact_space_no_slack() {
        let mut rig = Rig::new();
        let t = GlobalArrayTable::create(&mut rig.mem, 1000, 2);
        assert_eq!(t.size_bytes(), 1000 * 16, "100% load factor: no padding");
    }

    #[test]
    fn out_of_range_lookup_is_none() {
        let mut rig = Rig::new();
        let t = GlobalArrayTable::create(&mut rig.mem, 8, 1);
        assert_eq!(t.lookup(&mut rig.mem, 8), None);
    }

    #[test]
    #[should_panic(expected = "outside global array")]
    fn out_of_range_insert_panics() {
        let mut rig = Rig::new();
        let t = GlobalArrayTable::create(&mut rig.mem, 8, 1);
        let mut ctx = simt::BlockCtx::standalone(rig.lc, 0, &mut rig.mem, &mut rig.dev, &rig.cfg);
        t.insert(&mut ctx, 8, &[1]);
    }

    #[test]
    fn reset_zeroes_entries() {
        let mut rig = Rig::new();
        let t = GlobalArrayTable::create(&mut rig.mem, 8, 2);
        let mut ctx = simt::BlockCtx::standalone(rig.lc, 0, &mut rig.mem, &mut rig.dev, &rig.cfg);
        t.insert(&mut ctx, 3, &[9, 9]);
        let _ = ctx.into_cost();
        t.reset(&mut rig.mem);
        assert_eq!(t.lookup(&mut rig.mem, 3), Some(vec![0, 0]));
    }
}
