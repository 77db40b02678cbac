//! Checksum-table organisations (§IV-C and §V of the paper).
//!
//! A checksum table maps an LP-region key (the thread-block ID) to that
//! region's checksum vector. Insertions happen on the critical path of
//! normal execution — once per thread block — so their scalability is what
//! separates the paper's designs. [`ChecksumTable`] is all three of them:
//! they share the storage, the lock and the entry layout, and differ only in
//! how a block claims its entry ([`TableKind`]):
//!
//! * quadratic probing — open addressing with triangular probing and
//!   `atomicCAS` slot claiming;
//! * cuckoo hashing — two tables, two hash functions, `atomicExch`
//!   displacement with cycle detection and rehash;
//! * the global array — §V's hash-table-**less** design: the block ID
//!   indexes a flat array; no collisions, no atomics, 100 % load factor.
//!
//! Lookups only happen during crash recovery (the rare path) and are served
//! host-side from the memory image.
//!
//! Two ablation axes from the paper are carried by every table:
//! [`LockPolicy`] (Table III: a global spin lock vs. lock-free atomics) and
//! [`AtomicPolicy`] (§IV-D3: proper atomics vs. a racy read-modify-write
//! emulation with verification reads).

mod hash;

pub use hash::{hash_with_seed, splitmix64};

use hash::HASH_ALU_OPS;
use nvm::{Addr, PersistMemory};
use serde::{Deserialize, Serialize};
use simt::BlockCtx;
use std::cell::Cell;

/// Key tag stored for an empty slot. Keys are stored as `key + 1` so block
/// ID 0 is representable.
const EMPTY_TAG: u64 = 0;

/// High bit marking a quadratic-probing slot lost to a concurrent winner in
/// the racy model; real tags are `block_id + 1` and never reach this bit.
const RACY_WINNER_BIT: u64 = 1 << 63;

/// Which table organisation to use, with its sizing knobs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum TableKind {
    /// Open addressing with quadratic (+i²) probing. The paper keeps the
    /// load factor at or below ~70 %.
    QuadraticProbing {
        /// Fraction of entries occupied once every block has inserted.
        load_factor: f64,
    },
    /// Two-table cuckoo hashing. The paper keeps the load factor below
    /// 50 % to avoid displacement blow-up.
    Cuckoo {
        /// Combined load factor across both tables.
        load_factor: f64,
        /// Displacement chain length that triggers a rehash.
        max_displacements: u32,
    },
    /// §V: a flat array indexed by thread-block ID. Collision-free,
    /// race-free, 100 % load factor.
    GlobalArray,
}

impl TableKind {
    /// Paper-default quadratic probing (65 % load factor).
    pub fn quad() -> Self {
        TableKind::QuadraticProbing { load_factor: 0.65 }
    }

    /// Paper-default cuckoo hashing (load factor right at the 50 % edge
    /// the paper warns about, 32 displacements).
    pub fn cuckoo() -> Self {
        TableKind::Cuckoo {
            load_factor: 0.48,
            max_displacements: 32,
        }
    }

    /// The global-array design.
    pub fn global_array() -> Self {
        TableKind::GlobalArray
    }
}

/// Lock discipline around a checksum insertion (Table III ablation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum LockPolicy {
    /// Atomics only; no critical section. The scalable choice.
    LockFree,
    /// A single global spin lock serialises every insertion — the CPU-style
    /// design that collapses at GPU thread-block counts.
    GlobalLock,
}

/// Whether slot updates use proper atomic instructions (§IV-D3 ablation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AtomicPolicy {
    /// `atomicCAS`/`atomicExch` as appropriate.
    Atomic,
    /// Plain load/compare/store emulation. Needs verification re-reads and
    /// suffers conflict-induced retries under concurrency; the paper found
    /// this *slower* than atomics, not faster.
    Racy,
}

/// Host-side instrumentation counters (not part of the timing model).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TableStats {
    /// Probes/displacements beyond the first slot attempt.
    pub collisions: u64,
    /// Completed insertions.
    pub inserts: u64,
    /// Cuckoo rehash events.
    pub rehashes: u64,
    /// Retries forced by lost races under [`AtomicPolicy::Racy`].
    pub racy_conflicts: u64,
}

/// Operations every table organisation supports.
pub trait ChecksumTableOps {
    /// Publishes `checksums` for LP region `key` from inside a kernel,
    /// charging simulated costs to `ctx`.
    fn insert(&self, ctx: &mut BlockCtx<'_>, key: u64, checksums: &[u64]);

    /// Reads back the checksums for `key` from the memory image
    /// (host-side, uncosted). Returns `None` when the key was never
    /// (durably) inserted.
    fn lookup(&self, mem: &mut PersistMemory, key: u64) -> Option<Vec<u64>>;

    /// Zeroes the table storage and counters (new launch epoch).
    fn reset(&self, mem: &mut PersistMemory);

    /// Device bytes occupied by the table (Table V space-overhead column).
    fn size_bytes(&self) -> u64;

    /// Instrumentation counters.
    fn stats(&self) -> TableStats;
}

/// What differs between the organisations: the state their claim rules
/// need.
#[derive(Debug, Clone)]
enum Org {
    /// Open addressing: a key probes `h + i(i+1)/2` from its hash `h`.
    Quad { seed: u64 },
    /// Two tables under two hash functions, whose seeds move from `first`
    /// on every rehash.
    Cuckoo {
        first: [u64; 2],
        seeds: Cell<[u64; 2]>,
        max_displacements: u32,
    },
    /// One entry per key, indexed by the key.
    Array,
}

/// A checksum table bound to device memory.
///
/// The storage is `tables` arrays of `entries` entries each (two arrays for
/// cuckoo hashing, one otherwise), then an 8-byte lock word in the hash
/// tables. An entry is `arity` checksum words, behind a key-tag word in the
/// hash tables.
///
/// Constructed by [`crate::LpRuntime::setup`]; kernels call
/// [`ChecksumTableOps::insert`] through their [`crate::LpBlockSession`]. A
/// clone forks the counters and the cuckoo hash seeds.
#[derive(Debug, Clone)]
pub struct ChecksumTable {
    base: Addr,
    tables: u64,
    entries: u64,
    arity: usize,
    /// Key-tag words per entry: 1 in a hash table, 0 in the array.
    tag_words: u64,
    lock: LockPolicy,
    atomic: AtomicPolicy,
    /// The global spin lock's word (hash tables only).
    lock_word: Option<Addr>,
    stats: Cell<TableStats>,
    org: Org,
}

impl ChecksumTable {
    /// Allocates a `kind` table for keys `0..capacity` with `arity`
    /// checksums each, in `mem`: the entries (both cuckoo tables back to
    /// back), then a hash table's lock word. `seed` seeds the hash
    /// functions.
    ///
    /// # Panics
    ///
    /// Panics if `kind`'s load factor is not in `(0, 1]`, or `capacity` or
    /// `arity` is zero.
    pub fn create(
        mem: &mut PersistMemory,
        kind: TableKind,
        capacity: u64,
        arity: usize,
        lock: LockPolicy,
        atomic: AtomicPolicy,
        seed: u64,
    ) -> Self {
        assert!(capacity > 0 && arity > 0, "empty table");
        let slots = |load_factor: f64| {
            assert!(
                load_factor > 0.0 && load_factor <= 1.0,
                "load factor out of range"
            );
            ((capacity as f64 / load_factor).ceil() as u64).max(capacity)
        };
        let (tables, entries, org) = match kind {
            // Power-of-two sizing + triangular probing guarantees the probe
            // sequence visits every slot exactly once, so a non-full table
            // can never spuriously report "full".
            TableKind::QuadraticProbing { load_factor } => (
                1,
                slots(load_factor).next_power_of_two(),
                Org::Quad { seed },
            ),
            TableKind::Cuckoo {
                load_factor,
                max_displacements,
            } => {
                let first = [seed, seed ^ 0x5DEE_CE66];
                let org = Org::Cuckoo {
                    first,
                    seeds: Cell::new(first),
                    max_displacements,
                };
                (2, slots(load_factor).div_ceil(2).max(1), org)
            }
            TableKind::GlobalArray => (1, capacity, Org::Array),
        };
        let tag_words = u64::from(!matches!(org, Org::Array));
        let base = mem.alloc(tables * entries * 8 * (tag_words + arity as u64), 8);
        let lock_word = (tag_words == 1).then(|| mem.alloc(8, 8));
        Self {
            base,
            tables,
            entries,
            arity,
            tag_words,
            lock,
            atomic,
            lock_word,
            stats: Cell::new(TableStats::default()),
            org,
        }
    }

    /// Device address of `key`'s entry, when the organisation can name it
    /// without probing (only the global array can).
    pub fn entry_addr(&self, key: u64) -> Option<Addr> {
        matches!(self.org, Org::Array).then(|| self.array_slot(key))
    }

    /// Byte ranges `(base, len)` of device memory backing the table (each
    /// entry array, then any lock word). Crash-loss oracles use these to
    /// tell table lines apart from workload data lines.
    pub fn storage_ranges(&self) -> Vec<(u64, u64)> {
        let len = self.entries * self.stride();
        (0..self.tables)
            .map(|t| (self.slot(t, 0).raw(), len))
            .chain(self.lock_word.map(|w| (w.raw(), 8)))
            .collect()
    }

    fn stride(&self) -> u64 {
        8 * (self.tag_words + self.arity as u64)
    }

    /// Address of entry `idx` of entry array `table` (its key tag in a hash
    /// table).
    fn slot(&self, table: u64, idx: u64) -> Addr {
        self.base.index(table * self.entries + idx, self.stride())
    }

    fn array_slot(&self, key: u64) -> Addr {
        assert!(key < self.entries, "key {key} outside global array");
        self.slot(0, key)
    }

    /// Address of checksum word `c` of the entry at `slot`.
    fn word(&self, slot: Addr, c: usize) -> Addr {
        slot.offset(8 * (self.tag_words + c as u64))
    }

    fn read_checksums(&self, ctx: &mut BlockCtx<'_>, slot: Addr) -> Vec<u64> {
        (0..self.arity)
            .map(|c| ctx.load_u64(self.word(slot, c)))
            .collect()
    }

    fn write_checksums(&self, ctx: &mut BlockCtx<'_>, slot: Addr, checksums: &[u64]) {
        for (c, &v) in checksums.iter().enumerate() {
            ctx.store_u64(self.word(slot, c), v);
        }
    }

    fn count(&self, bump: impl FnOnce(&mut TableStats)) {
        let mut stats = self.stats.get();
        bump(&mut stats);
        self.stats.set(stats);
    }

    /// Quadratic probing's probe sequence for a key of hash `h`:
    /// `h + i(i+1)/2 (mod entries)`, a full permutation of a power-of-two
    /// table.
    fn quad_slot(&self, h: u64, i: u64) -> Addr {
        self.slot(0, h.wrapping_add(i * (i + 1) / 2) % self.entries)
    }

    /// `key`'s candidate slot in cuckoo table `table` under `seeds`.
    fn cuckoo_slot(&self, seeds: &Cell<[u64; 2]>, table: u64, key: u64) -> Addr {
        let seed = seeds.get()[table as usize];
        self.slot(table, hash_with_seed(key, seed) % self.entries)
    }

    /// Claims an entry for `key` and writes `checksums` into it, by the
    /// organisation's rule.
    fn claim(&self, ctx: &mut BlockCtx<'_>, key: u64, checksums: &[u64]) {
        match &self.org {
            Org::Quad { seed } => self.quad_insert(ctx, *seed, key, checksums),
            Org::Cuckoo {
                seeds,
                max_displacements,
                ..
            } => self.cuckoo_insert(ctx, seeds, *max_displacements, key, checksums),
            Org::Array => {
                // Every block writes its own entry: no atomics, no races.
                self.write_checksums(ctx, self.array_slot(key), checksums);
                self.count(|s| s.inserts += 1);
            }
        }
    }

    /// Probes until a slot's key tag is claimed by `atomicCAS` (or the racy
    /// emulation), then writes the checksums with plain stores: the entry
    /// belongs to this block once its tag is claimed. Table II counts the
    /// probes beyond the first as `collisions`.
    fn quad_insert(&self, ctx: &mut BlockCtx<'_>, seed: u64, key: u64, checksums: &[u64]) {
        let tag = key + 1;
        let h = hash_with_seed(key, seed);
        ctx.charge_alu(HASH_ALU_OPS);
        for i in 0..self.entries {
            let slot = self.quad_slot(h, i);
            let old = self.claim_tag(ctx, seed, slot, tag);
            if old == EMPTY_TAG || old == tag {
                // Claimed, or re-inserting the same region after recovery:
                // publish the checksums.
                self.write_checksums(ctx, slot, checksums);
                self.count(|s| s.inserts += 1);
                return;
            }
            self.count(|s| s.collisions += 1);
            ctx.charge_alu(2); // next-index arithmetic
        }
        panic!("quadratic-probing table is full (capacity misconfigured)");
    }

    /// Claims the slot's key tag, returning the tag observed before the
    /// claim attempt (EMPTY on success).
    fn claim_tag(&self, ctx: &mut BlockCtx<'_>, seed: u64, slot: Addr, tag: u64) -> u64 {
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
                let draw = hash_with_seed(tag ^ slot.raw(), seed ^ 0xACE1) % self.entries;
                if draw < concurrency.saturating_sub(1) / 32 {
                    self.count(|s| s.racy_conflicts += 1);
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

    /// Standard two-table cuckoo insertion: the key always lands (by
    /// `atomicExch` on its tag), and the displaced previous occupant moves to
    /// the *other* table, possibly displacing again. A chain longer than
    /// `max_displacements` signals a cycle and triggers a rehash.
    fn cuckoo_insert(
        &self,
        ctx: &mut BlockCtx<'_>,
        seeds: &Cell<[u64; 2]>,
        max_displacements: u32,
        key: u64,
        checksums: &[u64],
    ) {
        // Update-in-place first: a key re-published by recovery may already
        // live in either table, and blindly exchanging into table 0 would
        // create a duplicate whose stale copy could win later (e.g. after a
        // rehash). Two probes, same as a lookup.
        let mut tag = key + 1;
        for table in 0..2 {
            let slot = self.cuckoo_slot(seeds, table, key);
            ctx.charge_alu(HASH_ALU_OPS);
            if ctx.load_u64(slot) == tag {
                self.write_checksums(ctx, slot, checksums);
                self.count(|s| s.inserts += 1);
                return;
            }
        }
        let mut cs = checksums.to_vec();
        let mut table = 0;
        for _ in 0..max_displacements {
            ctx.charge_alu(HASH_ALU_OPS);
            let slot = self.cuckoo_slot(seeds, table, tag - 1);
            // Read the previous occupant's checksums *before* overwriting.
            let displaced = self.read_checksums(ctx, slot);
            let old = self.exchange_tag(ctx, seeds.get()[0], slot, tag);
            self.write_checksums(ctx, slot, &cs);
            if old == EMPTY_TAG || old == tag {
                self.count(|s| s.inserts += 1);
                return;
            }
            // Evicted someone: carry them to the other table.
            self.count(|s| s.collisions += 1);
            (tag, cs, table) = (old, displaced, table ^ 1);
        }
        // Cycle: rehash with fresh seeds and retry (paper's fallback).
        self.rehash(ctx, seeds, max_displacements);
        self.cuckoo_insert(ctx, seeds, max_displacements, tag - 1, &cs);
    }

    /// Swaps the key tag at `slot` for `tag`, returning the previous tag.
    fn exchange_tag(&self, ctx: &mut BlockCtx<'_>, seed: u64, slot: Addr, tag: u64) -> u64 {
        match self.atomic {
            AtomicPolicy::Atomic => ctx.atomic_exch_u64(slot, tag),
            AtomicPolicy::Racy => {
                // Temporary-variable swap (load + store) plus a verification
                // read, as §IV-D3's no-atomics variant does. The extra
                // round-trips are the cost; the displaced value can also be
                // corrupted by a concurrent racer, which we model as a
                // conflict event that forces a retry of the exchange. No
                // check that the verification read sees `tag`: after an
                // injected crash point stores are dropped, so it can
                // legitimately see the old value (the data is lost either
                // way; recovery re-executes).
                let old = ctx.load_u64(slot);
                ctx.store_u64(slot, tag);
                let _verify = ctx.load_u64(slot);
                // Dependent same-line round-trips occupy the partition like
                // atomics (see §IV-D3's finding).
                ctx.charge_channel(slot, 3);
                let concurrency = ctx.concurrency();
                let draw = hash_with_seed(tag ^ slot.raw(), seed ^ 0x51CA) % self.entries;
                if draw < concurrency.saturating_sub(1) / 64 {
                    self.count(|s| s.racy_conflicts += 1);
                    ctx.charge_alu(16 * concurrency);
                    // Redo the exchange after losing the race. The slot
                    // held `old` before this block's first store, so `old`
                    // is still the occupant it displaced.
                    let _ = ctx.load_u64(slot);
                    ctx.store_u64(slot, tag);
                    let _ = ctx.load_u64(slot);
                }
                old
            }
        }
    }

    /// Rebuilds both cuckoo tables with new hash seeds, re-inserting every
    /// resident entry. Expensive but rare; counted in
    /// [`TableStats::rehashes`].
    fn rehash(&self, ctx: &mut BlockCtx<'_>, seeds: &Cell<[u64; 2]>, max_displacements: u32) {
        self.count(|s| s.rehashes += 1);
        let mut resident = Vec::new();
        for table in 0..2 {
            for idx in 0..self.entries {
                let slot = self.slot(table, idx);
                let tag = ctx.load_u64(slot);
                if tag != EMPTY_TAG {
                    resident.push((tag, self.read_checksums(ctx, slot)));
                    ctx.store_u64(slot, EMPTY_TAG);
                }
            }
        }
        // New seed pair derived from the old one.
        let [s1, s2] = seeds.get();
        seeds.set([hash_with_seed(s1, 0xF00D), hash_with_seed(s2, 0xFEED)]);
        for (tag, cs) in resident {
            self.cuckoo_insert(ctx, seeds, max_displacements, tag - 1, &cs);
        }
    }

    /// Hands `f` each checksum word `(c, word)` of `key`'s entry in the
    /// memory image; `false` when the key was never (durably) inserted.
    fn read_entry(&self, mem: &mut PersistMemory, key: u64, mut f: impl FnMut(usize, u64)) -> bool {
        let tag = key + 1;
        let slot = match &self.org {
            // Walk the insert's probe sequence up to the first empty slot.
            Org::Quad { seed } => {
                let h = hash_with_seed(key, *seed);
                (0..self.entries)
                    .map(|i| self.quad_slot(h, i))
                    .map(|slot| (slot, mem.read_u64(slot)))
                    .take_while(|&(_, t)| t != EMPTY_TAG)
                    .find(|&(_, t)| t == tag)
                    .map(|(slot, _)| slot)
            }
            // One probe per table, wherever displacement moved the key.
            Org::Cuckoo { seeds, .. } => (0..2)
                .map(|table| self.cuckoo_slot(seeds, table, key))
                .find(|&slot| mem.read_u64(slot) == tag),
            Org::Array => (key < self.entries).then(|| self.slot(0, key)),
        };
        let Some(slot) = slot else { return false };
        for c in 0..self.arity {
            f(c, mem.read_u64(self.word(slot, c)));
        }
        true
    }

    /// Whether `key`'s entry holds exactly `checksums`. Reads what `lookup`
    /// reads, every word even past a mismatch, whatever the verdict.
    pub(crate) fn holds(&self, mem: &mut PersistMemory, key: u64, checksums: &[u64]) -> bool {
        let mut equal = checksums.len() == self.arity;
        let found = self.read_entry(mem, key, |c, word| equal &= checksums.get(c) == Some(&word));
        found && equal
    }
}

impl ChecksumTableOps for ChecksumTable {
    fn insert(&self, ctx: &mut BlockCtx<'_>, key: u64, checksums: &[u64]) {
        assert_eq!(checksums.len(), self.arity, "checksum arity mismatch");
        let lock = self
            .lock_word
            .filter(|_| self.lock == LockPolicy::GlobalLock);
        if let Some(word) = lock {
            ctx.lock_global(word);
        }
        self.claim(ctx, key, checksums);
        if let Some(word) = lock {
            ctx.unlock_global(word);
        }
    }

    fn lookup(&self, mem: &mut PersistMemory, key: u64) -> Option<Vec<u64>> {
        let mut checksums = Vec::with_capacity(self.arity);
        self.read_entry(mem, key, |_, word| checksums.push(word))
            .then_some(checksums)
    }

    fn reset(&self, mem: &mut PersistMemory) {
        let zeros = vec![0u8; (self.entries * self.stride()) as usize];
        for table in 0..self.tables {
            mem.write_bytes(self.slot(table, 0), &zeros);
        }
        if let Some(word) = self.lock_word {
            mem.write_u64(word, 0);
        }
        self.stats.set(TableStats::default());
        // A fresh epoch hashes as a fresh table does.
        if let Org::Cuckoo { first, seeds, .. } = &self.org {
            seeds.set(*first);
        }
    }

    fn size_bytes(&self) -> u64 {
        self.tables * self.entries * self.stride() + 8 * u64::from(self.lock_word.is_some())
    }

    fn stats(&self) -> TableStats {
        self.stats.get()
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    use nvm::{NvmConfig, PersistMemory};
    use simt::{DeviceConfig, DeviceState, Dim3, LaunchConfig};

    /// Builds the plumbing needed to run table code outside a full launch.
    pub struct Rig {
        pub mem: PersistMemory,
        pub dev: DeviceState,
        pub cfg: DeviceConfig,
        pub lc: LaunchConfig,
    }

    impl Rig {
        pub fn new() -> Self {
            let cfg = DeviceConfig::test_gpu();
            let mem = PersistMemory::new(NvmConfig::default());
            let dev = DeviceState::new(&cfg, 64, 128);
            let lc = LaunchConfig {
                grid: Dim3::x(64),
                block: Dim3::x(64),
            };
            Rig { mem, dev, cfg, lc }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::testutil::Rig;
    use super::*;

    const QUAD: TableKind = TableKind::QuadraticProbing { load_factor: 0.65 };
    const ARRAY: TableKind = TableKind::GlobalArray;

    fn cuckoo(load_factor: f64) -> TableKind {
        TableKind::Cuckoo {
            load_factor,
            max_displacements: 32,
        }
    }

    /// A lock-free, atomic table of `arity` 2.
    fn table(rig: &mut Rig, kind: TableKind, cap: u64, seed: u64) -> ChecksumTable {
        let (lock, atomic) = (LockPolicy::LockFree, AtomicPolicy::Atomic);
        ChecksumTable::create(&mut rig.mem, kind, cap, 2, lock, atomic, seed)
    }

    /// Inserts `checksums(key)` for every key from one block.
    fn fill(rig: &mut Rig, t: &ChecksumTable, keys: std::ops::Range<u64>, cs: fn(u64) -> [u64; 2]) {
        let mut ctx = simt::BlockCtx::standalone(rig.lc, 0, &mut rig.mem, &mut rig.dev, &rig.cfg);
        for key in keys {
            t.insert(&mut ctx, key, &cs(key));
        }
        let _ = ctx.into_cost();
    }

    #[test]
    fn every_organisation_roundtrips() {
        for (kind, seed) in [(QUAD, 0xBEEF), (cuckoo(0.45), 0xC0FFEE), (ARRAY, 0)] {
            let mut rig = Rig::new();
            let t = table(&mut rig, kind, 64, seed);
            fill(&mut rig, &t, 0..64, |k| [k * 3, k ^ 0xFF]);
            for key in 0..64u64 {
                let got = t.lookup(&mut rig.mem, key);
                assert_eq!(got, Some(vec![key * 3, key ^ 0xFF]), "{kind:?} key {key}");
            }
            assert_eq!(t.stats().inserts, 64, "{kind:?}");
        }
    }

    #[test]
    fn holds_reads_what_lookup_reads_whatever_the_verdict() {
        // The recovery compare books exactly the lookup's accesses, so the
        // simulated stream does not depend on the verdict or on where a
        // mismatch sits.
        for (kind, seed) in [(QUAD, 0xBEEF), (cuckoo(0.45), 0xC0FFEE), (ARRAY, 0)] {
            let mut rig = Rig::new();
            let t = table(&mut rig, kind, 64, seed);
            fill(&mut rig, &t, 0..32, |k| [k * 3, k ^ 0xFF]);
            for key in [5u64, 40] {
                let cases = [
                    (vec![key * 3, key ^ 0xFF], key < 32),
                    (vec![key * 3 + 1, key ^ 0xFF], false),
                    (vec![key * 3, key ^ 0xFE], false),
                    (vec![key * 3], false),
                ];
                for (checksums, verdict) in cases {
                    let (mut looked, mut held) = (rig.mem.clone(), rig.mem.clone());
                    t.lookup(&mut looked, key);
                    let what = format!("{kind:?} key {key} {checksums:?}");
                    assert_eq!(t.holds(&mut held, key, &checksums), verdict, "{what}");
                    assert_eq!(held.stats(), looked.stats(), "{what}");
                }
            }
        }
    }

    #[test]
    fn missing_key_is_none() {
        let mut rig = Rig::new();
        assert_eq!(table(&mut rig, QUAD, 64, 1).lookup(&mut rig.mem, 7), None);
        let t = table(&mut rig, cuckoo(0.45), 32, 1);
        assert_eq!(t.lookup(&mut rig.mem, 31), None);
        let t = ChecksumTable::create(
            &mut rig.mem,
            ARRAY,
            8,
            1,
            LockPolicy::LockFree,
            AtomicPolicy::Atomic,
            0,
        );
        assert_eq!(t.lookup(&mut rig.mem, 8), None, "outside the array");
    }

    #[test]
    fn reinsert_overwrites() {
        for kind in [QUAD, cuckoo(0.45), ARRAY] {
            let mut rig = Rig::new();
            let t = table(&mut rig, kind, 16, 5);
            fill(&mut rig, &t, 5..6, |_| [1, 2]);
            fill(&mut rig, &t, 5..6, |_| [9, 10]); // recovery re-publishes
            assert_eq!(t.lookup(&mut rig.mem, 5), Some(vec![9, 10]), "{kind:?}");
        }
    }

    #[test]
    fn quad_collisions_counted_when_table_tight() {
        let mut rig = Rig::new();
        // 100 % load factor forces plenty of collisions.
        let full = TableKind::QuadraticProbing { load_factor: 1.0 };
        let t = table(&mut rig, full, 64, 1);
        fill(&mut rig, &t, 0..64, |k| [k, k]);
        assert!(t.stats().collisions > 0);
        assert_eq!(t.stats().inserts, 64);
        // All keys still retrievable despite collisions.
        for key in 0..64u64 {
            assert!(t.lookup(&mut rig.mem, key).is_some());
        }
    }

    #[test]
    fn cuckoo_displacements_preserve_evicted_checksums() {
        let mut rig = Rig::new();
        // Tight table: displacement chains guaranteed.
        let t = table(&mut rig, cuckoo(0.95), 64, 0xC0FFEE);
        fill(&mut rig, &t, 0..60, |k| [k + 100, k + 200]);
        assert!(t.stats().collisions > 0, "expected displacements");
        for key in 0..60u64 {
            let got = t.lookup(&mut rig.mem, key);
            assert_eq!(got, Some(vec![key + 100, key + 200]), "key {key}");
        }
    }

    /// A cuckoo table so tight that filling it rehashes.
    fn rehashing(rig: &mut Rig) -> ChecksumTable {
        let kind = TableKind::Cuckoo {
            load_factor: 0.98,
            max_displacements: 4,
        };
        table(rig, kind, 128, 7)
    }

    #[test]
    fn cuckoo_rehash_keeps_all_keys() {
        let mut rig = Rig::new();
        let t = rehashing(&mut rig);
        fill(&mut rig, &t, 0..100, |k| [k, !k]);
        assert!(t.stats().rehashes > 0, "expected a rehash");
        for key in 0..100u64 {
            assert_eq!(
                t.lookup(&mut rig.mem, key),
                Some(vec![key, !key]),
                "key {key}"
            );
        }
    }

    /// The bytes of `t`'s storage.
    fn image(rig: &mut Rig, t: &ChecksumTable) -> Vec<u8> {
        let mut bytes = Vec::new();
        for (base, len) in t.storage_ranges() {
            let mut range = vec![0; len as usize];
            rig.mem.read_bytes(Addr::new(base), &mut range);
            bytes.extend(range);
        }
        bytes
    }

    #[test]
    fn a_reset_cuckoo_table_refills_as_a_fresh_one() {
        // Filling rehashes, which moves the hash seeds. A reset that kept
        // them would refill from where the last rehash left off.
        let mut rig = Rig::new();
        let t = rehashing(&mut rig);
        fill(&mut rig, &t, 0..64, |k| [k, !k]);
        let fresh = (t.stats(), image(&mut rig, &t));
        assert!(fresh.0.rehashes > 0, "{:?}", fresh.0);
        t.reset(&mut rig.mem);
        fill(&mut rig, &t, 0..64, |k| [k, !k]);
        assert!(t.stats() == fresh.0 && image(&mut rig, &t) == fresh.1);
    }

    #[test]
    fn reset_clears_storage_and_stats() {
        for kind in [QUAD, cuckoo(0.45), ARRAY] {
            let mut rig = Rig::new();
            let t = table(&mut rig, kind, 16, 3);
            fill(&mut rig, &t, 3..4, |_| [7, 8]);
            t.reset(&mut rig.mem);
            // The array has no tags: its reset entry reads back as zeros.
            let want = (kind == ARRAY).then(|| vec![0, 0]);
            assert_eq!(t.lookup(&mut rig.mem, 3), want, "{kind:?}");
            assert_eq!(t.stats(), TableStats::default(), "{kind:?}");
        }
    }

    #[test]
    fn lock_based_accumulates_serial_time() {
        let mut rig = Rig::new();
        let (lock, atomic) = (LockPolicy::GlobalLock, AtomicPolicy::Atomic);
        let t = ChecksumTable::create(&mut rig.mem, QUAD, 16, 2, lock, atomic, 1);
        fill(&mut rig, &t, 1..2, |_| [1, 1]);
        assert!(
            rig.dev.lock_serial_ns > 0.0,
            "global-lock insert must serialise"
        );
    }

    #[test]
    fn size_accounts_for_arity_tags_and_lock() {
        let mut rig = Rig::new();
        let (lock, atomic) = (LockPolicy::LockFree, AtomicPolicy::Atomic);
        let full = TableKind::QuadraticProbing { load_factor: 1.0 };
        let t1 = ChecksumTable::create(&mut rig.mem, full, 64, 1, lock, atomic, 1);
        let t2 = ChecksumTable::create(&mut rig.mem, full, 64, 2, lock, atomic, 1);
        assert_eq!(t1.size_bytes(), 64 * 16 + 8, "tag + checksum, lock word");
        assert_eq!(t2.size_bytes(), 64 * 24 + 8);
        // Global array: 100 % load factor, no tags, no lock — no padding.
        let arr = ChecksumTable::create(&mut rig.mem, ARRAY, 1000, 2, lock, atomic, 0);
        assert_eq!(arr.size_bytes(), 1000 * 16);
        assert_eq!(arr.storage_ranges().len(), 1);
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn wrong_arity_panics() {
        let mut rig = Rig::new();
        let t = table(&mut rig, QUAD, 16, 1);
        let mut ctx = simt::BlockCtx::standalone(rig.lc, 0, &mut rig.mem, &mut rig.dev, &rig.cfg);
        t.insert(&mut ctx, 1, &[1]);
    }

    #[test]
    fn cuckoo_lookup_probes_two_slots() {
        // Lookup inspects exactly the two candidate slots, regardless of
        // how the key got displaced there — constant-time lookup (§IV-C).
        let mut rig = Rig::new();
        let t = table(&mut rig, cuckoo(0.5), 64, 0xC0FFEE);
        fill(&mut rig, &t, 0..64, |k| [k, k]);
        let before = rig.mem.stats().load_ops;
        t.lookup(&mut rig.mem, 5);
        let loads = rig.mem.stats().load_ops - before;
        assert!(loads <= 2 + 2 * 2, "cuckoo lookup probed too much: {loads}");
    }

    #[test]
    fn global_array_issues_no_atomics() {
        let mut rig = Rig::new();
        let t = table(&mut rig, ARRAY, 64, 0);
        let mut ctx = simt::BlockCtx::standalone(rig.lc, 0, &mut rig.mem, &mut rig.dev, &rig.cfg);
        for key in 0..64u64 {
            t.insert(&mut ctx, key, &[1, 2]);
        }
        let cost = ctx.into_cost();
        assert_eq!(cost.atomic_ops, 0, "global array must be atomic-free");
        assert_eq!(t.stats().collisions, 0);
        assert_eq!(t.entry_addr(3), Some(t.slot(0, 3)));
    }

    #[test]
    #[should_panic(expected = "outside global array")]
    fn out_of_range_array_insert_panics() {
        let mut rig = Rig::new();
        let t = table(&mut rig, ARRAY, 8, 0);
        fill(&mut rig, &t, 8..9, |_| [1, 1]);
    }
}
