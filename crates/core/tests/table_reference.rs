//! The three checksum-table types as they were before they became one
//! [`ChecksumTable`], kept as the reference the one table must equal. Both
//! are driven with the same keys and checksums — re-inserts, interleaved
//! resets, and lookups of present and absent keys — on a test-GPU rig and on
//! a V100-concurrency rig (where the racy model's lost races happen), and
//! after every operation both leave the same memory image and `NvmStats`,
//! the same block cost and device lock/contention state, and the same
//! counters, lookups, sizes, storage ranges and entry addresses. A panic
//! (a full quadratic-probing table) must happen at the same operation with
//! the same message.
//!
//! The reference is verbatim but for three things. Its trait impls are left
//! out. Its functions are `pub(crate)`: they are this test's, not an API.
//! And it shares two fixes with the one table: a lost race in the racy
//! cuckoo exchange returns the occupant the exchange displaced, not the
//! block's own tag; and a cuckoo reset restores the hash seeds the table was
//! created with.

use gpu_lp::table::{AtomicPolicy, ChecksumTable, ChecksumTableOps, LockPolicy, TableKind};
use gpu_lp::TableStats;
use nvm::{Addr, NvmConfig, NvmStats, PersistMemory};
use proptest::prelude::*;
use simt::{BlockCost, BlockCtx, DeviceConfig, DeviceState, LaunchConfig};
use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};

// The reference tables (their unit tests left out).
mod reference {
    #![allow(dead_code, clippy::too_many_arguments)]

    use gpu_lp::table::{hash_with_seed, AtomicPolicy, LockPolicy};
    use nvm::{Addr, PersistMemory};
    use simt::BlockCtx;
    use std::cell::Cell;

    // ---- mod.rs (the shared parts the three used) -----------------------

    pub const HASH_ALU_OPS: u64 = 6;

    /// Key tag stored for an empty slot. Keys are stored as `key + 1` so block
    /// ID 0 is representable.
    pub const EMPTY_TAG: u64 = 0;

    /// Host-side instrumentation counters (not part of the timing model).
    #[derive(Debug, Clone, Default)]
    pub struct TableStats {
        /// Probes/displacements beyond the first slot attempt.
        pub collisions: Cell<u64>,
        /// Completed insertions.
        pub inserts: Cell<u64>,
        /// Cuckoo rehash events.
        pub rehashes: Cell<u64>,
        /// Retries forced by lost races under [`AtomicPolicy::Racy`].
        pub racy_conflicts: Cell<u64>,
    }

    impl TableStats {
        /// Copies the counters into the plain counters the new table keeps.
        pub(crate) fn snapshot(&self) -> gpu_lp::TableStats {
            gpu_lp::TableStats {
                collisions: self.collisions.get(),
                inserts: self.inserts.get(),
                rehashes: self.rehashes.get(),
                racy_conflicts: self.racy_conflicts.get(),
            }
        }

        /// Zeroes every counter.
        pub(crate) fn reset(&self) {
            self.collisions.set(0);
            self.inserts.set(0);
            self.rehashes.set(0);
            self.racy_conflicts.set(0);
        }
    }

    /// Entry layout shared by the hash tables: one key-tag word followed by
    /// `arity` checksum words.
    pub(crate) fn entry_stride(arity: usize) -> u64 {
        8 * (1 + arity as u64)
    }

    /// Address of entry `idx`'s key tag.
    pub(crate) fn entry_addr(base: Addr, idx: u64, arity: usize) -> Addr {
        base.index(idx, entry_stride(arity))
    }

    /// A concrete checksum table bound to device memory.
    #[derive(Debug, Clone)]
    pub enum TableInstance {
        /// Quadratic-probing open addressing.
        Quad(QuadraticProbeTable),
        /// Two-table cuckoo hashing.
        Cuckoo(CuckooTable),
        /// Flat per-block array (§V).
        Array(GlobalArrayTable),
    }

    impl TableInstance {
        /// Device address of `key`'s entry, when the organisation can name it
        /// without probing (only the global array can).
        pub(crate) fn entry_addr(&self, key: u64) -> Option<Addr> {
            match self {
                TableInstance::Array(t) => Some(t.entry_addr(key)),
                _ => None,
            }
        }

        pub(crate) fn storage_ranges(&self) -> Vec<(u64, u64)> {
            match self {
                TableInstance::Quad(t) => t.storage_ranges(),
                TableInstance::Cuckoo(t) => t.storage_ranges(),
                TableInstance::Array(t) => t.storage_ranges(),
            }
        }

        pub(crate) fn stats(&self) -> &TableStats {
            match self {
                TableInstance::Quad(t) => t.stats(),
                TableInstance::Cuckoo(t) => t.stats(),
                TableInstance::Array(t) => t.stats(),
            }
        }

        pub(crate) fn insert(&self, ctx: &mut BlockCtx<'_>, key: u64, checksums: &[u64]) {
            match self {
                TableInstance::Quad(t) => t.insert(ctx, key, checksums),
                TableInstance::Cuckoo(t) => t.insert(ctx, key, checksums),
                TableInstance::Array(t) => t.insert(ctx, key, checksums),
            }
        }

        pub(crate) fn lookup(&self, mem: &mut PersistMemory, key: u64) -> Option<Vec<u64>> {
            match self {
                TableInstance::Quad(t) => t.lookup(mem, key),
                TableInstance::Cuckoo(t) => t.lookup(mem, key),
                TableInstance::Array(t) => t.lookup(mem, key),
            }
        }

        pub(crate) fn reset(&self, mem: &mut PersistMemory) {
            match self {
                TableInstance::Quad(t) => t.reset(mem),
                TableInstance::Cuckoo(t) => t.reset(mem),
                TableInstance::Array(t) => t.reset(mem),
            }
        }

        pub(crate) fn size_bytes(&self) -> u64 {
            match self {
                TableInstance::Quad(t) => t.size_bytes(),
                TableInstance::Cuckoo(t) => t.size_bytes(),
                TableInstance::Array(t) => t.size_bytes(),
            }
        }
    }

    // ---- quad.rs ---------------------------------------------------------------

    // Quadratic-probing open-addressing checksum table (§IV-C, Fig. 3 right).

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
        pub(crate) fn create(
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
            let stride = entry_stride(arity);
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
        pub(crate) fn entries(&self) -> u64 {
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
            let stride = entry_stride(self.arity);
            let zeros = vec![0u8; (self.entries * stride) as usize];
            mem.write_bytes(self.base, &zeros);
            mem.write_u64(self.lock_addr, 0);
            self.stats.reset();
        }

        pub(crate) fn size_bytes(&self) -> u64 {
            self.entries * entry_stride(self.arity) + 8
        }

        pub(crate) fn storage_ranges(&self) -> Vec<(u64, u64)> {
            vec![
                (self.base.raw(), self.entries * entry_stride(self.arity)),
                (self.lock_addr.raw(), 8),
            ]
        }

        pub(crate) fn stats(&self) -> &TableStats {
            &self.stats
        }
    }

    // ---- cuckoo.rs -------------------------------------------------------------

    // Two-table cuckoo-hashing checksum table (§IV-C, Fig. 4).

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
        first_seeds: [u64; 2],
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
        pub(crate) fn create(
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
            let stride = entry_stride(arity);
            let t1 = mem.alloc(entries_per_table * stride, 8);
            let t2 = mem.alloc(entries_per_table * stride, 8);
            let lock_addr = mem.alloc(8, 8);
            Self {
                bases: [t1, t2],
                entries_per_table,
                arity,
                seeds: Cell::new([seed, seed ^ 0x5DEE_CE66]),
                first_seeds: [seed, seed ^ 0x5DEE_CE66],
                max_displacements,
                lock,
                atomic,
                lock_addr,
                stats: TableStats::default(),
            }
        }

        /// Slots per sub-table.
        pub(crate) fn entries_per_table(&self) -> u64 {
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
                        let _ = ctx.load_u64(slot);
                        ctx.store_u64(slot, tag);
                        let _ = ctx.load_u64(slot);
                        return old;
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
            let stride = entry_stride(self.arity);
            let zeros = vec![0u8; (self.entries_per_table * stride) as usize];
            for base in self.bases {
                mem.write_bytes(base, &zeros);
            }
            mem.write_u64(self.lock_addr, 0);
            self.stats.reset();
            self.seeds.set(self.first_seeds);
        }

        pub(crate) fn size_bytes(&self) -> u64 {
            2 * self.entries_per_table * entry_stride(self.arity) + 8
        }

        pub(crate) fn storage_ranges(&self) -> Vec<(u64, u64)> {
            let per = self.entries_per_table * entry_stride(self.arity);
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

    // ---- array.rs --------------------------------------------------------------

    // The checksum **global array** (§V) — the paper's scalable, hash-table-less
    // design.

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
        pub(crate) fn create(mem: &mut PersistMemory, capacity: u64, arity: usize) -> Self {
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
        pub(crate) fn entries(&self) -> u64 {
            self.entries
        }

        /// Device address of `key`'s entry (used by the eager baseline to
        /// flush its commit token).
        pub(crate) fn entry_addr(&self, key: u64) -> Addr {
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
}

use reference::{CuckooTable, GlobalArrayTable, QuadraticProbeTable, TableInstance};

/// What the comparison can see of a table, through either API.
trait Table {
    fn put(&self, ctx: &mut BlockCtx<'_>, key: u64, checksums: &[u64]);
    fn get(&self, mem: &mut PersistMemory, key: u64) -> Option<Vec<u64>>;
    fn clear(&self, mem: &mut PersistMemory);
    /// Counters, size, storage ranges and the entry addresses of `keys`.
    fn facts(&self, keys: u64) -> Facts;
}

#[derive(Debug, PartialEq)]
struct Facts {
    stats: TableStats,
    size_bytes: u64,
    ranges: Vec<(u64, u64)>,
    entry_addrs: Vec<Option<Addr>>,
}

impl Table for TableInstance {
    fn put(&self, ctx: &mut BlockCtx<'_>, key: u64, checksums: &[u64]) {
        self.insert(ctx, key, checksums);
    }
    fn get(&self, mem: &mut PersistMemory, key: u64) -> Option<Vec<u64>> {
        self.lookup(mem, key)
    }
    fn clear(&self, mem: &mut PersistMemory) {
        self.reset(mem);
    }
    fn facts(&self, keys: u64) -> Facts {
        Facts {
            stats: self.stats().snapshot(),
            size_bytes: self.size_bytes(),
            ranges: self.storage_ranges(),
            entry_addrs: (0..keys).map(|k| self.entry_addr(k)).collect(),
        }
    }
}

impl Table for ChecksumTable {
    fn put(&self, ctx: &mut BlockCtx<'_>, key: u64, checksums: &[u64]) {
        self.insert(ctx, key, checksums);
    }
    fn get(&self, mem: &mut PersistMemory, key: u64) -> Option<Vec<u64>> {
        self.lookup(mem, key)
    }
    fn clear(&self, mem: &mut PersistMemory) {
        self.reset(mem);
    }
    fn facts(&self, keys: u64) -> Facts {
        Facts {
            stats: self.stats(),
            size_bytes: self.size_bytes(),
            ranges: self.storage_ranges(),
            entry_addrs: (0..keys).map(|k| self.entry_addr(k)).collect(),
        }
    }
}

/// A table configuration and the machine it runs on.
#[derive(Debug, Clone, Copy)]
struct Case {
    kind: TableKind,
    capacity: u64,
    arity: usize,
    lock: LockPolicy,
    atomic: AtomicPolicy,
    seed: u64,
    /// The V100's concurrency (2 560 blocks), else the test GPU's (≤ 32).
    v100: bool,
}

/// One step of a case.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Block `key` publishes the checksums of `version`.
    Insert {
        key: u64,
        version: u64,
    },
    Lookup(u64),
    Reset,
}

/// Memory, device state and a table: one side of the comparison.
struct World<T> {
    mem: PersistMemory,
    dev: DeviceState,
    cfg: DeviceConfig,
    lc: LaunchConfig,
    table: T,
}

impl<T: Table> World<T> {
    fn new(case: &Case, create: impl FnOnce(&mut PersistMemory) -> T) -> Self {
        // A 2 KiB cache, so inserts evict and the durable image moves too.
        let mut mem = PersistMemory::new(NvmConfig {
            cache_lines: 16,
            associativity: 4,
            ..NvmConfig::default()
        });
        let table = create(&mut mem);
        let (cfg, grid) = if case.v100 {
            (DeviceConfig::v100(), 4096)
        } else {
            (DeviceConfig::test_gpu(), case.capacity)
        };
        World {
            dev: DeviceState::new(&cfg, grid, 128),
            lc: LaunchConfig::linear(grid * 64, 64),
            mem,
            cfg,
            table,
        }
    }

    /// Runs `op` and returns everything it left observable.
    fn step(&mut self, case: &Case, op: Op) -> After {
        quiet_caught_panics();
        CATCHING.with(|c| c.set(true));
        let outcome = catch_unwind(AssertUnwindSafe(|| match op {
            Op::Insert { key, version } => {
                let cs: Vec<u64> = (0..case.arity as u64)
                    .map(|c| (key ^ version).wrapping_mul(0x9E37_79B9) + c)
                    .collect();
                let mut ctx =
                    BlockCtx::standalone(self.lc, key, &mut self.mem, &mut self.dev, &self.cfg);
                self.table.put(&mut ctx, key, &cs);
                (None, Some(ctx.into_cost()))
            }
            Op::Lookup(key) => (self.table.get(&mut self.mem, key), None),
            Op::Reset => {
                self.table.clear(&mut self.mem);
                (None, None)
            }
        }))
        .map_err(|payload| {
            let text = payload.downcast_ref::<String>().cloned();
            text.or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_default()
        });
        CATCHING.with(|c| c.set(false));
        After {
            outcome,
            nvm: self.mem.stats(),
            lock_serial_ns: self.dev.lock_serial_ns,
            contended_atomics: self.dev.contended_atomics,
            image: image(&self.mem),
            facts: self.table.facts(case.capacity),
        }
    }
}

type Outcome = Result<(Option<Vec<u64>>, Option<BlockCost>), String>;

/// Everything an operation leaves observable.
#[derive(Debug, PartialEq)]
struct After {
    /// The lookup result and the inserting block's cost, or the panic.
    outcome: Outcome,
    nvm: NvmStats,
    lock_serial_ns: f64,
    contended_atomics: u64,
    image: Image,
    facts: Facts,
}

/// The allocated arena's durable and volatile bytes, and its dirty lines.
#[derive(Debug, PartialEq)]
struct Image {
    durable: Vec<u8>,
    volatile: Vec<u8>,
    dirty: Vec<u64>,
}

fn image(mem: &PersistMemory) -> Image {
    // The bump allocator's first address.
    let base = Addr::new(0x1000);
    let len = mem.allocated_bytes() as usize;
    let mut durable = vec![0; len];
    mem.read_durable_bytes(base, &mut durable);
    // Reading the volatile view moves the cache, so read it from a copy.
    let mut volatile = vec![0; len];
    mem.clone().read_bytes(base, &mut volatile);
    Image {
        durable,
        volatile,
        dirty: mem.dirty_line_bases(),
    }
}

fn reference_table(mem: &mut PersistMemory, c: &Case) -> TableInstance {
    match c.kind {
        TableKind::QuadraticProbing { load_factor } => {
            TableInstance::Quad(QuadraticProbeTable::create(
                mem,
                c.capacity,
                load_factor,
                c.arity,
                c.lock,
                c.atomic,
                c.seed,
            ))
        }
        TableKind::Cuckoo {
            load_factor,
            max_displacements,
        } => TableInstance::Cuckoo(CuckooTable::create(
            mem,
            c.capacity,
            load_factor,
            max_displacements,
            c.arity,
            c.lock,
            c.atomic,
            c.seed,
        )),
        TableKind::GlobalArray => {
            TableInstance::Array(GlobalArrayTable::create(mem, c.capacity, c.arity))
        }
    }
}

/// Drives the reference and the one table through `ops`, comparing after
/// every operation; stops after the first panic. Returns the new table's
/// final counters.
fn run(case: &Case, ops: &[Op]) -> Result<TableStats, TestCaseError> {
    let mut want = World::new(case, |mem| reference_table(mem, case));
    let mut got = World::new(case, |mem| {
        ChecksumTable::create(
            mem,
            case.kind,
            case.capacity,
            case.arity,
            case.lock,
            case.atomic,
            case.seed,
        )
    });
    prop_assert_eq!(
        got.table.facts(case.capacity),
        want.table.facts(case.capacity)
    );
    prop_assert_eq!(image(&got.mem), image(&want.mem));
    for (i, &op) in ops.iter().enumerate() {
        let (w, g) = (want.step(case, op), got.step(case, op));
        prop_assert_eq!(&g, &w, "operation {} ({:?})", i, op);
        if g.outcome.is_err() {
            break;
        }
    }
    Ok(got.table.stats())
}

thread_local! {
    /// Set while `step` runs a table operation it catches panics of.
    static CATCHING: Cell<bool> = const { Cell::new(false) };
}

/// Keeps the default panic message for every panic but the ones `step`
/// catches and compares (a full table).
fn quiet_caught_panics() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !CATCHING.with(Cell::get) {
                default(info);
            }
        }));
    });
}

/// The Table III and §IV-D3 axes and the rig, from three bits.
fn axes(bits: u8) -> (LockPolicy, AtomicPolicy, bool) {
    let lock = [LockPolicy::LockFree, LockPolicy::GlobalLock][usize::from(bits & 1)];
    let atomic = [AtomicPolicy::Atomic, AtomicPolicy::Racy][usize::from(bits >> 1 & 1)];
    (lock, atomic, bits & 4 != 0)
}

/// Organisation `org` at `load` in 0.2–1.0. Cuckoo maps it to 0.2–0.5 and
/// takes a displacement budget from `budget`, tight ones so the rehash path
/// runs.
fn kind(org: u8, load: f64, budget: usize) -> TableKind {
    match org {
        0 => TableKind::QuadraticProbing { load_factor: load },
        1 => TableKind::Cuckoo {
            load_factor: 0.2 + (load - 0.2) * 0.375,
            max_displacements: [2, 3, 4, 32][budget],
        },
        _ => TableKind::GlobalArray,
    }
}

/// Insert (6 in 9; keys from `0..capacity`, so re-inserts are common),
/// lookup of a present or absent key (2 in 9), or reset (1 in 9).
fn op(capacity: u64, (pick, key, version): (u8, u64, u64)) -> Op {
    match pick {
        0..=5 => Op::Insert {
            key: key % capacity,
            version,
        },
        6 | 7 => Op::Lookup(key % (capacity + 8)),
        _ => Op::Reset,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn one_table_equals_the_three_it_replaced(
        shape in (0u8..3, 0.2f64..=1.0, 0usize..4),
        capacity in 1u64..=40,
        arity in 1usize..=3,
        (bits, seed) in (0u8..8, any::<u64>()),
        draws in prop::collection::vec((0u8..9, any::<u64>(), 0u64..4), 1..60),
    ) {
        let (lock, atomic, v100) = axes(bits);
        let case = Case {
            kind: kind(shape.0, shape.1, shape.2),
            capacity,
            arity,
            lock,
            atomic,
            seed,
            v100,
        };
        let ops: Vec<Op> = draws.into_iter().map(|d| op(capacity, d)).collect();
        run(&case, &ops)?;
    }
}

/// Fills keys `0..n` twice (the second pass re-inserts), looking each up.
fn fill_twice(n: u64) -> Vec<Op> {
    (0..2)
        .flat_map(|version| (0..n).map(move |key| Op::Insert { key, version }))
        .chain((0..n + 4).map(Op::Lookup))
        .collect()
}

#[test]
fn a_rehashing_cuckoo_table_equals_the_reference() {
    let case = Case {
        kind: TableKind::Cuckoo {
            load_factor: 0.7,
            max_displacements: 2,
        },
        capacity: 32,
        arity: 2,
        lock: LockPolicy::GlobalLock,
        atomic: AtomicPolicy::Atomic,
        seed: 7,
        v100: false,
    };
    let ops: Vec<Op> = fill_twice(32)
        .into_iter()
        .chain([Op::Reset])
        .chain(fill_twice(32))
        .collect();
    let stats = run(&case, &ops).unwrap();
    assert!(stats.rehashes > 0, "{stats:?}");
}

#[test]
fn racy_tables_lose_races_as_the_reference_does() {
    for kind in [
        TableKind::QuadraticProbing { load_factor: 0.2 },
        TableKind::Cuckoo {
            load_factor: 0.45,
            max_displacements: 32,
        },
    ] {
        let case = Case {
            kind,
            capacity: 40,
            arity: 3,
            lock: LockPolicy::LockFree,
            atomic: AtomicPolicy::Racy,
            seed: 11,
            v100: true,
        };
        let stats = run(&case, &fill_twice(40)).unwrap();
        assert!(stats.racy_conflicts > 0, "{kind:?}: {stats:?}");
    }
}
