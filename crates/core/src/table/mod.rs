//! Checksum-table organisations (§IV-C and §V of the paper).
//!
//! A checksum table maps an LP-region key (the thread-block ID) to that
//! region's checksum vector. Insertions happen on the critical path of
//! normal execution — once per thread block — so their scalability is what
//! separates the paper's designs:
//!
//! * [`QuadraticProbeTable`] — open addressing with +i² probing and
//!   `atomicCAS` slot claiming;
//! * [`CuckooTable`] — two tables, two hash functions, `atomicExch`
//!   displacement with cycle detection and rehash;
//! * [`GlobalArrayTable`] — §V's hash-table-**less** design: the block ID
//!   indexes a flat array; no collisions, no atomics, 100 % load factor.
//!
//! Lookups only happen during crash recovery (the rare path) and are served
//! host-side from the memory image.
//!
//! Two ablation axes from the paper are carried by every table:
//! [`LockPolicy`] (Table III: a global spin lock vs. lock-free atomics) and
//! [`AtomicPolicy`] (§IV-D3: proper atomics vs. a racy read-modify-write
//! emulation with verification reads).

mod array;
mod cuckoo;
mod hash;
mod quad;

pub use array::GlobalArrayTable;
pub use cuckoo::CuckooTable;
pub use hash::{hash_with_seed, splitmix64};
pub use quad::QuadraticProbeTable;

use nvm::{Addr, PersistMemory};
use serde::{Deserialize, Serialize};
use simt::BlockCtx;
use std::cell::Cell;

/// Key tag stored for an empty slot. Keys are stored as `key + 1` so block
/// ID 0 is representable.
pub(crate) const EMPTY_TAG: u64 = 0;

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
    /// Copies the counters into a plain (serialisable) snapshot.
    pub fn snapshot(&self) -> TableStatsSnapshot {
        TableStatsSnapshot {
            collisions: self.collisions.get(),
            inserts: self.inserts.get(),
            rehashes: self.rehashes.get(),
            racy_conflicts: self.racy_conflicts.get(),
        }
    }

    /// Zeroes every counter.
    pub fn reset(&self) {
        self.collisions.set(0);
        self.inserts.set(0);
        self.rehashes.set(0);
        self.racy_conflicts.set(0);
    }
}

/// Plain-data snapshot of [`TableStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TableStatsSnapshot {
    /// Probes/displacements beyond the first slot attempt.
    pub collisions: u64,
    /// Completed insertions.
    pub inserts: u64,
    /// Cuckoo rehash events.
    pub rehashes: u64,
    /// Retries forced by lost races under [`AtomicPolicy::Racy`].
    pub racy_conflicts: u64,
}

/// A concrete checksum table bound to device memory.
///
/// Constructed by [`crate::LpRuntime::setup`]; kernels call
/// [`ChecksumTableOps::insert`] through their [`crate::LpBlockSession`].
#[derive(Debug, Clone)]
pub enum TableInstance {
    /// Quadratic-probing open addressing.
    Quad(QuadraticProbeTable),
    /// Two-table cuckoo hashing.
    Cuckoo(CuckooTable),
    /// Flat per-block array (§V).
    Array(GlobalArrayTable),
}

/// Operations every table organisation supports.
pub trait ChecksumTableOps {
    /// Publishes `checksums` for LP region `key` from inside a kernel,
    /// charging simulated costs to `ctx`.
    fn insert(&self, ctx: &mut BlockCtx<'_>, key: u64, checksums: &[u64]);

    /// Reads back the checksums for `key` from the memory image (recovery
    /// path; host-side, uncosted). Returns `None` when the key was never
    /// (durably) inserted.
    fn lookup(&self, mem: &mut PersistMemory, key: u64) -> Option<Vec<u64>>;

    /// Zeroes the table storage (new launch epoch).
    fn reset(&self, mem: &mut PersistMemory);

    /// Device bytes occupied by the table (Table V space-overhead column).
    fn size_bytes(&self) -> u64;

    /// Instrumentation counters.
    fn stats(&self) -> &TableStats;
}

impl TableInstance {
    /// Device address of `key`'s entry, when the organisation can name it
    /// without probing (only the global array can).
    pub fn entry_addr(&self, key: u64) -> Option<Addr> {
        match self {
            TableInstance::Array(t) => Some(t.entry_addr(key)),
            _ => None,
        }
    }

    /// Byte ranges `(base, len)` of device memory backing the table
    /// (entry storage plus any lock word). Crash-loss oracles use these to
    /// tell table lines apart from workload data lines.
    pub fn storage_ranges(&self) -> Vec<(u64, u64)> {
        match self {
            TableInstance::Quad(t) => t.storage_ranges(),
            TableInstance::Cuckoo(t) => t.storage_ranges(),
            TableInstance::Array(t) => t.storage_ranges(),
        }
    }

    /// The instrumentation counters of whichever variant this is.
    pub fn stats(&self) -> &TableStats {
        match self {
            TableInstance::Quad(t) => t.stats(),
            TableInstance::Cuckoo(t) => t.stats(),
            TableInstance::Array(t) => t.stats(),
        }
    }
}

impl ChecksumTableOps for TableInstance {
    fn insert(&self, ctx: &mut BlockCtx<'_>, key: u64, checksums: &[u64]) {
        match self {
            TableInstance::Quad(t) => t.insert(ctx, key, checksums),
            TableInstance::Cuckoo(t) => t.insert(ctx, key, checksums),
            TableInstance::Array(t) => t.insert(ctx, key, checksums),
        }
    }

    fn lookup(&self, mem: &mut PersistMemory, key: u64) -> Option<Vec<u64>> {
        match self {
            TableInstance::Quad(t) => t.lookup(mem, key),
            TableInstance::Cuckoo(t) => t.lookup(mem, key),
            TableInstance::Array(t) => t.lookup(mem, key),
        }
    }

    fn reset(&self, mem: &mut PersistMemory) {
        match self {
            TableInstance::Quad(t) => t.reset(mem),
            TableInstance::Cuckoo(t) => t.reset(mem),
            TableInstance::Array(t) => t.reset(mem),
        }
    }

    fn size_bytes(&self) -> u64 {
        match self {
            TableInstance::Quad(t) => t.size_bytes(),
            TableInstance::Cuckoo(t) => t.size_bytes(),
            TableInstance::Array(t) => t.size_bytes(),
        }
    }

    fn stats(&self) -> &TableStats {
        TableInstance::stats(self)
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
