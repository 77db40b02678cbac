//! A set-associative, write-back, write-allocate volatile cache.
//!
//! This is the "volatile domain" of the persistency model: dirty lines here
//! are *not yet durable*. Lines become durable when evicted (natural
//! write-back, the mechanism Lazy Persistency relies on) or when explicitly
//! flushed (what Eager Persistency would do with `clwb`).
//!
//! Every path that moves a line between the cache and the backing store
//! consults a [`DeviceFaults`] instance: write-backs can tear or fail, and
//! fills can surface media bit errors. With no fault model attached every
//! hook reduces to a `None` check and the cache behaves exactly as the
//! perfect device did.
//!
//! # Layout
//!
//! Every simulated load and store lands here, so the steady state allocates
//! nothing. Line payloads live in one byte arena that grows a line at a time
//! (never pre-sized: a crash campaign builds thousands of 6 MiB-cache worlds
//! that touch a few hundred lines each) and recycles slots through a free
//! list. Each set is a short vector of 24-byte [`LineMeta`] records — tag,
//! LRU tick, arena slot, dirty bit — so a way scan never strides over
//! payload bytes; writer tags sit in a third, slot-indexed table that only
//! stores touch. LRU victims are found by scanning `last_use`, and dirty and
//! resident counts are kept, so whole-cache operations return at once when
//! there is nothing to do.
//!
//! A lookup first consults a small direct-mapped table of `(set, way)`
//! hints, indexed by line number and refreshed on every access. A hint is
//! trusted only after its tag compares equal, so nothing has to invalidate
//! it; when it holds (the lines a kernel is streaming through) the set-index
//! division and the way scan, with its unpredictable exit, are skipped.
//!
//! # Orders that simulated results depend on
//!
//! [`crate::FaultModel`] draws every fault from one sequential PRNG, so the
//! order in which lines reach the device is part of the simulated result:
//!
//! 1. **In-set line order** is insertion order as perturbed by
//!    `swap_remove` on eviction. `flush_all`, `flush_upto`,
//!    `dirty_line_views` (hence `CrashLoss::lines`) visit lines set by set
//!    in that order; it decides which write-back gets which fate roll and
//!    which lines a mid-flush crash budget reaches.
//! 2. **A set may exceed its associativity**: a read miss into an all-dirty
//!    set keeps every dirty line, and so does a write miss whose every
//!    victim is stuck. The next write miss evicts until the set is back
//!    under, restarting from the LRU line after each removal. Sets are
//!    therefore growable vectors, not fixed-way arrays.
//! 3. **Fill faults come before the copy**: on both miss paths `fill_fault`
//!    runs on the durable bytes (after any eviction write-backs) and the
//!    line is filled from the result. Writer tags keep insertion order.

use crate::config::NvmConfig;
use crate::fault::{DeviceFaults, FlushOutcome, WritebackFate};
use crate::stats::NvmStats;

/// Distinct writer tags a line records before spilling to the heap. Output
/// lines are typically written by one block, two at a tile boundary.
const INLINE_WRITERS: usize = 2;

/// The writer tags (e.g. GPU block IDs) whose stores dirtied a line and are
/// not yet durable, in first-store order. Empty whenever the line is clean.
#[derive(Debug, Clone)]
enum WriterSet {
    Inline {
        len: u8,
        tags: [u64; INLINE_WRITERS],
    },
    Spilled(Vec<u64>),
}

impl WriterSet {
    const EMPTY: Self = Self::Inline {
        len: 0,
        tags: [0; INLINE_WRITERS],
    };

    fn as_slice(&self) -> &[u64] {
        match self {
            Self::Inline { len, tags } => &tags[..usize::from(*len)],
            Self::Spilled(tags) => tags,
        }
    }

    fn insert(&mut self, writer: u64) {
        let have = self.as_slice();
        // A block stores to a line many times in a row: it is the last tag.
        if have.last() == Some(&writer) || have.contains(&writer) {
            return;
        }
        match self {
            Self::Inline { len, tags } if usize::from(*len) < INLINE_WRITERS => {
                tags[usize::from(*len)] = writer;
                *len += 1;
            }
            Self::Inline { tags, .. } => {
                let mut spilled = Vec::with_capacity(4 * INLINE_WRITERS);
                spilled.extend_from_slice(tags);
                spilled.push(writer);
                *self = Self::Spilled(spilled);
            }
            Self::Spilled(tags) => tags.push(writer),
        }
    }

    /// Empties the set; a spilled set keeps its allocation for the slot's
    /// next occupant.
    fn clear(&mut self) {
        match self {
            Self::Inline { len, .. } => *len = 0,
            Self::Spilled(tags) => tags.clear(),
        }
    }
}

/// Entries in the lookup hint table, a power of two: enough that the handful
/// of lines a kernel streams through side by side keep an entry each.
const HINTS: usize = 256;

/// Per-line bookkeeping, kept apart from the payload.
#[derive(Debug, Clone, Copy)]
struct LineMeta {
    /// Line-aligned base byte address of the cached region.
    base: u64,
    /// LRU timestamp (monotone access tick, unique per line).
    last_use: u64,
    /// Index of the payload in the arena and of the tags in `writers`.
    slot: u32,
    /// Whether the line differs from NVM (i.e. holds non-durable stores).
    dirty: bool,
}

/// Where the line a [`WriteBackCache::read`] or [`WriteBackCache::write`]
/// touched sits, so that further accesses to the same line can skip the
/// lookup ([`WriteBackCache::line_data`], [`WriteBackCache::copy_in`]). Hits
/// leave it valid; a miss, an eviction or any whole-cache operation may
/// move the line, after which it must not be used.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Resident {
    base: u64,
    set: usize,
    way: usize,
    slot: u32,
}

/// A read-only look at one resident line.
pub(crate) struct LineView<'a> {
    /// Line-aligned base byte address of the cached region.
    pub base: u64,
    /// Cached bytes (`line_size` of them).
    pub data: &'a [u8],
    /// Writer tags of the line's non-durable stores, in first-store order.
    /// Used by crash-injection oracles to attribute lost lines to blocks.
    pub writers: &'a [u64],
}

/// A set-associative write-back cache in front of the NVM backing store.
///
/// The cache is deliberately simple: true-LRU replacement inside each set,
/// write-allocate on store misses. Determinism matters more than realism
/// here — identical access traces always produce identical eviction (and
/// therefore persistence) orders, which makes crash-recovery tests
/// reproducible.
///
/// Every method that takes `backing` requires each line it touches to lie
/// wholly inside it. [`crate::PersistMemory`] guarantees that: it bounds-
/// checks every access and grows the backing store in whole lines.
#[derive(Debug, Clone)]
pub(crate) struct WriteBackCache {
    line_size: usize,
    /// `log2(line_size)`.
    line_shift: u32,
    associativity: usize,
    /// `sets[i]` holds the resident lines of set `i` in the order described
    /// in the module docs.
    sets: Vec<Vec<LineMeta>>,
    /// Line payloads, `line_size` bytes per slot.
    arena: Vec<u8>,
    /// Writer tags per arena slot.
    writers: Vec<WriterSet>,
    /// Arena slots no resident line uses.
    free: Vec<u32>,
    resident: usize,
    dirty: usize,
    /// Where recently used lines were last seen, as `(set, way)` indexed by
    /// the low bits of the line number. Only hints: each is checked against
    /// the tag before use, so removals need not maintain them.
    hints: Box<[(u32, u32); HINTS]>,
    tick: u64,
}

impl WriteBackCache {
    /// Creates an empty cache with the geometry from `cfg`, which the
    /// caller has validated.
    pub(crate) fn new(cfg: &NvmConfig) -> Self {
        Self {
            line_size: cfg.line_size,
            line_shift: cfg.line_size.trailing_zeros(),
            associativity: cfg.associativity,
            sets: vec![Vec::new(); cfg.num_sets()],
            arena: Vec::new(),
            writers: Vec::new(),
            free: Vec::new(),
            resident: 0,
            dirty: 0,
            hints: Box::new([(0, 0); HINTS]),
            tick: 0,
        }
    }

    #[inline]
    fn line_base(&self, addr: u64) -> u64 {
        addr & !(self.line_size as u64 - 1)
    }

    #[inline]
    fn set_index(&self, line_base: u64) -> usize {
        let line = line_base >> self.line_shift;
        let num_sets = self.sets.len() as u64;
        if num_sets.is_power_of_two() {
            (line & (num_sets - 1)) as usize
        } else {
            (line % num_sets) as usize
        }
    }

    #[inline]
    fn hint_index(&self, line_base: u64) -> usize {
        (line_base >> self.line_shift) as usize & (HINTS - 1)
    }

    /// `(set, way)` of the resident line at `base`, if any: through its
    /// hint when that still names it, else by scanning its set.
    #[inline]
    fn locate(&self, base: u64) -> Option<(usize, usize)> {
        let (set, way) = self.hints[self.hint_index(base)];
        let (set, way) = (set as usize, way as usize);
        if self.sets[set].get(way).is_some_and(|l| l.base == base) {
            return Some((set, way));
        }
        let set = self.set_index(base);
        let way = self.sets[set].iter().position(|l| l.base == base)?;
        Some((set, way))
    }

    #[inline]
    fn remember(&mut self, base: u64, set: usize, way: usize) {
        self.hints[self.hint_index(base)] = (set as u32, way as u32);
    }

    /// Books a hit on the line at `(set, way)`: LRU tick, lookup hint and,
    /// for a store, the dirty bit. Returns the line's arena slot.
    #[inline(always)]
    fn touch(&mut self, base: u64, (set, way): (usize, usize), store: bool) -> u32 {
        let line = &mut self.sets[set][way];
        line.last_use = self.tick;
        if store && !line.dirty {
            line.dirty = true;
            self.dirty += 1;
        }
        let slot = line.slot;
        self.remember(base, set, way);
        slot
    }

    #[inline]
    fn slot_start(&self, slot: u32) -> usize {
        (slot as usize) << self.line_shift
    }

    fn payload(&self, slot: u32) -> &[u8] {
        let start = self.slot_start(slot);
        &self.arena[start..start + self.line_size]
    }

    fn view(&self, line: &LineMeta) -> LineView<'_> {
        LineView {
            base: line.base,
            data: self.payload(line.slot),
            writers: self.writers[line.slot as usize].as_slice(),
        }
    }

    /// Number of lines currently resident.
    #[cfg(test)]
    pub(crate) fn resident_lines(&self) -> usize {
        self.resident
    }

    /// Number of resident *dirty* lines (stores not yet durable).
    pub(crate) fn dirty_lines(&self) -> usize {
        self.dirty
    }

    /// Returns true if the line containing `addr` is resident and dirty,
    /// i.e. a store to it has *not* yet persisted.
    #[cfg(test)]
    pub(crate) fn is_dirty(&self, addr: u64) -> bool {
        self.locate(self.line_base(addr))
            .is_some_and(|(set, way)| self.sets[set][way].dirty)
    }

    /// Reads `buf.len()` bytes starting at `addr` through the cache.
    ///
    /// Fills from `backing` on a miss (the fill is counted as an NVM read;
    /// the fault model may surface a media error on it, which is why the
    /// backing store is mutable here). The read must not cross a line
    /// boundary. Returns where the line now sits, for [`Self::line_data`].
    #[inline(always)]
    pub(crate) fn read(
        &mut self,
        addr: u64,
        buf: &mut [u8],
        backing: &mut [u8],
        stats: &mut NvmStats,
        faults: &mut DeviceFaults,
    ) -> Resident {
        let base = self.line_base(addr);
        debug_assert!(
            self.line_base(addr + buf.len() as u64 - 1) == base,
            "cache access crosses a line boundary: addr={addr:#x} len={}",
            buf.len()
        );
        self.tick += 1;
        let (at, slot) = match self.locate(base) {
            Some(at) => (at, self.read_hit(base, at, stats)),
            None => self.read_miss(base, backing, stats, faults),
        };
        let start = self.slot_start(slot) + (addr - base) as usize;
        buf.copy_from_slice(&self.arena[start..start + buf.len()]);
        Resident {
            base,
            set: at.0,
            way: at.1,
            slot,
        }
    }

    /// The payload of the resident line `at`, for a run that copies words
    /// out of it and books them itself as hits ([`Self::book_hits`], or
    /// [`Self::count_hits`] and [`Self::stamp`]). The line must not have
    /// moved since `at` was returned.
    #[inline(always)]
    pub(crate) fn line_data(&self, at: Resident) -> &[u8] {
        self.debug_assert_resident(at, 0);
        self.payload(at.slot)
    }

    /// [`Self::line_data`]'s store twin: copies `buf` into the resident line
    /// `at` at byte `offset`, booking nothing. The write must lie inside the
    /// line, which must already be dirty (the run's first store made it
    /// so).
    #[inline(always)]
    pub(crate) fn copy_in(&mut self, at: Resident, offset: usize, buf: &[u8]) {
        self.debug_assert_resident(at, offset + buf.len());
        debug_assert!(
            self.sets[at.set][at.way].dirty,
            "run store into a clean line"
        );
        let start = self.slot_start(at.slot) + offset;
        self.arena[start..start + buf.len()].copy_from_slice(buf);
    }

    fn debug_assert_resident(&self, at: Resident, end: usize) {
        debug_assert!(end <= self.line_size, "run access crosses a line boundary");
        debug_assert!(
            self.sets[at.set]
                .get(at.way)
                .is_some_and(|l| l.base == at.base && l.slot == at.slot),
            "run access to a line that moved"
        );
    }

    /// Counts `k` hits that copied from open lines: advances the tick by
    /// `k` and `cache_hits` with it, and returns the last tick. The lines'
    /// LRU stamps are left to [`Self::stamp`]. Hits change no cache
    /// structure, so open lines stay where they are.
    #[inline(always)]
    pub(crate) fn count_hits(&mut self, k: u64, stats: &mut NvmStats) -> u64 {
        self.tick += k;
        stats.cache_hits += k;
        self.tick
    }

    /// Stamps the resident line `at` as last used at `tick`, unless a later
    /// access already did (two open lines of a run may be one line), and
    /// refreshes its lookup hint: the one LRU touch a line's deferred hits
    /// need.
    #[inline(always)]
    pub(crate) fn stamp(&mut self, at: Resident, tick: u64) {
        self.debug_assert_resident(at, 0);
        let line = &mut self.sets[at.set][at.way];
        line.last_use = line.last_use.max(tick);
        self.remember(at.base, at.set, at.way);
    }

    /// Books `k` hits on the line `at`, which the access just before them
    /// returned: per [`Self::count_hits`] and one [`Self::stamp`] with the
    /// last tick — what `k` single-word hits would have booked.
    #[inline(always)]
    pub(crate) fn book_hits(&mut self, at: Resident, k: u64, stats: &mut NvmStats) {
        let tick = self.count_hits(k, stats);
        self.stamp(at, tick);
    }

    /// Tags the resident line `at` with a store's writer, as each store of
    /// a run would have.
    #[inline(always)]
    pub(crate) fn tag(&mut self, at: Resident, writer: Option<u64>) {
        if let Some(w) = writer {
            self.writers[at.slot as usize].insert(w);
        }
    }

    /// Books a read hit on the line at `(set, way)`, the current tick
    /// already advanced. Returns the line's arena slot.
    #[inline(always)]
    fn read_hit(&mut self, base: u64, at: (usize, usize), stats: &mut NvmStats) -> u32 {
        stats.cache_hits += 1;
        self.touch(base, at, false)
    }

    /// Writes `buf` starting at `addr` through the cache (write-allocate).
    ///
    /// Eviction of a dirty victim performs the write-back into `backing`
    /// and counts an NVM write — this is the "natural eviction" persist
    /// mechanism of Lazy Persistency. The write must not cross a line
    /// boundary. `writer` optionally tags the line with the block that
    /// issued the store, for crash-loss attribution. Returns where the line
    /// now sits, as [`Self::read`] does.
    #[inline(always)]
    pub(crate) fn write(
        &mut self,
        addr: u64,
        buf: &[u8],
        backing: &mut [u8],
        stats: &mut NvmStats,
        faults: &mut DeviceFaults,
        writer: Option<u64>,
    ) -> Resident {
        let base = self.line_base(addr);
        debug_assert!(
            self.line_base(addr + buf.len() as u64 - 1) == base,
            "cache access crosses a line boundary: addr={addr:#x} len={}",
            buf.len()
        );
        self.tick += 1;
        let (at, slot) = match self.locate(base) {
            Some(at) => {
                stats.cache_hits += 1;
                (at, self.touch(base, at, true))
            }
            None => self.write_miss(base, backing, stats, faults),
        };
        let at = Resident {
            base,
            set: at.0,
            way: at.1,
            slot,
        };
        self.tag(at, writer);
        let start = self.slot_start(slot) + (addr - base) as usize;
        self.arena[start..start + buf.len()].copy_from_slice(buf);
        at
    }

    /// A read miss never writes back: it drops the LRU *clean* line of a
    /// full set, and if every way is dirty it keeps them all and lets the
    /// set temporarily exceed its associativity — the overflow is repaid on
    /// the next write miss — rather than lose a non-durable store.
    #[inline(never)]
    fn read_miss(
        &mut self,
        base: u64,
        backing: &mut [u8],
        stats: &mut NvmStats,
        faults: &mut DeviceFaults,
    ) -> ((usize, usize), u32) {
        stats.cache_misses += 1;
        let set = self.set_index(base);
        let ways = &self.sets[set];
        if ways.len() >= self.associativity {
            let lru_clean = (0..ways.len())
                .filter(|&way| !ways[way].dirty)
                .min_by_key(|&way| ways[way].last_use);
            if let Some(way) = lru_clean {
                self.remove(set, way);
            }
        }
        self.fill(set, base, false, backing, stats, faults)
    }

    /// Write-allocate: make room, then fill; `write` overwrites the bytes.
    #[inline(never)]
    fn write_miss(
        &mut self,
        base: u64,
        backing: &mut [u8],
        stats: &mut NvmStats,
        faults: &mut DeviceFaults,
    ) -> ((usize, usize), u32) {
        stats.cache_misses += 1;
        let set = self.set_index(base);
        self.evict_if_full(set, backing, stats, faults);
        self.fill(set, base, true, backing, stats, faults)
    }

    /// Appends the line at `base` to `set`, filled from the durable bytes,
    /// which see the fault model first. Returns its `(set, way)` and arena
    /// slot.
    fn fill(
        &mut self,
        set: usize,
        base: u64,
        dirty: bool,
        backing: &mut [u8],
        stats: &mut NvmStats,
        faults: &mut DeviceFaults,
    ) -> ((usize, usize), u32) {
        let b = base as usize;
        debug_assert!(
            b + self.line_size <= backing.len(),
            "fill outside the backing store: base={base:#x}"
        );
        let durable = &mut backing[b..b + self.line_size];
        faults.fill_fault(base, durable, stats);
        stats.nvm_reads += 1;
        stats.nvm_read_bytes += self.line_size as u64;
        let slot = match self.free.pop() {
            Some(slot) => {
                let start = self.slot_start(slot);
                self.arena[start..start + self.line_size].copy_from_slice(durable);
                slot
            }
            None => {
                let slot = u32::try_from(self.writers.len()).expect("more than u32::MAX lines");
                self.arena.extend_from_slice(durable);
                self.writers.push(WriterSet::EMPTY);
                slot
            }
        };
        let ways = &mut self.sets[set];
        ways.push(LineMeta {
            base,
            last_use: self.tick,
            slot,
            dirty,
        });
        let way = ways.len() - 1;
        self.resident += 1;
        self.dirty += usize::from(dirty);
        self.remember(base, set, way);
        ((set, way), slot)
    }

    /// Drops a line without write-back; the set's last line takes its way.
    fn remove(&mut self, set: usize, way: usize) {
        let line = self.sets[set].swap_remove(way);
        self.writers[line.slot as usize].clear();
        self.free.push(line.slot);
        self.resident -= 1;
        self.dirty -= usize::from(line.dirty);
    }

    /// Makes room in a full set. Victims are tried in LRU order: a clean
    /// victim is dropped, a dirty one is written back first. A write-back
    /// the device fails (transient or stuck line) leaves its line dirty and
    /// resident and the next-LRU candidate is tried instead; if *every* way
    /// is stuck-dirty the set temporarily exceeds associativity rather than
    /// lose a non-durable store. With faults off the first (true-LRU)
    /// candidate always succeeds, preserving the historical eviction order
    /// bit-for-bit.
    fn evict_if_full(
        &mut self,
        set: usize,
        backing: &mut [u8],
        stats: &mut NvmStats,
        faults: &mut DeviceFaults,
    ) {
        while self.sets[set].len() >= self.associativity {
            // Ticks are unique and start at 1, so the candidate after a
            // failed write-back is the smallest `last_use` above the one
            // just tried.
            let mut tried = 0;
            let victim = loop {
                let ways = &self.sets[set];
                let next = (0..ways.len())
                    .filter(|&way| ways[way].last_use > tried)
                    .min_by_key(|&way| ways[way].last_use);
                let Some(way) = next else {
                    return;
                };
                let line = ways[way];
                if !line.dirty {
                    break way;
                }
                if Self::write_back(line.base, self.payload(line.slot), backing, stats, faults) {
                    stats.natural_evictions += 1;
                    break way;
                }
                tried = line.last_use;
            };
            self.remove(set, victim);
        }
    }

    /// Copies a line into the backing store, subject to the fault model.
    /// Returns whether the device accepted the persist (a torn write-back
    /// *is* accepted — the tear is silent by definition).
    fn write_back(
        base: u64,
        payload: &[u8],
        backing: &mut [u8],
        stats: &mut NvmStats,
        faults: &mut DeviceFaults,
    ) -> bool {
        let len = payload.len();
        let keep = match faults.writeback_fate(base, len / 8) {
            WritebackFate::Fail => {
                stats.transient_persist_fails += 1;
                return false;
            }
            WritebackFate::Torn(words) => {
                stats.torn_writebacks += 1;
                words * 8
            }
            WritebackFate::Full => len,
        };
        let b = base as usize;
        backing[b..b + keep].copy_from_slice(&payload[..keep]);
        stats.nvm_writes += 1;
        stats.nvm_write_bytes += len as u64;
        true
    }

    /// Explicitly writes back the line at `(set, way)` if it is dirty; on
    /// success it becomes clean and stays resident.
    fn flush_way(
        &mut self,
        set: usize,
        way: usize,
        backing: &mut [u8],
        stats: &mut NvmStats,
        faults: &mut DeviceFaults,
    ) -> FlushOutcome {
        let line = self.sets[set][way];
        if !line.dirty {
            return FlushOutcome::Clean;
        }
        if !Self::write_back(line.base, self.payload(line.slot), backing, stats, faults) {
            return FlushOutcome::TransientFail;
        }
        stats.explicit_flushes += 1;
        self.sets[set][way].dirty = false;
        self.writers[line.slot as usize].clear();
        self.dirty -= 1;
        FlushOutcome::Persisted
    }

    /// Writes back every dirty line (an explicit whole-cache flush, the
    /// checkpoint boundary of §IV-A) and marks them clean. Lines stay
    /// resident. Returns the number of lines whose write-back the device
    /// *failed* (they stay dirty; zero on a perfect device).
    pub(crate) fn flush_all(
        &mut self,
        backing: &mut [u8],
        stats: &mut NvmStats,
        faults: &mut DeviceFaults,
    ) -> u64 {
        if self.dirty == 0 {
            return 0;
        }
        let mut failed = 0;
        for set in 0..self.sets.len() {
            for way in 0..self.sets[set].len() {
                if self.flush_way(set, way, backing, stats, faults) == FlushOutcome::TransientFail {
                    failed += 1;
                }
            }
        }
        failed
    }

    /// Writes back at most `budget` dirty lines, in deterministic
    /// (set-major) order, then stops. Returns how many lines were written
    /// back; device-failed write-backs leave their line dirty and do not
    /// consume budget. Used to model a crash landing in the middle of a
    /// checkpoint `flush_all`.
    pub(crate) fn flush_upto(
        &mut self,
        budget: u64,
        backing: &mut [u8],
        stats: &mut NvmStats,
        faults: &mut DeviceFaults,
    ) -> u64 {
        if self.dirty == 0 {
            return 0;
        }
        let mut done = 0;
        for set in 0..self.sets.len() {
            for way in 0..self.sets[set].len() {
                if done >= budget {
                    return done;
                }
                if self.flush_way(set, way, backing, stats, faults) == FlushOutcome::Persisted {
                    done += 1;
                }
            }
        }
        done
    }

    /// Iterates over the currently dirty (non-durable) lines, set by set.
    pub(crate) fn dirty_line_views(&self) -> impl Iterator<Item = LineView<'_>> {
        self.sets
            .iter()
            .flatten()
            .filter(|l| l.dirty)
            .take(self.dirty)
            .map(|l| self.view(l))
    }

    /// Sorted base addresses of the currently dirty lines.
    pub(crate) fn dirty_line_bases(&self) -> Vec<u64> {
        let mut v: Vec<u64> = self.dirty_line_views().map(|l| l.base).collect();
        v.sort_unstable();
        v
    }

    /// The resident line containing `addr`, if any.
    pub(crate) fn line_view(&self, addr: u64) -> Option<LineView<'_>> {
        let (set, way) = self.locate(self.line_base(addr))?;
        Some(self.view(&self.sets[set][way]))
    }

    /// Writes back the single line containing `addr` if it is resident and
    /// dirty (the `clwb` primitive Eager Persistency relies on). The line
    /// stays resident and becomes clean on success; a device-failed persist
    /// leaves it dirty and reports [`FlushOutcome::TransientFail`].
    pub(crate) fn flush_line(
        &mut self,
        addr: u64,
        backing: &mut [u8],
        stats: &mut NvmStats,
        faults: &mut DeviceFaults,
    ) -> FlushOutcome {
        match self.locate(self.line_base(addr)) {
            Some((set, way)) => self.flush_way(set, way, backing, stats, faults),
            None => FlushOutcome::Clean,
        }
    }

    /// Drops the resident line containing `addr` *without* write-back,
    /// dirty or not. Used when a line is quarantined: its content has
    /// already been copied to the remap target, so the stale physical line
    /// must not linger (or ever be written back). Returns whether a line
    /// was dropped.
    pub(crate) fn discard_line(&mut self, addr: u64) -> bool {
        let at = self.locate(self.line_base(addr));
        if let Some((set, way)) = at {
            self.remove(set, way);
        }
        at.is_some()
    }

    /// Drops every *clean* resident line, keeping dirty ones. After this,
    /// reads of clean data observe the durable image — which is how
    /// resilient recovery detects torn write-backs that a cached (intact)
    /// copy would mask.
    pub(crate) fn invalidate_clean(&mut self) {
        if self.resident == self.dirty {
            return;
        }
        for set in &mut self.sets {
            // Clean lines carry no writer tags, so the slot is ready for
            // reuse as it is.
            set.retain(|l| {
                if !l.dirty {
                    self.free.push(l.slot);
                }
                l.dirty
            });
        }
        self.resident = self.dirty;
    }

    /// Simulates power loss: every resident line is discarded *without*
    /// write-back. Dirty (non-durable) stores are lost.
    pub(crate) fn crash(&mut self) {
        if self.resident == 0 {
            return;
        }
        for set in &mut self.sets {
            set.clear();
        }
        self.arena.clear();
        self.writers.clear();
        self.free.clear();
        self.resident = 0;
        self.dirty = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultConfig;

    fn tiny() -> (WriteBackCache, Vec<u8>, NvmStats, DeviceFaults) {
        let cfg = NvmConfig {
            line_size: 16,
            cache_lines: 4,
            associativity: 2,
        };
        (
            WriteBackCache::new(&cfg),
            vec![0u8; 4096],
            NvmStats::default(),
            DeviceFaults::off(),
        )
    }

    #[test]
    fn write_then_read_hits() {
        let (mut c, mut back, mut st, mut f) = tiny();
        c.write(32, &[1, 2, 3, 4], &mut back, &mut st, &mut f, None);
        let mut buf = [0u8; 4];
        c.read(32, &mut buf, &mut back, &mut st, &mut f);
        assert_eq!(buf, [1, 2, 3, 4]);
        assert!(st.cache_hits >= 1);
    }

    #[test]
    fn dirty_line_not_in_backing_until_evicted() {
        let (mut c, mut back, mut st, mut f) = tiny();
        c.write(0, &[9; 8], &mut back, &mut st, &mut f, None);
        assert_eq!(&back[0..8], &[0; 8]);
        assert!(c.is_dirty(0));
    }

    #[test]
    fn eviction_writes_back() {
        let (mut c, mut back, mut st, mut f) = tiny();
        // 2 sets, 2 ways, 16B lines: addresses 0, 32, 64 map to set 0.
        c.write(0, &[1; 8], &mut back, &mut st, &mut f, None);
        c.write(32, &[2; 8], &mut back, &mut st, &mut f, None);
        c.write(64, &[3; 8], &mut back, &mut st, &mut f, None); // evicts line 0
        assert_eq!(&back[0..8], &[1; 8]);
        assert_eq!(st.natural_evictions, 1);
        assert!(st.nvm_writes >= 1);
    }

    #[test]
    fn crash_loses_dirty_data() {
        let (mut c, mut back, mut st, mut f) = tiny();
        c.write(0, &[7; 8], &mut back, &mut st, &mut f, None);
        c.crash();
        let mut buf = [0u8; 8];
        c.read(0, &mut buf, &mut back, &mut st, &mut f);
        assert_eq!(buf, [0; 8]);
    }

    #[test]
    fn flush_makes_data_durable() {
        let (mut c, mut back, mut st, mut f) = tiny();
        c.write(0, &[7; 8], &mut back, &mut st, &mut f, None);
        assert_eq!(c.flush_all(&mut back, &mut st, &mut f), 0);
        assert!(!c.is_dirty(0));
        c.crash();
        let mut buf = [0u8; 8];
        c.read(0, &mut buf, &mut back, &mut st, &mut f);
        assert_eq!(buf, [7; 8]);
    }

    #[test]
    fn flush_is_idempotent() {
        let (mut c, mut back, mut st, mut f) = tiny();
        c.write(0, &[7; 8], &mut back, &mut st, &mut f, None);
        c.flush_all(&mut back, &mut st, &mut f);
        let w = st.nvm_writes;
        c.flush_all(&mut back, &mut st, &mut f);
        assert_eq!(st.nvm_writes, w, "clean lines must not be re-flushed");
    }

    #[test]
    fn lru_evicts_least_recent() {
        let (mut c, mut back, mut st, mut f) = tiny();
        c.write(0, &[1; 4], &mut back, &mut st, &mut f, None);
        c.write(32, &[2; 4], &mut back, &mut st, &mut f, None);
        // Touch line 0 so line 32 becomes LRU.
        let mut buf = [0u8; 4];
        c.read(0, &mut buf, &mut back, &mut st, &mut f);
        c.write(64, &[3; 4], &mut back, &mut st, &mut f, None);
        // Line 32 should be the victim.
        assert_eq!(&back[32..36], &[2; 4]);
        assert_eq!(&back[0..4], &[0; 4]);
    }

    #[test]
    fn read_miss_counts_nvm_read() {
        let (c, mut back, _, mut f) = tiny();
        let mut st = NvmStats::default();
        let mut c2 = c.clone();
        let mut buf = [0u8; 4];
        c2.read(100, &mut buf, &mut back, &mut st, &mut f);
        assert_eq!(st.nvm_reads, 1);
        assert_eq!(st.cache_misses, 1);
    }

    #[test]
    fn partial_line_write_preserves_other_bytes() {
        let (mut c, mut back, mut st, mut f) = tiny();
        back[16..32].copy_from_slice(&[5; 16]);
        c.write(20, &[9, 9], &mut back, &mut st, &mut f, None);
        let mut buf = [0u8; 16];
        c.read(16, &mut buf, &mut back, &mut st, &mut f);
        let mut expect = [5u8; 16];
        expect[4] = 9;
        expect[5] = 9;
        assert_eq!(buf, expect);
    }

    #[test]
    fn torn_writeback_persists_only_a_prefix() {
        let (mut c, mut back, mut st, _) = tiny();
        let mut f = DeviceFaults::new(Some(FaultConfig::torn(1, 10_000)));
        c.write(0, &[0xEE; 16], &mut back, &mut st, &mut f, None);
        assert_eq!(c.flush_all(&mut back, &mut st, &mut f), 0);
        assert!(!c.is_dirty(0), "the device *reported* success");
        assert_eq!(st.torn_writebacks, 1);
        // A 16B line has 2 words; a strict-prefix tear keeps 0 or 1 of them.
        assert_ne!(&back[0..16], &[0xEE; 16], "the tail must be missing");
    }

    #[test]
    fn failed_writeback_keeps_line_dirty() {
        let (mut c, mut back, mut st, _) = tiny();
        let cfg = FaultConfig {
            transient_persist_bp: 10_000,
            ..FaultConfig::none(1)
        };
        let mut f = DeviceFaults::new(Some(cfg));
        c.write(0, &[3; 16], &mut back, &mut st, &mut f, None);
        assert_eq!(c.flush_all(&mut back, &mut st, &mut f), 1);
        assert!(c.is_dirty(0));
        assert_eq!(&back[0..16], &[0; 16], "nothing reached the media");
        assert!(st.transient_persist_fails >= 1);
        assert_eq!(st.nvm_writes, 0);
        assert_eq!(
            c.flush_line(0, &mut back, &mut st, &mut f),
            FlushOutcome::TransientFail
        );
    }

    #[test]
    fn stuck_set_overflows_instead_of_losing_stores() {
        let (mut c, mut back, mut st, _) = tiny();
        let cfg = FaultConfig {
            stuck_line_bp: 10_000, // every line is stuck
            ..FaultConfig::none(1)
        };
        let mut f = DeviceFaults::new(Some(cfg));
        // Three dirty lines in a 2-way set: eviction cannot persist any of
        // them, so the set must overflow rather than drop a store.
        c.write(0, &[1; 16], &mut back, &mut st, &mut f, None);
        c.write(32, &[2; 16], &mut back, &mut st, &mut f, None);
        c.write(64, &[3; 16], &mut back, &mut st, &mut f, None);
        assert_eq!(c.dirty_lines(), 3);
        let mut buf = [0u8; 16];
        c.read(0, &mut buf, &mut back, &mut st, &mut f);
        assert_eq!(buf, [1; 16], "the overflowed store is still visible");
        assert_eq!(st.natural_evictions, 0);
    }

    #[test]
    fn invalidate_clean_keeps_dirty_lines() {
        let (mut c, mut back, mut st, mut f) = tiny();
        c.write(0, &[1; 8], &mut back, &mut st, &mut f, None);
        c.flush_all(&mut back, &mut st, &mut f); // line 0 clean, resident
        c.write(16, &[2; 8], &mut back, &mut st, &mut f, None); // dirty
        c.invalidate_clean();
        assert_eq!(c.resident_lines(), 1);
        assert!(c.is_dirty(16));
        assert!(c.line_view(0).is_none());
    }

    #[test]
    fn discard_line_drops_without_writeback() {
        let (mut c, mut back, mut st, mut f) = tiny();
        c.write(0, &[9; 16], &mut back, &mut st, &mut f, None);
        let w = st.nvm_writes;
        assert!(c.discard_line(5)); // any addr inside the line
        assert!(!c.discard_line(0));
        assert_eq!(st.nvm_writes, w);
        assert_eq!(&back[0..16], &[0; 16]);
    }

    #[test]
    fn dirty_line_bases_are_sorted() {
        let (mut c, mut back, mut st, mut f) = tiny();
        c.write(48, &[1; 8], &mut back, &mut st, &mut f, None);
        c.write(0, &[2; 8], &mut back, &mut st, &mut f, None);
        assert_eq!(c.dirty_line_bases(), vec![0, 48]);
    }

    #[test]
    fn read_into_all_dirty_set_overflows_and_the_next_write_evicts_two() {
        let (mut c, mut back, mut st, mut f) = tiny();
        // 2 sets, 2 ways: lines 0, 32, 64 and 96 all map to set 0.
        c.write(0, &[1; 16], &mut back, &mut st, &mut f, None);
        c.write(32, &[2; 16], &mut back, &mut st, &mut f, None);
        // Both ways are dirty, so the read has no clean victim and may not
        // write back: the set grows to associativity + 1.
        let mut buf = [0u8; 4];
        c.read(64, &mut buf, &mut back, &mut st, &mut f);
        assert_eq!(c.resident_lines(), 3);
        assert_eq!(c.dirty_lines(), 2);
        assert_eq!(st.natural_evictions, 0);
        assert_eq!(&back[0..16], &[0; 16]);
        // The write miss repays the overflow: it evicts until the set is
        // under its associativity again, least recently used first — the
        // two dirty lines go, the clean line read last stays.
        c.write(96, &[4; 16], &mut back, &mut st, &mut f, None);
        assert_eq!(st.natural_evictions, 2);
        assert_eq!(st.nvm_writes, 2);
        assert_eq!(&back[0..16], &[1; 16]);
        assert_eq!(&back[32..48], &[2; 16]);
        assert_eq!(c.resident_lines(), 2);
        assert!(c.line_view(64).is_some());
        assert!(c.is_dirty(96));
        assert_eq!(c.dirty_lines(), 1);
    }
}
