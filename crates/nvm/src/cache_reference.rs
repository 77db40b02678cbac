//! The `Vec<Vec<line>>` write-back cache this crate shipped before the arena
//! layout of [`crate::cache`], kept as it was (less an unused getter) as the executable specification
//! the differential test below holds the production cache to: one boxed
//! payload and one writer `Vec` per line, victims found by sorting an index
//! vector. Test-only; nothing outside this file uses it.

use crate::config::NvmConfig;
use crate::fault::{DeviceFaults, FlushOutcome, WritebackFate};
use crate::stats::NvmStats;

/// One cache line: tag, payload, and bookkeeping bits.
#[derive(Debug, Clone)]
pub struct ReferenceLine {
    /// Line-aligned base byte address of the cached region.
    pub base: u64,
    /// Cached bytes (`line_size` of them).
    pub data: Box<[u8]>,
    /// Whether the line differs from NVM (i.e. holds non-durable stores).
    pub dirty: bool,
    /// LRU timestamp (monotone access tick).
    pub last_use: u64,
    /// Writer tags (e.g. GPU block IDs) whose stores dirtied this line and
    /// are not yet durable. Cleared when the line becomes clean. Used by
    /// crash-injection oracles to attribute lost lines to blocks.
    pub writers: Vec<u64>,
}

/// A set-associative write-back cache in front of the NVM backing store.
///
/// The cache is deliberately simple: true-LRU replacement inside each set,
/// write-allocate on store misses. Determinism matters more than realism
/// here — identical access traces always produce identical eviction (and
/// therefore persistence) orders, which makes crash-recovery tests
/// reproducible.
#[derive(Debug, Clone)]
pub struct ReferenceCache {
    line_size: usize,
    num_sets: usize,
    associativity: usize,
    sets: Vec<Vec<ReferenceLine>>,
    tick: u64,
}

impl ReferenceCache {
    /// Creates an empty cache with the geometry from `cfg`.
    pub fn new(cfg: &NvmConfig) -> Self {
        let num_sets = cfg.num_sets();
        Self {
            line_size: cfg.line_size,
            num_sets,
            associativity: cfg.associativity,
            sets: (0..num_sets).map(|_| Vec::new()).collect(),
            tick: 0,
        }
    }

    fn line_base(&self, addr: u64) -> u64 {
        addr & !(self.line_size as u64 - 1)
    }

    fn set_index(&self, line_base: u64) -> usize {
        ((line_base / self.line_size as u64) % self.num_sets as u64) as usize
    }

    /// Number of lines currently resident.
    pub fn resident_lines(&self) -> usize {
        self.sets.iter().map(Vec::len).sum()
    }

    /// Number of resident *dirty* lines (stores not yet durable).
    pub fn dirty_lines(&self) -> usize {
        self.sets
            .iter()
            .flat_map(|s| s.iter())
            .filter(|l| l.dirty)
            .count()
    }

    /// Returns true if the line containing `addr` is resident and dirty,
    /// i.e. a store to it has *not* yet persisted.
    pub fn is_dirty(&self, addr: u64) -> bool {
        let base = self.line_base(addr);
        let set = &self.sets[self.set_index(base)];
        set.iter().any(|l| l.base == base && l.dirty)
    }

    /// Reads `buf.len()` bytes starting at `addr` through the cache.
    ///
    /// Fills from `backing` on a miss (the fill is counted as an NVM read;
    /// the fault model may surface a media error on it, which is why the
    /// backing store is mutable here). The read must not cross a line
    /// boundary.
    pub fn read(
        &mut self,
        addr: u64,
        buf: &mut [u8],
        backing: &mut [u8],
        stats: &mut NvmStats,
        faults: &mut DeviceFaults,
    ) {
        let base = self.line_base(addr);
        debug_assert!(
            self.line_base(addr + buf.len() as u64 - 1) == base,
            "cache access crosses a line boundary: addr={addr:#x} len={}",
            buf.len()
        );
        self.tick += 1;
        let tick = self.tick;
        let set_idx = self.set_index(base);
        let set = &mut self.sets[set_idx];
        if let Some(line) = set.iter_mut().find(|l| l.base == base) {
            line.last_use = tick;
            let off = (addr - base) as usize;
            buf.copy_from_slice(&line.data[off..off + buf.len()]);
            stats.cache_hits += 1;
            return;
        }
        stats.cache_misses += 1;
        // Miss: fill from NVM.
        let line = self.fill_line(base, backing, stats, faults);
        let off = (addr - base) as usize;
        buf.copy_from_slice(&line.data[off..off + buf.len()]);
    }

    /// Writes `buf` starting at `addr` through the cache (write-allocate).
    ///
    /// Eviction of a dirty victim performs the write-back into `backing`
    /// and counts an NVM write — this is the "natural eviction" persist
    /// mechanism of Lazy Persistency. The write must not cross a line
    /// boundary. `writer` optionally tags the line with the block that
    /// issued the store, for crash-loss attribution.
    pub fn write(
        &mut self,
        addr: u64,
        buf: &[u8],
        backing: &mut [u8],
        stats: &mut NvmStats,
        faults: &mut DeviceFaults,
        writer: Option<u64>,
    ) {
        let base = self.line_base(addr);
        debug_assert!(
            self.line_base(addr + buf.len() as u64 - 1) == base,
            "cache access crosses a line boundary: addr={addr:#x} len={}",
            buf.len()
        );
        self.tick += 1;
        let tick = self.tick;
        let set_idx = self.set_index(base);
        if let Some(line) = self.sets[set_idx].iter_mut().find(|l| l.base == base) {
            line.last_use = tick;
            line.dirty = true;
            if let Some(w) = writer {
                if !line.writers.contains(&w) {
                    line.writers.push(w);
                }
            }
            let off = (addr - base) as usize;
            line.data[off..off + buf.len()].copy_from_slice(buf);
            stats.cache_hits += 1;
            return;
        }
        stats.cache_misses += 1;
        // Write-allocate: fill, then overwrite the bytes.
        self.evict_if_full(set_idx, backing, stats, faults);
        let mut data = vec![0u8; self.line_size].into_boxed_slice();
        let b = base as usize;
        if b + self.line_size <= backing.len() {
            faults.fill_fault(base, &mut backing[b..b + self.line_size], stats);
            data.copy_from_slice(&backing[b..b + self.line_size]);
            stats.nvm_reads += 1;
            stats.nvm_read_bytes += self.line_size as u64;
        }
        let off = (addr - base) as usize;
        data[off..off + buf.len()].copy_from_slice(buf);
        self.sets[set_idx].push(ReferenceLine {
            base,
            data,
            dirty: true,
            last_use: tick,
            writers: writer.into_iter().collect(),
        });
    }

    fn fill_line(
        &mut self,
        base: u64,
        backing: &mut [u8],
        stats: &mut NvmStats,
        faults: &mut DeviceFaults,
    ) -> &ReferenceLine {
        let set_idx = self.set_index(base);
        // Reads never write back here: eviction on read miss drops a *clean*
        // victim only, keeping dirty (non-durable) stores resident. If every
        // way is dirty the set temporarily exceeds associativity; the
        // overflow is repaid by the next `write`/`flush`.
        self.evict_clean_preferring(set_idx);
        let mut data = vec![0u8; self.line_size].into_boxed_slice();
        let b = base as usize;
        if b + self.line_size <= backing.len() {
            faults.fill_fault(base, &mut backing[b..b + self.line_size], stats);
            data.copy_from_slice(&backing[b..b + self.line_size]);
        }
        stats.nvm_reads += 1;
        stats.nvm_read_bytes += self.line_size as u64;
        let tick = self.tick;
        let set = &mut self.sets[set_idx];
        set.push(ReferenceLine {
            base,
            data,
            dirty: false,
            last_use: tick,
            writers: Vec::new(),
        });
        set.last().unwrap()
    }

    /// On a read-miss with a full set we need a victim but cannot write back
    /// (no `&mut backing`). Prefer the LRU *clean* line; if all ways are
    /// dirty, keep them and let the set temporarily exceed associativity —
    /// the overflow is repaid on the next `write`/`flush`. This keeps the
    /// model simple without ever losing a dirty (non-durable) store
    /// silently.
    fn evict_clean_preferring(&mut self, set_idx: usize) {
        let set = &mut self.sets[set_idx];
        if set.len() < self.associativity {
            return;
        }
        if let Some(pos) = set
            .iter()
            .enumerate()
            .filter(|(_, l)| !l.dirty)
            .min_by_key(|(_, l)| l.last_use)
            .map(|(i, _)| i)
        {
            set.swap_remove(pos);
        }
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
        set_idx: usize,
        backing: &mut [u8],
        stats: &mut NvmStats,
        faults: &mut DeviceFaults,
    ) {
        while self.sets[set_idx].len() >= self.associativity {
            let mut order: Vec<usize> = (0..self.sets[set_idx].len()).collect();
            order.sort_by_key(|&i| self.sets[set_idx][i].last_use);
            let mut removed = false;
            for pos in order {
                if self.sets[set_idx][pos].dirty {
                    if !Self::write_back(&self.sets[set_idx][pos], backing, stats, faults) {
                        continue;
                    }
                    stats.natural_evictions += 1;
                }
                self.sets[set_idx].swap_remove(pos);
                removed = true;
                break;
            }
            if !removed {
                return;
            }
        }
    }

    /// Copies a line into the backing store, subject to the fault model.
    /// Returns whether the device accepted the persist (a torn write-back
    /// *is* accepted — the tear is silent by definition).
    fn write_back(
        line: &ReferenceLine,
        backing: &mut [u8],
        stats: &mut NvmStats,
        faults: &mut DeviceFaults,
    ) -> bool {
        let len = line.data.len();
        let fate = faults.writeback_fate(line.base, len / 8);
        if fate == WritebackFate::Fail {
            stats.transient_persist_fails += 1;
            return false;
        }
        let b = line.base as usize;
        if b + len <= backing.len() {
            let keep = match fate {
                WritebackFate::Torn(words) => words * 8,
                _ => len,
            };
            backing[b..b + keep].copy_from_slice(&line.data[..keep]);
        }
        if let WritebackFate::Torn(_) = fate {
            stats.torn_writebacks += 1;
        }
        stats.nvm_writes += 1;
        stats.nvm_write_bytes += len as u64;
        true
    }

    /// Writes back every dirty line (an explicit whole-cache flush, the
    /// checkpoint boundary of §IV-A) and marks them clean. Lines stay
    /// resident. Returns the number of lines whose write-back the device
    /// *failed* (they stay dirty; zero on a perfect device).
    pub fn flush_all(
        &mut self,
        backing: &mut [u8],
        stats: &mut NvmStats,
        faults: &mut DeviceFaults,
    ) -> u64 {
        let mut failed = 0;
        for set in &mut self.sets {
            for line in set.iter_mut() {
                if line.dirty {
                    if Self::write_back(line, backing, stats, faults) {
                        stats.explicit_flushes += 1;
                        line.dirty = false;
                        line.writers.clear();
                    } else {
                        failed += 1;
                    }
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
    pub fn flush_upto(
        &mut self,
        budget: u64,
        backing: &mut [u8],
        stats: &mut NvmStats,
        faults: &mut DeviceFaults,
    ) -> u64 {
        let mut done = 0;
        for set in &mut self.sets {
            for line in set.iter_mut() {
                if done >= budget {
                    return done;
                }
                if line.dirty && Self::write_back(line, backing, stats, faults) {
                    stats.explicit_flushes += 1;
                    line.dirty = false;
                    line.writers.clear();
                    done += 1;
                }
            }
        }
        done
    }

    /// Iterates over the currently dirty (non-durable) lines.
    pub fn dirty_line_views(&self) -> impl Iterator<Item = &ReferenceLine> {
        self.sets.iter().flat_map(|s| s.iter()).filter(|l| l.dirty)
    }

    /// Sorted base addresses of the currently dirty lines.
    pub fn dirty_line_bases(&self) -> Vec<u64> {
        let mut v: Vec<u64> = self.dirty_line_views().map(|l| l.base).collect();
        v.sort_unstable();
        v
    }

    /// The resident line containing `addr`, if any.
    pub fn line_view(&self, addr: u64) -> Option<&ReferenceLine> {
        let base = self.line_base(addr);
        self.sets[self.set_index(base)]
            .iter()
            .find(|l| l.base == base)
    }

    /// Writes back the single line containing `addr` if it is resident and
    /// dirty (the `clwb` primitive Eager Persistency relies on). The line
    /// stays resident and becomes clean on success; a device-failed persist
    /// leaves it dirty and reports [`FlushOutcome::TransientFail`].
    pub fn flush_line(
        &mut self,
        addr: u64,
        backing: &mut [u8],
        stats: &mut NvmStats,
        faults: &mut DeviceFaults,
    ) -> FlushOutcome {
        let base = self.line_base(addr);
        let set_idx = self.set_index(base);
        if let Some(line) = self.sets[set_idx].iter_mut().find(|l| l.base == base) {
            if line.dirty {
                return if Self::write_back(line, backing, stats, faults) {
                    stats.explicit_flushes += 1;
                    line.dirty = false;
                    line.writers.clear();
                    FlushOutcome::Persisted
                } else {
                    FlushOutcome::TransientFail
                };
            }
        }
        FlushOutcome::Clean
    }

    /// Drops the resident line containing `addr` *without* write-back,
    /// dirty or not. Used when a line is quarantined: its content has
    /// already been copied to the remap target, so the stale physical line
    /// must not linger (or ever be written back). Returns whether a line
    /// was dropped.
    pub fn discard_line(&mut self, addr: u64) -> bool {
        let base = self.line_base(addr);
        let set_idx = self.set_index(base);
        let set = &mut self.sets[set_idx];
        if let Some(pos) = set.iter().position(|l| l.base == base) {
            set.swap_remove(pos);
            true
        } else {
            false
        }
    }

    /// Drops every *clean* resident line, keeping dirty ones. After this,
    /// reads of clean data observe the durable image — which is how
    /// resilient recovery detects torn write-backs that a cached (intact)
    /// copy would mask.
    pub fn invalidate_clean(&mut self) {
        for set in &mut self.sets {
            set.retain(|l| l.dirty);
        }
    }

    /// Simulates power loss: every resident line is discarded *without*
    /// write-back. Dirty (non-durable) stores are lost.
    pub fn crash(&mut self) {
        for set in &mut self.sets {
            set.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::ReferenceCache;
    use crate::cache::WriteBackCache;
    use crate::config::NvmConfig;
    use crate::fault::{DeviceFaults, FaultConfig};
    use crate::stats::NvmStats;
    use proptest::prelude::*;

    const LINE: u64 = 16;
    /// Lines of backing store: several times the largest geometry below, so
    /// sets fill up, evict, and (under reads of all-dirty sets or stuck
    /// lines) overflow.
    const SPACE_LINES: u64 = 32;

    /// `(cache_lines, associativity)`: 2 and 3 sets (mask and `%` indexing),
    /// 2- to 4-way.
    const GEOMETRIES: [(usize, usize); 4] = [(4, 2), (6, 2), (9, 3), (8, 4)];
    const WRITERS: [Option<u64>; 6] = [None, Some(1), Some(2), Some(3), Some(7), Some(1 << 40)];

    /// Both caches with everything they are handed, so one step can be
    /// applied to each and every observable compared.
    struct Side<C> {
        cache: C,
        backing: Vec<u8>,
        stats: NvmStats,
        faults: DeviceFaults,
    }

    impl<C> Side<C> {
        fn new(cache: C, faults: Option<FaultConfig>) -> Self {
            Self {
                cache,
                backing: (0..SPACE_LINES * LINE).map(|i| i as u8).collect(),
                stats: NvmStats::default(),
                faults: DeviceFaults::new(faults),
            }
        }
    }

    /// What one step returned to its caller.
    #[derive(Debug, PartialEq)]
    enum Outcome {
        Read(Vec<u8>),
        Flush(crate::fault::FlushOutcome),
        Count(u64),
        Dropped(bool),
        Nothing,
    }

    /// Applies the step `(kind, x, y)` to one side. `$s` is a `Side`; the
    /// two cache types share method names, not a trait.
    macro_rules! step {
        ($s:expr, $kind:expr, $x:expr, $y:expr) => {{
            let s = &mut $s;
            let addr = $x % (SPACE_LINES * LINE);
            // 1..=8 bytes, or a whole line, clipped to the line's end.
            let want = if $y % 11 == 0 { LINE } else { 1 + $y % 8 };
            let len = want.min(LINE - addr % LINE) as usize;
            match $kind {
                0..=8 => {
                    let bytes: Vec<u8> = (0..len).map(|i| ($y >> 8) as u8 ^ i as u8).collect();
                    let writer = WRITERS[($y >> 16) as usize % WRITERS.len()];
                    s.cache.write(
                        addr,
                        &bytes,
                        &mut s.backing,
                        &mut s.stats,
                        &mut s.faults,
                        writer,
                    );
                    Outcome::Nothing
                }
                9..=16 => {
                    let mut buf = vec![0u8; len];
                    s.cache
                        .read(addr, &mut buf, &mut s.backing, &mut s.stats, &mut s.faults);
                    Outcome::Read(buf)
                }
                17 | 18 => Outcome::Flush(s.cache.flush_line(
                    addr,
                    &mut s.backing,
                    &mut s.stats,
                    &mut s.faults,
                )),
                19 => Outcome::Count(s.cache.flush_all(
                    &mut s.backing,
                    &mut s.stats,
                    &mut s.faults,
                )),
                20 => Outcome::Count(s.cache.flush_upto(
                    $y % 4,
                    &mut s.backing,
                    &mut s.stats,
                    &mut s.faults,
                )),
                21 => Outcome::Dropped(s.cache.discard_line(addr)),
                22 => {
                    s.cache.invalidate_clean();
                    Outcome::Nothing
                }
                23 => {
                    s.cache.crash();
                    Outcome::Nothing
                }
                _ => {
                    // A clone must carry the whole state: swap it in.
                    s.cache = s.cache.clone();
                    Outcome::Nothing
                }
            }
        }};
    }

    /// Every dirty line in visiting order — the order `flush_all`,
    /// `flush_upto` and `CrashLoss::lines` depend on — with payload and
    /// writer order.
    type DirtyImage = Vec<(u64, Vec<u8>, Vec<u64>)>;

    fn run(geometry: usize, faults: Option<FaultConfig>, ops: &[(u8, u64, u64)]) {
        let (cache_lines, associativity) = GEOMETRIES[geometry];
        let cfg = NvmConfig {
            line_size: LINE as usize,
            cache_lines,
            associativity,
        };
        let mut new = Side::new(WriteBackCache::new(&cfg), faults);
        let mut old = Side::new(ReferenceCache::new(&cfg), faults);
        for (i, &(kind, x, y)) in ops.iter().enumerate() {
            let at = format!(
                "step {i} {:?} on {cache_lines}x{associativity}",
                (kind, x, y)
            );
            assert_eq!(step!(new, kind, x, y), step!(old, kind, x, y), "{at}");
            assert_eq!(new.stats, old.stats, "{at}");
            assert!(new.backing == old.backing, "durable image differs at {at}");
            assert_eq!(new.faults.take_ecc_log(), old.faults.take_ecc_log(), "{at}");
            assert_eq!(
                new.cache.resident_lines(),
                old.cache.resident_lines(),
                "{at}"
            );
            assert_eq!(new.cache.dirty_lines(), old.cache.dirty_lines(), "{at}");
            let dirty_new: DirtyImage = new
                .cache
                .dirty_line_views()
                .map(|l| (l.base, l.data.to_vec(), l.writers.to_vec()))
                .collect();
            let dirty_old: DirtyImage = old
                .cache
                .dirty_line_views()
                .map(|l| (l.base, l.data.to_vec(), l.writers.clone()))
                .collect();
            assert_eq!(dirty_new, dirty_old, "{at}");
            assert_eq!(
                new.cache.dirty_line_bases(),
                old.cache.dirty_line_bases(),
                "{at}"
            );
            for line in 0..SPACE_LINES {
                let addr = line * LINE + 3;
                assert_eq!(new.cache.is_dirty(addr), old.cache.is_dirty(addr), "{at}");
                assert_eq!(
                    new.cache.line_view(addr).map(|l| l.data.to_vec()),
                    old.cache.line_view(addr).map(|l| l.data.to_vec()),
                    "{at}"
                );
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(192))]

        /// A perfect device: every observable agrees after every step.
        #[test]
        fn matches_the_reference_with_faults_off(
            geometry in 0usize..GEOMETRIES.len(),
            ops in prop::collection::vec((0u8..25, any::<u64>(), any::<u64>()), 1..240),
        ) {
            run(geometry, None, &ops);
        }

        /// All five fault classes on: both caches must hand the one
        /// sequential fault PRNG the same events in the same order, or the
        /// images, counters and ECC logs drift apart within a few steps.
        #[test]
        fn matches_the_reference_with_every_fault_class_on(
            geometry in 0usize..GEOMETRIES.len(),
            seed in any::<u64>(),
            ops in prop::collection::vec((0u8..25, any::<u64>(), any::<u64>()), 1..240),
        ) {
            let faults = FaultConfig {
                seed,
                torn_writeback_bp: 2_000,
                transient_persist_bp: 2_000,
                stuck_line_bp: 1_500,
                ecc_error_bp: 2_000,
                silent_error_bp: 1_500,
            };
            run(geometry, Some(faults), &ops);
        }
    }
}
