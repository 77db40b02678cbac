//! The top-level persistent-memory object: NVM backing store + volatile
//! write-back cache + allocator + statistics.

use crate::alloc::{Addr, BumpAllocator};
use crate::cache::{Resident, WriteBackCache};
use crate::config::NvmConfig;
use crate::fault::{DeviceFaults, FaultConfig, FlushOutcome};
use crate::stats::NvmStats;

/// An armed power-failure trigger. Checked after every store operation.
#[derive(Debug, Clone, Copy)]
enum CrashTrigger {
    /// No trigger armed.
    None,
    /// Trip once `natural_evictions` reaches this absolute count.
    AtEvictionCount(u64),
    /// Trip mid-`flush_all` after this many lines have been written back.
    DuringFlush(u64),
}

/// One cache line lost (or partially lost) to a crash.
#[derive(Debug, Clone)]
pub struct LostLine {
    /// Line-aligned base address of the lost line.
    pub base: u64,
    /// Writer tags (GPU block IDs) whose un-persisted stores were on it.
    pub writers: Vec<u64>,
    /// Whether the lost volatile content actually differed from the
    /// durable copy. A line can be dirty-but-equal (e.g. a value was
    /// rewritten identically); losing it changes nothing observable.
    pub changed: bool,
}

/// Everything a crash destroyed, captured at the instant of power failure.
/// Consumed by crash-injection oracles via
/// [`PersistMemory::take_crash_loss`].
#[derive(Debug, Clone, Default)]
pub struct CrashLoss {
    /// The dirty lines that were discarded.
    pub lines: Vec<LostLine>,
    /// `store_ops` at the instant of the crash.
    pub at_store_ops: u64,
    /// `natural_evictions` at the instant of the crash.
    pub at_evictions: u64,
}

impl CrashLoss {
    /// Deduplicated writer tags across every lost line whose content
    /// actually differed from the durable copy — the blocks that *must*
    /// fail validation.
    pub fn changed_writers(&self) -> Vec<u64> {
        let mut out: Vec<u64> = self
            .lines
            .iter()
            .filter(|l| l.changed)
            .flat_map(|l| l.writers.iter().copied())
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Deduplicated writer tags across all lost lines (changed or not).
    pub fn all_writers(&self) -> Vec<u64> {
        let mut out: Vec<u64> = self
            .lines
            .iter()
            .flat_map(|l| l.writers.iter().copied())
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }
}

/// A simulated persistent main memory as seen by the GPU.
///
/// All program loads and stores go through a volatile write-back cache; the
/// backing array only changes on write-back. Two views exist:
///
/// * the **volatile view** (`read_*`): what a running program observes;
/// * the **durable view** (`read_durable_*`): what would survive a crash
///   right now.
///
/// [`PersistMemory::crash`] collapses the volatile view onto the durable one,
/// which is exactly the failure model Lazy Persistency defends against.
///
/// # Examples
///
/// ```
/// use nvm::{NvmConfig, PersistMemory};
/// let mut mem = PersistMemory::new(NvmConfig::tiny_cache());
/// let a = mem.alloc(4 * 8, 8);
/// for i in 0..4 {
///     mem.write_u64(a.index(i, 8), i * 10);
/// }
/// assert_eq!(mem.read_u64(a.index(3, 8)), 30);
/// ```
#[derive(Debug, Clone)]
pub struct PersistMemory {
    cfg: NvmConfig,
    backing: Vec<u8>,
    cache: WriteBackCache,
    bump: BumpAllocator,
    stats: NvmStats,
    trigger: CrashTrigger,
    power_failed: bool,
    crash_loss: Option<CrashLoss>,
    writer: Option<u64>,
    dropped_stores: u64,
    faults: DeviceFaults,
    /// Quarantine remap, indexed by logical line number: the physical base
    /// of the line's replacement, or 0 for identity (no allocation sits at
    /// address 0). Lines the runtime retired via [`Self::quarantine_line`]
    /// are transparently redirected. The table only reaches the highest
    /// retired line, so it is empty in the normal case; once it is not,
    /// translating is one bounds-checked load.
    remap: Vec<u64>,
}

impl PersistMemory {
    /// Creates an empty memory with the given configuration, rejecting an
    /// invalid one instead of panicking.
    pub fn try_new(cfg: NvmConfig) -> Result<Self, String> {
        cfg.validate()?;
        let cache = WriteBackCache::new(&cfg);
        Ok(Self {
            cfg,
            backing: Vec::new(),
            cache,
            bump: BumpAllocator::new(),
            stats: NvmStats::default(),
            trigger: CrashTrigger::None,
            power_failed: false,
            crash_loss: None,
            writer: None,
            dropped_stores: 0,
            faults: DeviceFaults::off(),
            remap: Vec::new(),
        })
    }

    /// Creates an empty memory with the given configuration.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails [`NvmConfig::validate`].
    pub fn new(cfg: NvmConfig) -> Self {
        Self::try_new(cfg).unwrap_or_else(|e| panic!("invalid NvmConfig: {e}"))
    }

    /// Attaches (or with `None` removes) a device fault model. The model
    /// restarts from the beginning of its deterministic fault sequence.
    pub fn set_fault_config(&mut self, cfg: Option<FaultConfig>) {
        self.faults = DeviceFaults::new(cfg);
    }

    /// The attached fault configuration, if any.
    pub fn fault_config(&self) -> Option<FaultConfig> {
        self.faults.config().copied()
    }

    /// Drains the physical line bases whose fills hit ECC-detected (and
    /// corrected) media errors since the last call. One entry per event, so
    /// a decaying line appears repeatedly — the runtime's cue to retire it.
    pub fn take_ecc_log(&mut self) -> Vec<u64> {
        self.faults.take_ecc_log()
    }

    /// The active configuration.
    pub fn config(&self) -> &NvmConfig {
        &self.cfg
    }

    /// Accumulated traffic statistics.
    pub fn stats(&self) -> NvmStats {
        self.stats
    }

    /// Resets the statistics counters (e.g. between warm-up and measurement).
    pub fn reset_stats(&mut self) {
        self.stats = NvmStats::default();
    }

    /// Allocates `size` bytes aligned to `align` and zero-initialises the
    /// durable backing for them.
    ///
    /// # Panics
    ///
    /// Panics if `align` is not a power of two.
    pub fn alloc(&mut self, size: u64, align: u64) -> Addr {
        let addr = self.bump.alloc(size, align);
        let line = self.cfg.line_size as u64;
        let needed = (addr.raw() + size).div_ceil(line) * line;
        if needed as usize > self.backing.len() {
            self.backing.resize(needed as usize, 0);
        }
        addr
    }

    /// Total bytes of device address space allocated so far.
    pub fn allocated_bytes(&self) -> u64 {
        self.bump.used()
    }

    #[inline]
    fn check(&self, addr: Addr, len: usize) {
        if addr.is_null() || addr.raw() as usize + len > self.backing.len() {
            self.check_failed(addr, len);
        }
    }

    /// The panics of [`Self::check`], out of line so that the inlined
    /// accessors carry a compare and a call, not two formatted messages.
    #[cold]
    #[inline(never)]
    fn check_failed(&self, addr: Addr, len: usize) -> ! {
        if addr.is_null() {
            panic!("dereferenced null device address");
        }
        panic!(
            "device access out of bounds: {addr} + {len} > {}",
            self.backing.len()
        );
    }

    /// Whether `len > 0` bytes at `a` lie inside one cache line — true of
    /// every aligned typed access, which then skips the split loop.
    #[inline]
    fn in_one_line(&self, a: u64, len: usize) -> bool {
        let line = self.cfg.line_size;
        len.wrapping_sub(1) < line - (a as usize & (line - 1))
    }

    /// Translates a (logical) device address through the quarantine remap.
    /// Identity unless the address' line has been retired; remap targets
    /// are fresh allocations, so chains cannot form and one hop suffices.
    /// The `is_empty` test keeps the normal case (nothing quarantined) to
    /// one compare per access.
    #[inline]
    fn translate(&self, a: u64) -> u64 {
        if self.remap.is_empty() {
            return a;
        }
        let line = self.cfg.line_size as u64;
        match self.remap.get((a >> line.trailing_zeros()) as usize) {
            Some(&phys) if phys != 0 => phys + (a & (line - 1)),
            _ => a,
        }
    }

    /// Reads raw bytes through the cache (volatile view). Accesses may cross
    /// line boundaries; they are split internally.
    ///
    /// Always inlined, so that an accessor passing a fixed-size buffer gets
    /// a one-line hit path whose copy is a single move.
    #[inline(always)]
    pub fn read_bytes(&mut self, addr: Addr, buf: &mut [u8]) {
        self.read_line(addr, buf);
    }

    /// [`Self::read_bytes`], returning where the line of a one-line access
    /// now sits (`None` for an access split across lines).
    #[inline(always)]
    fn read_line(&mut self, addr: Addr, buf: &mut [u8]) -> Option<Resident> {
        self.check(addr, buf.len());
        self.stats.load_ops += 1;
        if self.in_one_line(addr.raw(), buf.len()) {
            let phys = self.translate(addr.raw());
            Some(self.cache.read(
                phys,
                buf,
                &mut self.backing,
                &mut self.stats,
                &mut self.faults,
            ))
        } else {
            self.read_split(addr, buf);
            None
        }
    }

    /// Reads the `count` words at `addr`, `addr + stride`, … in order,
    /// handing each to `f` until `f` returns `false`, and returns how many
    /// words were read. Access for access this is the loop of
    /// [`Self::read_u64`] calls it replaces — the same [`NvmStats`], LRU
    /// order, fills and fault rolls — but it books a same-line run once:
    /// the first word in each line takes the full path (bounds check,
    /// remap, lookup or miss), and the words after it in that line are
    /// copied straight from the line and booked together as hits.
    ///
    /// # Examples
    ///
    /// ```
    /// use nvm::{NvmConfig, PersistMemory};
    /// let mut mem = PersistMemory::new(NvmConfig::tiny_cache());
    /// let a = mem.alloc(8 * 8, 8);
    /// for i in 0..8 {
    ///     mem.write_u64(a.index(i, 8), i * 10);
    /// }
    /// let mut seen = Vec::new();
    /// let read = mem.scan_u64(a, 8, 8, |w| {
    ///     seen.push(w);
    ///     w < 30
    /// });
    /// assert_eq!((read, seen), (4, vec![0, 10, 20, 30]));
    /// ```
    pub fn scan_u64(
        &mut self,
        addr: Addr,
        stride: u64,
        count: u64,
        mut f: impl FnMut(u64) -> bool,
    ) -> u64 {
        self.scan(addr, stride, count, |w| f(u64::from_le_bytes(w)))
    }

    /// [`Self::scan_u64`] for 4-byte words: `u32`s, or `f32`s through
    /// [`f32::from_bits`].
    pub fn scan_u32(
        &mut self,
        addr: Addr,
        stride: u64,
        count: u64,
        mut f: impl FnMut(u32) -> bool,
    ) -> u64 {
        self.scan(addr, stride, count, |w| f(u32::from_le_bytes(w)))
    }

    /// The run loop of [`Self::scan_u64`] for `N`-byte words.
    #[inline(always)]
    fn scan<const N: usize>(
        &mut self,
        addr: Addr,
        stride: u64,
        count: u64,
        mut f: impl FnMut([u8; N]) -> bool,
    ) -> u64 {
        let line = self.cfg.line_size as u64;
        let mut i = 0;
        while i < count {
            let a = addr.raw() + i * stride;
            let mut word = [0u8; N];
            let open = self.read_line(Addr::new(a), &mut word);
            i += 1;
            if !f(word) {
                return i;
            }
            let Some(at) = open else { continue };
            // The backing store grows in whole lines, so every word in a
            // line whose first word passed the bounds check is in bounds.
            let base = a & !(line - 1);
            let data = self.cache.line_data(at);
            let (mut hits, mut stopped) = (0, false);
            while i < count && !stopped {
                let b = addr.raw() + i * stride;
                if b & !(line - 1) != base || !self.in_one_line(b, N) {
                    break;
                }
                let off = (b - base) as usize;
                word.copy_from_slice(&data[off..off + N]);
                hits += 1;
                i += 1;
                stopped = !f(word);
            }
            if hits > 0 {
                self.stats.load_ops += hits;
                self.cache.book_hits(at, hits, &mut self.stats);
            }
            if stopped {
                return i;
            }
        }
        count
    }

    /// Reads `M` contiguous streams of `count` `N`-byte words in lockstep:
    /// word `i` of every stream, in stream order, then word `i + 1`, handing
    /// each round to `f(i, words)`. Access for access this is the loop of
    /// `M` typed reads per round it replaces — the same [`NvmStats`], LRU
    /// order, fills and fault rolls.
    ///
    /// Each stream keeps its current line open once a full access has left
    /// it resident, and its later words in that line are copied straight
    /// from the line. Their hits are counted as they happen, but the line's
    /// LRU stamp is deferred: hits inside an open line never change cache
    /// structure, so nothing can observe the stamp until the next full
    /// access, which first settles every open line (`last_use` becomes the
    /// later of its own and the deferred tick — two streams may share a
    /// line). A miss can evict and `swap_remove` moves ways, so any miss
    /// closes every open line.
    ///
    /// # Examples
    ///
    /// ```
    /// use nvm::{NvmConfig, PersistMemory};
    /// let mut mem = PersistMemory::new(NvmConfig::tiny_cache());
    /// let a = mem.alloc(4 * 4, 4);
    /// let b = mem.alloc(4 * 4, 4);
    /// mem.write_run_u32(a, [1, 2, 3, 4]);
    /// mem.write_run_u32(b, [10, 20, 30, 40]);
    /// let mut sums = Vec::new();
    /// mem.read_runs::<2, 4>([a, b], 4, |_, [x, y]| {
    ///     sums.push(u32::from_le_bytes(x) + u32::from_le_bytes(y));
    /// });
    /// assert_eq!(sums, [11, 22, 33, 44]);
    /// ```
    pub fn read_runs<const M: usize, const N: usize>(
        &mut self,
        starts: [Addr; M],
        count: u64,
        mut f: impl FnMut(u64, [[u8; N]; M]),
    ) {
        /// A stream's open line: its logical base, where it sits, and the
        /// tick of its last deferred hit (0: nothing deferred).
        #[derive(Clone, Copy)]
        struct Open {
            base: u64,
            at: Resident,
            last: u64,
        }
        let line = self.cfg.line_size as u64;
        let width = N as u64;
        let mut open: [Option<Open>; M] = [None; M];
        let mut i = 0;
        while i < count {
            // Rounds every stream can serve from its open line: booked and
            // copied in one go, stream `j`'s hit in round `k` at tick
            // `t + k·M + j + 1`.
            let rounds = (0..M)
                .map(|j| match open[j] {
                    Some(o) => {
                        let a = starts[j].raw() + i * width;
                        let end = o.base + line;
                        if a >= o.base && a + width <= end {
                            (end - a) / width
                        } else {
                            0
                        }
                    }
                    None => 0,
                })
                .min()
                .unwrap_or(0)
                .min(count - i);
            if rounds > 0 {
                let hits = rounds * M as u64;
                let t = self.cache.count_hits(hits, &mut self.stats) - hits;
                self.stats.load_ops += hits;
                let runs: [(&[u8], usize); M] = std::array::from_fn(|j| {
                    let o = open[j].as_mut().expect("every stream is open");
                    o.last = t + (rounds - 1) * M as u64 + j as u64 + 1;
                    let a = starts[j].raw() + i * width;
                    (self.cache.line_data(o.at), (a - o.base) as usize)
                });
                for k in 0..rounds as usize {
                    f(
                        i + k as u64,
                        runs.map(|(data, off)| {
                            let at = off + k * N;
                            data[at..at + N].try_into().expect("N bytes")
                        }),
                    );
                }
                i += rounds;
                continue;
            }
            let mut words = [[0u8; N]; M];
            for (j, word) in words.iter_mut().enumerate() {
                let a = starts[j].raw() + i * width;
                match &mut open[j] {
                    Some(o) if a & !(line - 1) == o.base && self.in_one_line(a, N) => {
                        self.stats.load_ops += 1;
                        o.last = self.cache.count_hits(1, &mut self.stats);
                        let off = (a - o.base) as usize;
                        word.copy_from_slice(&self.cache.line_data(o.at)[off..off + N]);
                    }
                    _ => {
                        for o in open.iter_mut().flatten() {
                            if o.last != 0 {
                                self.cache.stamp(o.at, o.last);
                                o.last = 0;
                            }
                        }
                        let misses = self.stats.cache_misses;
                        let at = self.read_line(Addr::new(a), word);
                        if self.stats.cache_misses != misses {
                            open = [None; M];
                        }
                        open[j] = at.map(|at| Open {
                            base: a & !(line - 1),
                            at,
                            last: 0,
                        });
                    }
                }
            }
            f(i, words);
            i += 1;
        }
        for o in open.iter().flatten() {
            if o.last != 0 {
                self.cache.stamp(o.at, o.last);
            }
        }
    }

    /// The general case of [`Self::read_bytes`]: one cache access per line
    /// the range touches (none for an empty range).
    fn read_split(&mut self, addr: Addr, buf: &mut [u8]) {
        let line = self.cfg.line_size as u64;
        let mut off = 0usize;
        while off < buf.len() {
            let a = addr.raw() + off as u64;
            let in_line = (line - (a % line)) as usize;
            let chunk = in_line.min(buf.len() - off);
            let phys = self.translate(a);
            self.cache.read(
                phys,
                &mut buf[off..off + chunk],
                &mut self.backing,
                &mut self.stats,
                &mut self.faults,
            );
            off += chunk;
        }
    }

    /// Writes raw bytes through the cache (volatile until evicted/flushed).
    ///
    /// If an armed crash trigger fires during or after this store, the
    /// memory powers off: the write may be (partially) lost with the rest
    /// of the volatile state. While powered off, stores are dropped.
    #[inline(always)]
    pub fn write_bytes(&mut self, addr: Addr, buf: &[u8]) {
        self.write_line(addr, buf);
    }

    /// [`Self::write_bytes`], returning where the line of a one-line store
    /// now sits (`None` for a store split across lines, dropped, or whose
    /// trigger powered the memory off).
    #[inline(always)]
    fn write_line(&mut self, addr: Addr, buf: &[u8]) -> Option<Resident> {
        self.check(addr, buf.len());
        if self.power_failed {
            self.dropped_stores += 1;
            return None;
        }
        self.stats.store_ops += 1;
        let at = if self.in_one_line(addr.raw(), buf.len()) {
            let phys = self.translate(addr.raw());
            Some(self.cache.write(
                phys,
                buf,
                &mut self.backing,
                &mut self.stats,
                &mut self.faults,
                self.writer,
            ))
        } else {
            self.write_split(addr, buf);
            None
        };
        self.check_trigger();
        at.filter(|_| !self.power_failed)
    }

    /// Writes `words` to consecutive `u32`s from `addr`: the loop of
    /// [`Self::write_u32`] calls it replaces, store for store — the same
    /// [`NvmStats`], LRU order, writer tags, evictions, fault rolls, crash
    /// trigger and dropped-store count — with a same-line run booked once,
    /// as in [`Self::scan_u64`]. Only the first store in each line can miss,
    /// hence evict, so the eviction trigger is checked after it; the stores
    /// after a power failure are dropped (and counted) one by one.
    ///
    /// `words` is consumed lazily: an upload passes its slice's iterator
    /// and nothing is copied.
    pub fn write_run_u32(&mut self, addr: Addr, words: impl IntoIterator<Item = u32>) {
        self.write_run(addr, words.into_iter().map(u32::to_le_bytes));
    }

    /// [`Self::write_run_u32`] for consecutive `u64`s.
    pub fn write_run_u64(&mut self, addr: Addr, words: impl IntoIterator<Item = u64>) {
        self.write_run(addr, words.into_iter().map(u64::to_le_bytes));
    }

    /// The run loop of [`Self::write_run_u32`] for `N`-byte words.
    fn write_run<const N: usize>(&mut self, addr: Addr, mut words: impl Iterator<Item = [u8; N]>) {
        let line = self.cfg.line_size as u64;
        let mut a = addr.raw();
        while let Some(first) = words.next() {
            let open = self.write_line(Addr::new(a), &first);
            a += N as u64;
            let Some(at) = open else { continue };
            let base = (a - N as u64) & !(line - 1);
            let mut hits = 0;
            while a & !(line - 1) == base && self.in_one_line(a, N) {
                let Some(word) = words.next() else { break };
                self.cache.copy_in(at, (a - base) as usize, &word);
                hits += 1;
                a += N as u64;
            }
            if hits > 0 {
                self.stats.store_ops += hits;
                self.cache.book_hits(at, hits, &mut self.stats);
                self.cache.tag(at, self.writer);
            }
        }
    }

    /// The general case of [`Self::write_bytes`], as [`Self::read_split`].
    fn write_split(&mut self, addr: Addr, buf: &[u8]) {
        let line = self.cfg.line_size as u64;
        let mut off = 0usize;
        while off < buf.len() {
            let a = addr.raw() + off as u64;
            let in_line = (line - (a % line)) as usize;
            let chunk = in_line.min(buf.len() - off);
            let phys = self.translate(a);
            self.cache.write(
                phys,
                &buf[off..off + chunk],
                &mut self.backing,
                &mut self.stats,
                &mut self.faults,
                self.writer,
            );
            off += chunk;
        }
    }

    /// Reads bytes from the durable view only (what a crash would preserve).
    /// Does not perturb the cache or statistics.
    pub fn read_durable_bytes(&self, addr: Addr, buf: &mut [u8]) {
        self.check(addr, buf.len());
        if self.remap.is_empty() {
            let b = addr.raw() as usize;
            buf.copy_from_slice(&self.backing[b..b + buf.len()]);
            return;
        }
        let line = self.cfg.line_size as u64;
        let mut off = 0usize;
        while off < buf.len() {
            let a = addr.raw() + off as u64;
            let in_line = (line - (a % line)) as usize;
            let chunk = in_line.min(buf.len() - off);
            let p = self.translate(a) as usize;
            buf[off..off + chunk].copy_from_slice(&self.backing[p..p + chunk]);
            off += chunk;
        }
    }

    /// Number of dirty (non-durable) lines currently in the cache.
    pub fn dirty_lines(&self) -> usize {
        self.cache.dirty_lines()
    }

    /// Simulates power loss: all volatile state is discarded. The program's
    /// view afterwards equals the durable view. The lost-line inventory is
    /// captured and retrievable via [`Self::take_crash_loss`].
    ///
    /// Unlike a *triggered* crash, calling this directly models an instant
    /// crash-and-reboot: the memory stays powered on afterwards.
    pub fn crash(&mut self) {
        self.capture_loss();
        self.cache.crash();
    }

    // ---- crash triggers -----------------------------------------------

    /// Arms a power failure after `n` more natural (capacity) evictions.
    /// The trigger fires at the end of the store operation whose eviction
    /// crossed the threshold.
    pub fn arm_crash_after_evictions(&mut self, n: u64) {
        self.trigger = CrashTrigger::AtEvictionCount(self.stats.natural_evictions + n);
    }

    /// Arms a power failure in the middle of the next [`Self::flush_all`]:
    /// the flush writes back `after_lines` dirty lines, then power fails
    /// with the remainder still volatile.
    pub fn arm_crash_during_flush(&mut self, after_lines: u64) {
        self.trigger = CrashTrigger::DuringFlush(after_lines);
    }

    /// Disarms any armed crash trigger.
    pub fn disarm_crash(&mut self) {
        self.trigger = CrashTrigger::None;
    }

    /// Whether a triggered power failure has occurred and the memory is
    /// still powered off (stores are being dropped).
    pub fn power_failed(&self) -> bool {
        self.power_failed
    }

    /// Restores power after a triggered failure. The volatile state is
    /// already gone; the program sees the durable view, exactly as after
    /// a reboot. Any armed trigger stays disarmed.
    pub fn power_on(&mut self) {
        self.power_failed = false;
    }

    /// Number of store operations dropped while powered off.
    pub fn dropped_stores(&self) -> u64 {
        self.dropped_stores
    }

    /// Sets the writer tag (e.g. the executing GPU block ID) attached to
    /// subsequent stores, for crash-loss attribution.
    pub fn set_writer(&mut self, writer: Option<u64>) {
        self.writer = writer;
    }

    /// Takes the inventory of what the most recent crash destroyed.
    pub fn take_crash_loss(&mut self) -> Option<CrashLoss> {
        self.crash_loss.take()
    }

    #[inline]
    fn check_trigger(&mut self) {
        let fire = match self.trigger {
            CrashTrigger::None | CrashTrigger::DuringFlush(_) => false,
            CrashTrigger::AtEvictionCount(target) => self.stats.natural_evictions >= target,
        };
        if fire {
            self.trip();
        }
    }

    /// Power failure: capture the loss, discard volatile state, drop
    /// subsequent stores until [`Self::power_on`].
    #[cold]
    fn trip(&mut self) {
        self.trigger = CrashTrigger::None;
        self.capture_loss();
        self.cache.crash();
        self.power_failed = true;
    }

    /// Records every dirty line (with writers and changed-content flag)
    /// into `crash_loss`, replacing any earlier capture.
    fn capture_loss(&mut self) {
        let lines = self
            .cache
            .dirty_line_views()
            .map(|l| {
                let b = l.base as usize;
                let changed = match self.backing.get(b..b + l.data.len()) {
                    Some(durable) => durable != l.data,
                    None => true,
                };
                LostLine {
                    base: l.base,
                    writers: l.writers.to_vec(),
                    changed,
                }
            })
            .collect();
        self.crash_loss = Some(CrashLoss {
            lines,
            at_store_ops: self.stats.store_ops,
            at_evictions: self.stats.natural_evictions,
        });
    }

    /// Writes back every dirty line (whole-cache flush / checkpoint
    /// boundary, §IV-A of the paper). If a mid-flush crash is armed, only
    /// the armed number of lines persists before power fails.
    ///
    /// Returns how many dirty lines remain because the device failed their
    /// write-back (or power was already off / fails mid-flush). Zero means
    /// everything persisted — on a perfect device this always returns
    /// zero; under a fault model a non-zero result is the caller's cue to
    /// retry or quarantine.
    pub fn flush_all(&mut self) -> u64 {
        if self.power_failed {
            return self.cache.dirty_lines() as u64;
        }
        if let CrashTrigger::DuringFlush(budget) = self.trigger {
            let flushed =
                self.cache
                    .flush_upto(budget, &mut self.backing, &mut self.stats, &mut self.faults);
            if flushed >= budget {
                self.trip();
                return self.cache.dirty_lines() as u64;
            }
            // Fewer dirty lines than the budget: the flush completed
            // before the crash point — the trigger stays armed.
            self.trigger = CrashTrigger::DuringFlush(budget - flushed);
            return self.cache.dirty_lines() as u64;
        }
        self.cache
            .flush_all(&mut self.backing, &mut self.stats, &mut self.faults)
    }

    /// Writes back the single cache line containing `addr` (`clwb`): the
    /// Eager Persistency primitive. The device's verdict distinguishes
    /// "nothing to do" from "persisted" from "the device refused and the
    /// line is still dirty".
    pub fn flush_line(&mut self, addr: Addr) -> FlushOutcome {
        self.check(addr, 1);
        if self.power_failed {
            return FlushOutcome::Clean;
        }
        let phys = self.translate(addr.raw());
        self.cache
            .flush_line(phys, &mut self.backing, &mut self.stats, &mut self.faults)
    }

    /// Pushes the line containing `addr` into the ADR-backed memory queue.
    ///
    /// ADR (asynchronous DRAM refresh) semantics: once a write reaches the
    /// memory controller's queue it is guaranteed durable — residual energy
    /// drains the queue on power loss. Accepting a line is therefore
    /// observationally equivalent to an immediate durable write-back, which
    /// is exactly how it is modelled; the separate [`NvmStats::adr_accepts`]
    /// counter keeps the traffic distinguishable from `clwb`-style flushes.
    /// The verdict is [`Self::flush_line`]'s: "already clean", "accepted",
    /// or "the queue refused the line" (retry the latter).
    pub fn adr_accept(&mut self, addr: Addr) -> FlushOutcome {
        let outcome = self.flush_line(addr);
        if outcome == FlushOutcome::Persisted {
            self.stats.adr_accepts += 1;
        }
        outcome
    }

    /// Sorted physical base addresses of the currently dirty lines.
    pub fn dirty_line_bases(&self) -> Vec<u64> {
        self.cache.dirty_line_bases()
    }

    /// The dirty lines with their writer tags, sorted by physical base.
    pub fn dirty_line_info(&self) -> Vec<(u64, Vec<u64>)> {
        let mut v: Vec<(u64, Vec<u64>)> = self
            .cache
            .dirty_line_views()
            .map(|l| (l.base, l.writers.to_vec()))
            .collect();
        v.sort_by_key(|e| e.0);
        v
    }

    /// Drops every *clean* resident line so subsequent reads observe the
    /// durable image. Dirty (non-durable) lines stay. Resilient recovery
    /// calls this before validating: a torn write-back leaves the intact
    /// copy cached, and validating against that copy would wrongly pass.
    pub fn invalidate_clean_lines(&mut self) {
        self.cache.invalidate_clean();
    }

    /// Retires the (physical) line containing `base` and remaps its logical
    /// line to a freshly allocated one, copying the current content across
    /// — the software analogue of a device firmware retiring a worn-out
    /// line from its spare pool. The copy is made durable directly (it does
    /// not pass through the cache or the fault model's write-back path), so
    /// after quarantine the line's volatile and durable views agree.
    /// Returns the new physical line address.
    pub fn quarantine_line(&mut self, base: u64) -> Addr {
        let line = self.cfg.line_size;
        let base = base & !(line as u64 - 1);
        // `base` may itself already be a remap target; resolve the logical
        // line so the table stays single-hop (targets are fresh
        // allocations, never logical lines, so chains cannot form). Identity
        // entries are 0, which no target is.
        let logical = match self.remap.iter().position(|&p| p == base && p != 0) {
            Some(l) => l as u64 * line as u64,
            None => base,
        };
        let phys = self.translate(logical);
        let snapshot: Vec<u8> = match self.cache.line_view(phys) {
            Some(l) => l.data.to_vec(),
            None => match self.backing.get(phys as usize..phys as usize + line) {
                Some(s) => s.to_vec(),
                None => vec![0; line],
            },
        };
        self.cache.discard_line(phys);
        let new = self.alloc(line as u64, line as u64);
        let nb = new.raw() as usize;
        self.backing[nb..nb + line].copy_from_slice(&snapshot);
        let slot = (logical / line as u64) as usize;
        if slot >= self.remap.len() {
            self.remap.resize(slot + 1, 0);
        }
        self.remap[slot] = new.raw();
        self.stats.nvm_writes += 1;
        self.stats.nvm_write_bytes += line as u64;
        self.stats.quarantined_lines += 1;
        new
    }

    // ---- typed volatile accessors ------------------------------------

    /// Reads a `u32` (volatile view).
    #[inline]
    pub fn read_u32(&mut self, addr: Addr) -> u32 {
        let mut b = [0u8; 4];
        self.read_bytes(addr, &mut b);
        u32::from_le_bytes(b)
    }

    /// Writes a `u32`.
    #[inline]
    pub fn write_u32(&mut self, addr: Addr, v: u32) {
        self.write_bytes(addr, &v.to_le_bytes());
    }

    /// Reads a `u64` (volatile view).
    #[inline]
    pub fn read_u64(&mut self, addr: Addr) -> u64 {
        let mut b = [0u8; 8];
        self.read_bytes(addr, &mut b);
        u64::from_le_bytes(b)
    }

    /// Writes a `u64`.
    #[inline]
    pub fn write_u64(&mut self, addr: Addr, v: u64) {
        self.write_bytes(addr, &v.to_le_bytes());
    }

    /// Reads an `f32` (volatile view).
    #[inline]
    pub fn read_f32(&mut self, addr: Addr) -> f32 {
        f32::from_bits(self.read_u32(addr))
    }

    /// Writes an `f32`.
    #[inline]
    pub fn write_f32(&mut self, addr: Addr, v: f32) {
        self.write_u32(addr, v.to_bits());
    }

    /// Writes an `f64`.
    #[inline]
    pub fn write_f64(&mut self, addr: Addr, v: f64) {
        self.write_u64(addr, v.to_bits());
    }

    // ---- typed durable accessor ---------------------------------------

    /// Reads a `u64` from the durable view.
    pub fn read_durable_u64(&self, addr: Addr) -> u64 {
        let mut b = [0u8; 8];
        self.read_durable_bytes(addr, &mut b);
        u64::from_le_bytes(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mem() -> PersistMemory {
        PersistMemory::new(NvmConfig {
            line_size: 32,
            cache_lines: 8,
            associativity: 2,
        })
    }

    #[test]
    fn roundtrip_all_types() {
        let mut m = mem();
        let a = m.alloc(64, 8);
        m.write_u32(a, 0xDEAD_BEEF);
        m.write_u64(a.offset(8), u64::MAX - 3);
        m.write_f32(a.offset(16), -1.5);
        m.write_f64(a.offset(24), 6.02e23);
        assert_eq!(m.read_u32(a), 0xDEAD_BEEF);
        assert_eq!(m.read_u64(a.offset(8)), u64::MAX - 3);
        assert_eq!(m.read_f32(a.offset(16)), -1.5);
        assert_eq!(f64::from_bits(m.read_u64(a.offset(24))), 6.02e23);
    }

    #[test]
    fn crash_reverts_to_durable_view() {
        let mut m = mem();
        let a = m.alloc(8, 8);
        m.write_u64(a, 1);
        m.flush_all();
        m.write_u64(a, 2);
        assert_eq!(m.read_u64(a), 2);
        assert_eq!(m.read_durable_u64(a), 1);
        m.crash();
        assert_eq!(m.read_u64(a), 1);
    }

    #[test]
    fn natural_eviction_persists_without_flush() {
        // Tiny cache: writing many lines forces evictions, persisting early
        // stores with no flush — the LP persistence mechanism.
        let mut m = PersistMemory::new(NvmConfig {
            line_size: 32,
            cache_lines: 4,
            associativity: 2,
        });
        let a = m.alloc(32 * 64, 32);
        for i in 0..64 {
            m.write_u64(a.offset(i * 32), i);
        }
        assert!(m.stats().natural_evictions > 0);
        // The earliest line must have been evicted and thus persisted.
        assert_eq!(m.read_durable_u64(a), 0);
        m.crash();
        assert_eq!(m.read_u64(a), 0);
    }

    #[test]
    fn cross_line_access_is_split() {
        let mut m = mem();
        let a = m.alloc(128, 32);
        let data: Vec<u8> = (0..60).collect();
        m.write_bytes(a.offset(10), &data); // crosses two line boundaries
        let mut out = vec![0u8; 60];
        m.read_bytes(a.offset(10), &mut out);
        assert_eq!(out, data);
    }

    #[test]
    fn store_and_load_ops_counted() {
        let mut m = mem();
        let a = m.alloc(8, 8);
        m.write_u64(a, 5);
        m.read_u64(a);
        m.read_u64(a);
        let st = m.stats();
        assert_eq!(st.store_ops, 1);
        assert_eq!(st.load_ops, 2);
    }

    #[test]
    #[should_panic(expected = "null device address")]
    fn null_deref_panics() {
        let mut m = mem();
        m.read_u32(Addr::NULL);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn oob_access_panics() {
        let mut m = mem();
        let a = m.alloc(8, 8);
        let mut b = [0u8; 8];
        m.read_durable_bytes(a.offset(1 << 20), &mut b);
    }

    #[test]
    fn reset_stats_clears_counters() {
        let mut m = mem();
        let a = m.alloc(8, 8);
        m.write_u64(a, 1);
        m.reset_stats();
        assert_eq!(m.stats(), NvmStats::default());
    }

    #[test]
    fn alloc_zero_initialises() {
        let mut m = mem();
        let a = m.alloc(256, 8);
        for i in 0..32 {
            assert_eq!(m.read_u64(a.offset(i * 8)), 0);
        }
    }

    /// Small cache so a stream of line-stride stores forces evictions.
    fn evicting_mem() -> PersistMemory {
        PersistMemory::new(NvmConfig {
            line_size: 32,
            cache_lines: 4,
            associativity: 2,
        })
    }

    #[test]
    fn eviction_trigger_trips_at_exact_count() {
        let mut m = evicting_mem();
        let a = m.alloc(32 * 64, 32);
        m.arm_crash_after_evictions(3);
        let mut wrote = 0;
        for i in 0..64 {
            m.write_u64(a.offset(i * 32), i + 1);
            if m.power_failed() {
                break;
            }
            wrote += 1;
        }
        assert!(m.power_failed(), "trigger never fired");
        assert!(wrote < 64, "all stores landed despite the crash");
        assert_eq!(m.stats().natural_evictions, 3);
        // The 3 evicted lines are durable; everything else is gone.
        let loss = m.take_crash_loss().expect("loss captured");
        assert!(!loss.lines.is_empty());
        assert_eq!(loss.at_evictions, 3);
    }

    #[test]
    fn stores_dropped_while_powered_off_then_power_on_restores() {
        let mut m = evicting_mem();
        let a = m.alloc(32 * 8, 32);
        m.write_u64(a, 7);
        m.flush_all();
        m.arm_crash_after_evictions(1);
        // Seven dirty lines into a four-line cache: power fails mid-stream.
        for i in 1..8 {
            m.write_u64(a.offset(i * 32), i);
        }
        assert!(m.power_failed());
        assert!(m.dropped_stores() > 0, "later stores dropped, not cached");
        m.write_u64(a, 9); // dropped
        m.power_on();
        assert_eq!(m.read_u64(a), 7, "only the flushed value survives");
        m.write_u64(a, 10);
        assert_eq!(m.read_u64(a), 10, "memory works normally after power_on");
    }

    #[test]
    fn mid_flush_crash_persists_only_budgeted_lines() {
        let mut m = mem(); // 32B lines, roomy enough to keep 4 dirty lines
        let a = m.alloc(32 * 4, 32);
        for i in 0..4 {
            m.write_u64(a.offset(i * 32), 0xAB + i);
        }
        assert_eq!(m.dirty_lines(), 4);
        m.arm_crash_during_flush(2);
        m.flush_all();
        assert!(m.power_failed());
        m.power_on();
        let durable = (0..4)
            .filter(|&i| m.read_u64(a.offset(i * 32)) == 0xAB + i)
            .count();
        assert_eq!(durable, 2, "exactly the flush budget persisted");
        let loss = m.take_crash_loss().expect("loss captured");
        assert_eq!(loss.lines.len(), 2, "the other two lines were lost");
    }

    #[test]
    fn flush_completing_under_budget_keeps_trigger_armed() {
        let mut m = mem();
        let a = m.alloc(32 * 4, 32);
        m.write_u64(a, 1);
        m.arm_crash_during_flush(5);
        m.flush_all(); // only 1 dirty line: completes, no crash
        assert!(!m.power_failed());
        assert_eq!(m.read_durable_u64(a), 1);
        for i in 0..4 {
            m.write_u64(a.offset(i * 32), 9);
        }
        m.flush_all(); // 4 more dirty lines cross the remaining budget of 4
        assert!(m.power_failed());
    }

    #[test]
    fn crash_loss_records_writers_and_changed() {
        let mut m = mem();
        let a = m.alloc(128, 32);
        m.write_u64(a, 5);
        m.flush_all();
        // Rewrite the same value (dirty but unchanged), tagged block 3.
        m.set_writer(Some(3));
        m.write_u64(a, 5);
        // A genuinely new value on another line, tagged block 4.
        m.set_writer(Some(4));
        m.write_u64(a.offset(64), 17);
        m.set_writer(None);
        m.crash();
        let loss = m.take_crash_loss().expect("loss captured");
        assert_eq!(loss.all_writers(), vec![3, 4]);
        assert_eq!(
            loss.changed_writers(),
            vec![4],
            "dirty-but-equal line is not 'changed'"
        );
    }

    #[test]
    fn disarm_prevents_the_crash() {
        let mut m = evicting_mem();
        let a = m.alloc(32 * 64, 32);
        m.arm_crash_after_evictions(1);
        m.disarm_crash();
        for i in 0..64 {
            m.write_u64(a.offset(i * 32), i);
        }
        assert!(!m.power_failed());
    }

    #[test]
    fn try_new_rejects_invalid_config() {
        let bad = NvmConfig {
            associativity: 0,
            ..NvmConfig::default()
        };
        assert!(PersistMemory::try_new(bad).is_err());
        let bad_line = NvmConfig {
            line_size: 4, // below the 8-byte persist word
            ..NvmConfig::default()
        };
        assert!(PersistMemory::try_new(bad_line).is_err());
        assert!(PersistMemory::try_new(NvmConfig::tiny_cache()).is_ok());
    }

    #[test]
    fn inactive_fault_model_is_bit_identical_to_none() {
        let drive = |m: &mut PersistMemory| {
            let a = m.alloc(32 * 64, 32);
            for i in 0..64 {
                m.write_u64(a.offset(i * 32), i * 3);
            }
            for i in 0..64 {
                m.read_u64(a.offset(i * 32));
            }
            m.flush_all();
            a
        };
        let mut plain = evicting_mem();
        let a1 = drive(&mut plain);
        let mut modeled = evicting_mem();
        modeled.set_fault_config(Some(FaultConfig::none(42)));
        let a2 = drive(&mut modeled);
        assert_eq!(plain.stats(), modeled.stats(), "zero-cost when off");
        for i in 0..64 {
            assert_eq!(
                plain.read_durable_u64(a1.offset(i * 32)),
                modeled.read_durable_u64(a2.offset(i * 32))
            );
        }
    }

    #[test]
    fn torn_writeback_breaks_durable_view_silently() {
        let mut m = evicting_mem();
        m.set_fault_config(Some(FaultConfig::torn(7, 10_000)));
        let a = m.alloc(32, 32);
        for i in 0..4 {
            m.write_u64(a.offset(i * 8), 0x1111_1111_1111_1111 * (i + 1));
        }
        assert_eq!(m.flush_all(), 0, "a torn persist reports success");
        assert!(m.stats().torn_writebacks >= 1);
        m.crash();
        let intact = (0..4)
            .filter(|&i| m.read_u64(a.offset(i * 8)) == 0x1111_1111_1111_1111 * (i + 1))
            .count();
        assert!(intact < 4, "the tear must have dropped a suffix");
    }

    #[test]
    fn transient_failures_surface_through_flush_all() {
        let mut m = evicting_mem();
        m.set_fault_config(Some(FaultConfig {
            transient_persist_bp: 10_000,
            ..FaultConfig::none(7)
        }));
        let a = m.alloc(8, 8);
        m.write_u64(a, 99);
        assert_eq!(m.flush_all(), 1, "the line stayed dirty");
        assert_eq!(m.dirty_lines(), 1);
        // Drop the model: the retry now succeeds, like a transient fault
        // clearing.
        m.set_fault_config(None);
        assert_eq!(m.flush_all(), 0);
        assert_eq!(m.read_durable_u64(a), 99);
    }

    #[test]
    fn quarantine_remaps_transparently() {
        let mut m = mem();
        let a = m.alloc(64, 32);
        m.write_u64(a, 41);
        m.flush_all();
        m.write_u64(a, 42); // dirty volatile content must survive the move
        let old_phys = a.raw();
        let new_phys = m.quarantine_line(old_phys);
        assert_ne!(new_phys.raw(), old_phys);
        assert_eq!(m.stats().quarantined_lines, 1);
        assert_eq!(m.read_u64(a), 42, "volatile content carried across");
        assert_eq!(m.read_durable_u64(a), 42, "firmware copy is durable");
        assert_eq!(m.dirty_lines(), 0, "remapped line starts clean");
        // Stores keep flowing to the new physical line.
        m.write_u64(a, 43);
        m.flush_all();
        assert_eq!(m.read_durable_u64(a), 43);
        m.crash();
        assert_eq!(m.read_u64(a), 43);
    }

    #[test]
    fn quarantining_a_remapped_line_does_not_chain() {
        let mut m = mem();
        let a = m.alloc(32, 32);
        m.write_u64(a, 7);
        m.flush_all();
        let first = m.quarantine_line(a.raw());
        // Retire the *new* physical line: the logical address must follow.
        let second = m.quarantine_line(first.raw());
        assert_ne!(second.raw(), first.raw());
        assert_eq!(m.read_u64(a), 7);
        assert_eq!(m.read_durable_u64(a), 7);
        assert_eq!(m.stats().quarantined_lines, 2);
    }

    #[test]
    fn clones_with_remaps_translate_independently() {
        let mut m = mem(); // 32-byte lines
        let a = m.alloc(32 * 4, 32);
        for i in 0..4 {
            m.write_u64(a.offset(i * 32), 10 + i);
        }
        m.flush_all();
        let first = m.quarantine_line(a.raw());
        let mut c = m.clone();
        // Each copy retires a different further line, and the original
        // retires line 0 once more.
        let mine = m.quarantine_line(a.raw() + 32);
        let again = m.quarantine_line(first.raw());
        let theirs = c.quarantine_line(a.raw() + 64);
        assert_eq!(
            mine.raw(),
            theirs.raw(),
            "same allocator state, same target"
        );
        m.write_u64(a.offset(32), 111);
        c.write_u64(a.offset(64), 222);
        c.write_u64(a, 200);
        for (mem, vals) in [(&mut m, [10, 111, 12, 13]), (&mut c, [200, 11, 222, 13])] {
            for i in 0..4 {
                assert_eq!(mem.read_u64(a.offset(i * 32)), vals[i as usize]);
            }
            mem.flush_all();
            mem.crash();
            for i in 0..4 {
                assert_eq!(mem.read_durable_u64(a.offset(i * 32)), vals[i as usize]);
            }
        }
        assert_eq!(m.stats().quarantined_lines, 3);
        assert_eq!(c.stats().quarantined_lines, 2);
        // The original's line 0 moved on; the clone's stayed where the
        // shared first move put it.
        assert_ne!(again.raw(), first.raw());
        assert_eq!(c.translate(a.raw()), first.raw());
        assert_eq!(m.translate(a.raw()), again.raw());
        assert_eq!(m.translate(a.raw() + 64), a.raw() + 64);
        assert_eq!(c.translate(a.raw() + 32), a.raw() + 32);
    }

    #[test]
    fn invalidate_clean_lines_exposes_durable_truth() {
        let mut m = mem();
        m.set_fault_config(Some(FaultConfig::torn(3, 10_000)));
        let a = m.alloc(32, 32);
        for i in 0..4 {
            m.write_u64(a.offset(i * 8), u64::MAX);
        }
        m.flush_all(); // torn: durable differs, cache still holds intact copy
        let volatile: Vec<u64> = (0..4).map(|i| m.read_u64(a.offset(i * 8))).collect();
        assert_eq!(volatile, vec![u64::MAX; 4], "cache masks the tear");
        m.invalidate_clean_lines();
        let seen: Vec<u64> = (0..4).map(|i| m.read_u64(a.offset(i * 8))).collect();
        assert_ne!(seen, vec![u64::MAX; 4], "now the tear is visible");
    }

    #[test]
    fn ecc_log_drains_through_memory() {
        let mut m = mem();
        m.set_fault_config(Some(FaultConfig::media(9, 10_000, 0)));
        let a = m.alloc(32, 32);
        m.read_u64(a); // miss → fill → ECC event
        let log = m.take_ecc_log();
        assert_eq!(log, vec![a.raw()]);
        assert_eq!(m.stats().ecc_detected_errors, 1);
        assert_eq!(m.read_u64(a), 0, "ECC corrected: data intact");
    }

    #[test]
    fn manual_crash_still_behaves_as_before() {
        let mut m = mem();
        let a = m.alloc(8, 8);
        m.write_u64(a, 1);
        m.flush_all();
        m.write_u64(a, 2);
        m.crash();
        assert!(!m.power_failed(), "manual crash models instant reboot");
        assert_eq!(m.read_u64(a), 1);
        assert!(m.take_crash_loss().is_some());
    }

    #[test]
    fn zero_length_access_counts_an_op_and_touches_no_line() {
        let mut m = mem();
        let a = m.alloc(64, 8);
        m.read_bytes(a, &mut []);
        // One past the last allocated byte is still in bounds for no bytes.
        m.write_bytes(a.offset(64), &[]);
        let st = m.stats();
        assert_eq!((st.load_ops, st.store_ops), (1, 1));
        assert_eq!(st.cache_hits + st.cache_misses, 0);
        assert_eq!(st.nvm_reads, 0);
        assert_eq!(m.dirty_lines(), 0);
    }

    #[test]
    fn straddling_write_equals_its_two_halves() {
        let v = 0x1122_3344_5566_7788_u64;
        let bytes = v.to_le_bytes();
        let mut whole = mem(); // 32-byte lines
        let a = whole.alloc(64, 32);
        whole.write_u64(a.offset(28), v);
        let mut halves = mem();
        let b = halves.alloc(64, 32);
        halves.write_bytes(b.offset(28), &bytes[..4]);
        halves.write_bytes(b.offset(32), &bytes[4..]);
        // One program-level store against two; every cache and device
        // counter agrees.
        let (sw, sh) = (whole.stats(), halves.stats());
        assert_eq!(sw.store_ops + 1, sh.store_ops);
        assert_eq!(
            NvmStats { store_ops: 0, ..sw },
            NvmStats { store_ops: 0, ..sh }
        );
        assert_eq!(sw.cache_misses, 2, "the store touched both lines");
        assert_eq!(whole.dirty_line_bases(), halves.dirty_line_bases());
        assert_eq!(whole.read_u64(a.offset(28)), v);
        assert_eq!(halves.read_u64(b.offset(28)), v);
        whole.flush_all();
        halves.flush_all();
        let (mut dw, mut dh) = ([0u8; 64], [0u8; 64]);
        whole.read_durable_bytes(a, &mut dw);
        halves.read_durable_bytes(b, &mut dh);
        assert_eq!(dw, dh);
        assert_eq!(dw[28..36], bytes);
    }

    #[test]
    fn clone_after_evictions_and_crash_is_independent() {
        let mut m = evicting_mem(); // 4 lines, 2-way
        let a = m.alloc(32 * 16, 32);
        for i in 0..16 {
            m.write_u64(a.offset(i * 32), i + 1);
        }
        assert!(m.stats().natural_evictions > 0, "lines were recycled");
        m.crash();
        for i in 0..3 {
            m.write_u64(a.offset(i * 32), 100 + i);
        }
        let mut c = m.clone();
        assert_eq!(c.stats(), m.stats());
        assert_eq!(c.dirty_line_info(), m.dirty_line_info());
        // Diverge: each side overwrites a resident line and allocates new
        // ones; neither may see the other's bytes.
        c.write_u64(a, 555);
        m.write_u64(a, 999);
        for i in 8..12 {
            c.write_u64(a.offset(i * 32), 5000 + i);
            m.write_u64(a.offset(i * 32), 9000 + i);
        }
        assert_eq!(c.read_u64(a), 555);
        assert_eq!(m.read_u64(a), 999);
        for i in 8..12 {
            assert_eq!(c.read_u64(a.offset(i * 32)), 5000 + i);
            assert_eq!(m.read_u64(a.offset(i * 32)), 9000 + i);
        }
        c.flush_all();
        m.crash();
        assert_eq!(
            c.read_u64(a),
            555,
            "the original's crash is not the clone's"
        );
        assert_eq!(c.read_durable_u64(a), 555);
        assert_ne!(m.read_u64(a), 555);
        assert_ne!(m.read_durable_u64(a.offset(11 * 32)), 5011);
    }
}
