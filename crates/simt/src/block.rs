//! Per-thread-block execution context: memory, shared memory, atomics,
//! warp collectives, locks, and cost accounting.

use crate::config::{CostModel, DeviceConfig};
use crate::device::DeviceState;
use crate::dim::LaunchConfig;
use crate::observe::{AccessKind, AccessObserver};
use crate::stats::BlockCost;
use nvm::{Addr, FlushOutcome, PersistMemory};

/// Holds the block's optional observer; a newtype so [`BlockCtx`] can keep
/// deriving `Debug` (trait objects have no `Debug` of their own).
struct ObsSlot<'a>(Option<&'a mut dyn AccessObserver>);

impl std::fmt::Debug for ObsSlot<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(if self.0.is_some() {
            "ObsSlot(observed)"
        } else {
            "ObsSlot(none)"
        })
    }
}

/// Handle to a shared-memory array allocated with
/// [`BlockCtx::shared_alloc`]. Shared memory is per-block scratch space: it
/// is volatile, free of global-memory traffic, and cheap to access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShmHandle {
    base: usize,
    len: usize,
}

impl ShmHandle {
    /// Number of 64-bit words in the array.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the array is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// Execution context of one thread block.
///
/// A `BlockCtx` is handed to [`crate::Kernel::run_block`]. It plays two
/// roles at once:
///
/// * **functional**: loads/stores against the persistent memory, shared
///   memory, atomics — the kernel's real computation happens through it;
/// * **timing**: every operation charges the block's [`BlockCost`], and
///   cross-block effects (atomic channels, lock serialisation, crash
///   injection) go to the launch-wide [`DeviceState`].
///
/// Stores issued after the injected crash point are silently dropped — the
/// GPU has "lost power", and the launch terminates after this block returns.
#[derive(Debug)]
pub struct BlockCtx<'a> {
    launch: LaunchConfig,
    flat_block: u64,
    block_idx: (u32, u32, u32),
    threads_per_block: u64,
    mem: &'a mut PersistMemory,
    dev: &'a mut DeviceState,
    cfg: &'a DeviceConfig,
    ops: ParallelOps,
    serial_cycles: f64,
    global_bytes: u64,
    lock_snapshot: Option<(u64, f64)>,
    obs: ObsSlot<'a>,
    cur_thread: u64,
}

/// How many times the block charged each parallel-bucket [`CostModel`]
/// entry. `parallel_cycles` is `Σ count × entry`, materialised only where
/// it is read: the per-operation path adds integers, and the block's
/// parallel cost does not depend on the order its operations ran in.
#[derive(Debug, Clone, Copy, Default)]
struct ParallelOps {
    alu: u64,
    shuffle_step: u64,
    shmem_access: u64,
    global_access: u64,
    atomic_op: u64,
    barrier: u64,
}

impl ParallelOps {
    fn cycles(&self, c: &CostModel) -> f64 {
        self.alu as f64 * c.alu
            + self.shuffle_step as f64 * c.shuffle_step
            + self.shmem_access as f64 * c.shmem_access
            + self.global_access as f64 * c.global_access
            + self.atomic_op as f64 * c.atomic_op
            + self.barrier as f64 * c.barrier
    }
}

impl<'a> BlockCtx<'a> {
    /// Constructs a context for one block outside a full launch.
    ///
    /// This is the entry point for *recovery re-execution* (running a single
    /// failed LP region in isolation) and for tests that exercise
    /// device-side data structures directly. Launch-time semantics (crash
    /// injection, lock serialisation) still flow through `dev`.
    pub fn standalone(
        launch: LaunchConfig,
        flat_block: u64,
        mem: &'a mut PersistMemory,
        dev: &'a mut DeviceState,
        cfg: &'a DeviceConfig,
    ) -> Self {
        Self::new(launch, flat_block, mem, dev, cfg, None)
    }

    /// Consumes the context and returns the block's accumulated cost.
    /// Only needed with [`BlockCtx::standalone`]; `Gpu::launch` does this
    /// internally.
    ///
    /// # Panics
    ///
    /// Panics if the block still holds the global lock.
    pub fn into_cost(self) -> BlockCost {
        self.finish()
    }

    pub(crate) fn new(
        launch: LaunchConfig,
        flat_block: u64,
        mem: &'a mut PersistMemory,
        dev: &'a mut DeviceState,
        cfg: &'a DeviceConfig,
        obs: Option<&'a mut dyn AccessObserver>,
    ) -> Self {
        // Tag every store this block issues so the NVM can attribute lost
        // cache lines to the blocks that wrote them (crash-loss forensics).
        mem.set_writer(Some(flat_block));
        // The launch's shared-memory arena is reused block after block;
        // `shared_alloc` zero-fills what it hands out.
        dev.shared.clear();
        Self {
            launch,
            flat_block,
            block_idx: launch.grid.unflatten(flat_block),
            threads_per_block: launch.threads_per_block(),
            mem,
            dev,
            cfg,
            ops: ParallelOps::default(),
            serial_cycles: 0.0,
            global_bytes: 0,
            lock_snapshot: None,
            obs: ObsSlot(obs),
            cur_thread: 0,
        }
    }

    pub(crate) fn finish(self) -> BlockCost {
        assert!(
            self.lock_snapshot.is_none(),
            "block {} ended while holding a global lock",
            self.flat_block
        );
        self.cost_so_far()
    }

    // ---- identity ----------------------------------------------------

    /// Flat index of this block in the grid.
    #[inline]
    pub fn block_id(&self) -> u64 {
        self.flat_block
    }

    /// `(blockIdx.x, blockIdx.y, blockIdx.z)`.
    #[inline]
    pub fn block_idx(&self) -> (u32, u32, u32) {
        self.block_idx
    }

    /// Threads in this block.
    #[inline]
    pub fn threads_per_block(&self) -> u64 {
        self.threads_per_block
    }

    /// `(threadIdx.x, threadIdx.y, threadIdx.z)` for flat thread `t`.
    #[inline]
    pub fn thread_idx(&self, t: u64) -> (u32, u32, u32) {
        self.launch.block.unflatten(t)
    }

    /// Grid-global flat id of thread `t` of this block.
    #[inline]
    pub fn global_thread_id(&self, t: u64) -> u64 {
        self.flat_block * self.threads_per_block + t
    }

    /// Whether the injected crash point has been reached.
    #[inline]
    pub fn crashed(&self) -> bool {
        self.dev.crashed
    }

    /// Number of thread blocks executing concurrently device-wide
    /// (occupancy-limited). This is the contention level hot atomics, racy
    /// updates, and locks experience.
    #[inline]
    pub fn concurrency(&self) -> u64 {
        self.dev.concurrency
    }

    // ---- observation ---------------------------------------------------

    /// Declares which of the block's threads issues the accesses that
    /// follow. Pure attribution for an attached [`AccessObserver`]: it
    /// charges nothing and has no effect on execution, and without an
    /// observer it is a no-op. Kernels call this at the top of each
    /// per-thread loop iteration.
    #[inline]
    pub fn set_active_thread(&mut self, t: u64) {
        self.cur_thread = t;
    }

    #[inline]
    fn note_shared(&mut self, word: usize, kind: AccessKind) {
        if let Some(o) = self.obs.0.as_deref_mut() {
            o.on_shared_access(self.flat_block, self.cur_thread, word, kind);
        }
    }

    #[inline]
    fn note_global(&mut self, addr: Addr, bytes: u64, kind: AccessKind) {
        let locked = self.lock_snapshot.is_some();
        if let Some(o) = self.obs.0.as_deref_mut() {
            o.on_global_access(
                self.flat_block,
                self.cur_thread,
                addr.raw(),
                bytes,
                kind,
                locked,
            );
        }
    }

    /// Reports that this block opened a checksummed LP region. Called by
    /// the LP runtime; zero-cost, observer-only.
    #[inline]
    pub fn note_region_begin(&mut self) {
        if let Some(o) = self.obs.0.as_deref_mut() {
            o.on_region_begin(self.flat_block);
        }
    }

    /// Reports that this block is committing its LP region. Called by the
    /// LP runtime before it reduces and publishes the checksum; zero-cost,
    /// observer-only.
    #[inline]
    pub fn note_region_end(&mut self) {
        if let Some(o) = self.obs.0.as_deref_mut() {
            o.on_region_end(self.flat_block);
        }
    }

    /// Reports that the store at `addr` was folded into the open region's
    /// checksum accumulation. Called by the LP runtime; zero-cost,
    /// observer-only.
    #[inline]
    pub fn note_protected_store(&mut self, addr: Addr) {
        if let Some(o) = self.obs.0.as_deref_mut() {
            o.on_protected_store(self.flat_block, addr.raw());
        }
    }

    // ---- cost charging -------------------------------------------------

    /// Charges `ops` thread-level ALU operations (parallel bucket).
    #[inline]
    pub fn charge_alu(&mut self, ops: u64) {
        self.ops.alu += ops;
    }

    /// Charges `ops` ALU operations on the block's *serial* critical path
    /// (e.g. a loop run by a single thread while the rest idle).
    #[inline]
    pub fn charge_serial_alu(&mut self, ops: u64) {
        self.serial_cycles += ops as f64 * self.cfg.cost.alu;
    }

    /// Charges `steps` warp-shuffle steps executed by `lanes` lanes.
    #[inline]
    pub fn charge_shuffle(&mut self, steps: u64, lanes: u64) {
        self.ops.shuffle_step += steps * lanes;
    }

    /// `__syncthreads()`: barrier cost for every thread in the block.
    #[inline]
    pub fn sync_threads(&mut self) {
        self.ops.barrier += self.threads_per_block;
        if let Some(o) = self.obs.0.as_deref_mut() {
            o.on_barrier(self.flat_block);
        }
    }

    /// Cost accumulated so far (for tests and instrumentation).
    pub fn cost_so_far(&self) -> BlockCost {
        BlockCost {
            parallel_cycles: self.ops.cycles(&self.cfg.cost),
            serial_cycles: self.serial_cycles,
            global_bytes: self.global_bytes,
            atomic_ops: self.ops.atomic_op,
        }
    }

    // ---- shared memory ---------------------------------------------------

    /// Allocates `words` 64-bit words of shared memory, zero-initialised.
    /// Shared memory lives only for the duration of the block.
    pub fn shared_alloc(&mut self, words: usize) -> ShmHandle {
        let base = self.dev.shared.len();
        self.dev.shared.resize(base + words, 0);
        ShmHandle { base, len: words }
    }

    /// Reads word `i` of a shared array.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    #[inline]
    pub fn shm_read(&mut self, h: ShmHandle, i: usize) -> u64 {
        assert!(i < h.len, "shared-memory read out of bounds");
        self.ops.shmem_access += 1;
        self.note_shared(h.base + i, AccessKind::Load);
        self.dev.shared[h.base + i]
    }

    /// Writes word `i` of a shared array.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    #[inline]
    pub fn shm_write(&mut self, h: ShmHandle, i: usize, v: u64) {
        assert!(i < h.len, "shared-memory write out of bounds");
        self.ops.shmem_access += 1;
        self.note_shared(h.base + i, AccessKind::Store);
        self.dev.shared[h.base + i] = v;
    }

    /// `atomicAdd` on shared-memory word `i`; returns the old value.
    ///
    /// On real hardware shared-memory atomics go through the same banks as
    /// plain accesses with read-modify-write turnaround; the model charges
    /// exactly one read plus one write, so converting a plain RMW pair to
    /// this primitive leaves timing unchanged.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    #[inline]
    pub fn shm_atomic_add(&mut self, h: ShmHandle, i: usize, v: u64) -> u64 {
        assert!(i < h.len, "shared-memory atomic out of bounds");
        self.ops.shmem_access += 2;
        self.note_shared(h.base + i, AccessKind::Atomic);
        let old = self.dev.shared[h.base + i];
        self.dev.shared[h.base + i] = old.wrapping_add(v);
        old
    }

    /// Reads an `f32` stored in a shared word.
    #[inline]
    pub fn shm_read_f32(&mut self, h: ShmHandle, i: usize) -> f32 {
        f32::from_bits(self.shm_read(h, i) as u32)
    }

    /// Writes an `f32` into a shared word.
    #[inline]
    pub fn shm_write_f32(&mut self, h: ShmHandle, i: usize, v: f32) {
        self.shm_write(h, i, v.to_bits() as u64);
    }

    /// Multiplies the block's shared `f32` tiles, one dot product per
    /// thread. With the block's `rows × cols` threads (`cols` its `x`
    /// extent), `a` a row-major `rows × n` tile and `b` a row-major
    /// `n × cols` tile, thread `t = r·cols + c` gets `acc[t] += Σ a[r·n + k]
    /// · b[k·cols + c]` over `k in 0..n`, added one product at a time in
    /// ascending `k` — bit for bit what each thread's loop of `n`
    /// [`BlockCtx::shm_read_f32`] pairs computes (but for the sign and
    /// payload of a NaN result, which Rust leaves unspecified), and charged
    /// as those `2n` reads per thread. It tests the observer once, not per element:
    /// unobserved, it bounds-checks each tile once and runs the loop nest
    /// row → `k` → column over the arena, so the inner loop is contiguous
    /// while every accumulator keeps its ascending-`k` order; observed, it
    /// runs each thread's per-element reads in thread order under
    /// [`BlockCtx::set_active_thread`], so an observer sees the same
    /// `a[k]`, `b[k]` event sequence.
    ///
    /// # Panics
    ///
    /// Panics if `acc` does not hold one accumulator per thread, or if
    /// either tile leaves its array.
    #[inline]
    pub fn shm_tile_dots_f32(&mut self, a: ShmHandle, b: ShmHandle, n: usize, acc: &mut [f32]) {
        let threads = self.threads_per_block;
        assert_eq!(acc.len() as u64, threads, "one accumulator per thread");
        let cols = self.launch.block.x as usize;
        let rows = acc.len() / cols;
        let fits = |h: ShmHandle, len: usize| n.checked_mul(len).is_some_and(|w| w <= h.len);
        assert!(
            fits(a, rows) && fits(b, cols),
            "shared-memory read out of bounds"
        );
        if self.obs.0.is_some() {
            for (t, acc) in acc.iter_mut().enumerate() {
                self.set_active_thread(t as u64);
                let (r, c) = (t / cols, t % cols);
                for k in 0..n {
                    let av = self.shm_read_f32(a, r * n + k);
                    let bv = self.shm_read_f32(b, k * cols + c);
                    *acc += av * bv;
                }
            }
            return;
        }
        self.ops.shmem_access += 2 * n as u64 * threads;
        let shared = &self.dev.shared[..];
        let (a_tile, b_tile) = (&shared[a.base..][..rows * n], &shared[b.base..][..n * cols]);
        for (r, acc_row) in acc.chunks_exact_mut(cols).enumerate() {
            for (&aw, b_row) in a_tile[r * n..][..n].iter().zip(b_tile.chunks_exact(cols)) {
                let av = f32::from_bits(aw as u32);
                for (acc, &bw) in acc_row.iter_mut().zip(b_row) {
                    *acc += av * f32::from_bits(bw as u32);
                }
            }
        }
    }

    /// Reads the `K`-word record at `start` of a shared `f32` array, as
    /// `K` [`BlockCtx::shm_read_f32`] calls in ascending order would, and
    /// charged as those `K` reads. Like [`BlockCtx::shm_tile_dots_f32`] it
    /// bounds-checks once and tests the observer once; observed, it runs
    /// the per-element reads, so an observer sees the same events.
    ///
    /// # Panics
    ///
    /// Panics if the record leaves its array.
    #[inline]
    pub fn shm_read_f32s<const K: usize>(&mut self, h: ShmHandle, start: usize) -> [f32; K] {
        assert!(
            start.checked_add(K).is_some_and(|end| end <= h.len),
            "shared-memory read out of bounds"
        );
        if self.obs.0.is_some() {
            return std::array::from_fn(|k| self.shm_read_f32(h, start + k));
        }
        self.ops.shmem_access += K as u64;
        let record = &self.dev.shared[h.base + start..h.base + start + K];
        std::array::from_fn(|k| f32::from_bits(record[k] as u32))
    }

    /// Global→shared staging of `M` contiguous `f32` streams: element `i`
    /// of stream `j` is loaded from `src[j] + 4i` and written to word
    /// `dst[j].1 + i` of shared array `dst[j].0`, for `i in 0..n`. Records
    /// of `rec` elements are spread over the block's threads in turn: record
    /// `r` is staged by thread `(first + r) % threads_per_block`.
    ///
    /// Bit for bit and access for access this is the per-element loop it
    /// replaces — for each `i`, on its record's thread, the `M`
    /// [`BlockCtx::load_f32`]s in stream order, then the `M`
    /// [`BlockCtx::shm_write_f32`]s — and it is charged as those `M·n`
    /// loads and `M·n` shared writes. Observed, it runs that loop, so an
    /// observer sees the same events. Unobserved, it tests the observer and
    /// bounds-checks the shared ranges once, and reads the streams with
    /// [`PersistMemory::read_runs`], which books a same-line run of loads
    /// once.
    ///
    /// # Panics
    ///
    /// Panics if `rec` is 0 or a shared range leaves its array.
    pub fn stage_shm_f32<const M: usize>(
        &mut self,
        src: [Addr; M],
        dst: [(ShmHandle, usize); M],
        n: usize,
        rec: usize,
        first: u64,
    ) {
        assert!(rec > 0, "staging records must hold an element");
        assert!(
            dst.iter()
                .all(|&(h, start)| start.checked_add(n).is_some_and(|end| end <= h.len)),
            "shared-memory write out of bounds"
        );
        if self.obs.0.is_some() {
            for i in 0..n {
                self.set_active_thread((first + (i / rec) as u64) % self.threads_per_block);
                let v = src.map(|a| self.load_f32(a.index(i as u64, 4)));
                for (&(h, start), v) in dst.iter().zip(v) {
                    self.shm_write_f32(h, start + i, v);
                }
            }
            return;
        }
        let words = (M * n) as u64;
        self.ops.global_access += words;
        self.global_bytes += 4 * words;
        self.ops.shmem_access += words;
        let shared = &mut self.dev.shared;
        self.mem.read_runs::<M, 4>(src, n as u64, |i, v| {
            for (&(h, start), v) in dst.iter().zip(v) {
                shared[h.base + start + i as usize] = u64::from(u32::from_le_bytes(v));
            }
        });
    }

    // ---- global memory -------------------------------------------------

    #[inline]
    fn charge_global(&mut self, bytes: u64) {
        self.ops.global_access += 1;
        self.global_bytes += bytes;
    }

    /// Propagates a power failure tripped inside the memory (an armed
    /// eviction/predicate/flush trigger) to the device crash flag so the
    /// launch loop stops scheduling blocks.
    #[inline]
    fn sync_power(&mut self) {
        if self.mem.power_failed() {
            self.dev.crashed = true;
        }
    }

    /// Loads a `u32` from global memory.
    #[inline]
    pub fn load_u32(&mut self, addr: Addr) -> u32 {
        self.charge_global(4);
        self.note_global(addr, 4, AccessKind::Load);
        self.mem.read_u32(addr)
    }

    /// Loads a `u64` from global memory.
    #[inline]
    pub fn load_u64(&mut self, addr: Addr) -> u64 {
        self.charge_global(8);
        self.note_global(addr, 8, AccessKind::Load);
        self.mem.read_u64(addr)
    }

    /// Loads an `f32` from global memory.
    #[inline]
    pub fn load_f32(&mut self, addr: Addr) -> f32 {
        self.charge_global(4);
        self.note_global(addr, 4, AccessKind::Load);
        self.mem.read_f32(addr)
    }

    /// Stores a `u32` to global memory (dropped after the crash point).
    #[inline]
    pub fn store_u32(&mut self, addr: Addr, v: u32) {
        self.charge_global(4);
        self.note_global(addr, 4, AccessKind::Store);
        if self.dev.store_tick() {
            self.mem.write_u32(addr, v);
            self.sync_power();
        }
    }

    /// Stores a `u64` to global memory (dropped after the crash point).
    #[inline]
    pub fn store_u64(&mut self, addr: Addr, v: u64) {
        self.charge_global(8);
        self.note_global(addr, 8, AccessKind::Store);
        if self.dev.store_tick() {
            self.mem.write_u64(addr, v);
            self.sync_power();
        }
    }

    /// Stores an `f32` to global memory (dropped after the crash point).
    #[inline]
    pub fn store_f32(&mut self, addr: Addr, v: f32) {
        self.charge_global(4);
        self.note_global(addr, 4, AccessKind::Store);
        if self.dev.store_tick() {
            self.mem.write_f32(addr, v);
            self.sync_power();
        }
    }

    /// Stores an `f64` to global memory (dropped after the crash point).
    #[inline]
    pub fn store_f64(&mut self, addr: Addr, v: f64) {
        self.charge_global(8);
        self.note_global(addr, 8, AccessKind::Store);
        if self.dev.store_tick() {
            self.mem.write_f64(addr, v);
            self.sync_power();
        }
    }

    /// Charges `events` dependent round-trips to the memory partition
    /// owning `addr`'s line *without* atomic semantics.
    ///
    /// A racy read-modify-write emulation (§IV-D3) issues several dependent
    /// transactions to the same line (read, write, verification read); each
    /// occupies the partition just like an atomic's RMW slot does, which is
    /// why removing atomics makes the checksum tables slower, not faster.
    pub fn charge_channel(&mut self, addr: Addr, events: u64) {
        for _ in 0..events {
            self.dev
                .record_atomic(addr.raw(), self.cfg.cost.atomic_channel_ns);
            // record_atomic counts it as an atomic op; undo that part of
            // the accounting — these are plain transactions.
            self.dev.atomic_ops -= 1;
        }
    }

    // ---- eager-persistency primitives ----------------------------------

    /// `clwb`-equivalent: writes back the cache line containing `addr`.
    ///
    /// This is the Eager Persistency primitive the paper contrasts LP
    /// against — current GPUs do not even expose it (§IV), which is one of
    /// LP's practical advantages. Charges the store-queue cost and, when a
    /// dirty line is actually written back, the full line's bandwidth.
    pub fn flush_line(&mut self, addr: Addr) {
        self.ops.global_access += 1;
        if self.mem.flush_line(addr) == FlushOutcome::Persisted {
            self.global_bytes += self.mem.config().line_size as u64;
        }
        self.sync_power();
    }

    /// Persist barrier (`sfence`-equivalent): stalls the block until all
    /// its outstanding flushes are durable. Serial — nothing in the block
    /// overlaps the drain.
    pub fn persist_barrier(&mut self) {
        self.serial_cycles += self.cfg.cost.persist_barrier_ns * self.cfg.clock_ghz;
    }

    /// `__threadfence`-class epoch fence: orders this block's stores into
    /// the memory queue. Much cheaper than [`BlockCtx::persist_barrier`] —
    /// it does not wait for the device — which is exactly the cost gap the
    /// epoch/SBRP persistency models exploit.
    pub fn threadfence(&mut self) {
        self.serial_cycles += self.cfg.cost.epoch_fence_ns * self.cfg.clock_ghz;
    }

    /// Pushes the line containing `addr` into the ADR-backed memory queue
    /// (epoch/SBRP persistency). Acceptance is durability (ADR drains the
    /// queue on power loss), so a dirty line is written back immediately;
    /// unlike [`BlockCtx::flush_line`] there is no barrier to pay — the
    /// fence cost is charged separately by [`BlockCtx::threadfence`].
    /// Returns whether a dirty line was actually accepted.
    pub fn adr_accept(&mut self, addr: Addr) -> bool {
        self.ops.global_access += 1;
        let accepted = self.mem.adr_accept(addr) == FlushOutcome::Persisted;
        if accepted {
            self.global_bytes += self.mem.config().line_size as u64;
        }
        self.sync_power();
        accepted
    }

    /// Makes the line containing `addr` durable even on a refusing device:
    /// the write-back (ADR-queue acceptance when `adr`, `clwb`-style flush
    /// otherwise) is retried with a modelled stall after each transient
    /// refusal, and a line the device keeps refusing is retired and
    /// remapped by firmware (the quarantine copy is durable). This is the
    /// loop real driver code wraps around `clwb`/`sfence` — the explicit
    /// persistency models build their durability guarantee on it. Torn
    /// write-backs stay invisible here: the device reports success for
    /// them, and only checksum-validating models can catch the corruption
    /// after the fact. Returns whether a dirty line was actually made
    /// durable (`false`: the line was already clean).
    pub fn persist_line_reliably(&mut self, addr: Addr, adr: bool) -> bool {
        const PERSIST_RETRIES: u32 = 6;
        for _ in 0..PERSIST_RETRIES {
            self.ops.global_access += 1;
            let outcome = if adr {
                self.mem.adr_accept(addr)
            } else {
                self.mem.flush_line(addr)
            };
            match outcome {
                FlushOutcome::Clean => {
                    self.sync_power();
                    return false;
                }
                FlushOutcome::Persisted => {
                    self.global_bytes += self.mem.config().line_size as u64;
                    self.sync_power();
                    return true;
                }
                FlushOutcome::TransientFail => {
                    // Retry backoff: the refused drain stalls the block.
                    self.serial_cycles += self.cfg.cost.buffer_drain_ns * self.cfg.clock_ghz;
                }
            }
        }
        // The device refused every attempt: firmware retires the line and
        // remaps it, preserving the in-flight copy (page offlining).
        self.mem.quarantine_line(addr.raw());
        self.sync_power();
        true
    }

    /// Stalls the block for `lines` persist-buffer drain steps (SBRP: an
    /// entry leaving the SM-level or L2-level persist buffer).
    pub fn buffer_drain_stall(&mut self, lines: u64) {
        self.serial_cycles += lines as f64 * self.cfg.cost.buffer_drain_ns * self.cfg.clock_ghz;
    }

    /// Cache-line size of the attached memory, in bytes.
    #[inline]
    pub fn line_size(&self) -> u64 {
        self.mem.config().line_size as u64
    }

    // ---- atomics ---------------------------------------------------------

    fn charge_atomic(&mut self, addr: Addr, bytes: u64) {
        self.ops.atomic_op += 1;
        self.global_bytes += bytes;
        self.dev
            .record_atomic(addr.raw(), self.cfg.cost.atomic_channel_ns);
    }

    /// `atomicCAS` on a `u64` word: if the current value equals `compare`,
    /// writes `new`. Returns the value read (CUDA semantics).
    pub fn atomic_cas_u64(&mut self, addr: Addr, compare: u64, new: u64) -> u64 {
        self.charge_atomic(addr, 8);
        self.note_global(addr, 8, AccessKind::Atomic);
        let old = self.mem.read_u64(addr);
        if old == compare && self.dev.store_tick() {
            self.mem.write_u64(addr, new);
            self.sync_power();
        }
        old
    }

    /// `atomicExch` on a `u64` word: writes `new`, returns the old value.
    pub fn atomic_exch_u64(&mut self, addr: Addr, new: u64) -> u64 {
        self.charge_atomic(addr, 8);
        self.note_global(addr, 8, AccessKind::Atomic);
        let old = self.mem.read_u64(addr);
        if self.dev.store_tick() {
            self.mem.write_u64(addr, new);
            self.sync_power();
        }
        old
    }

    /// `atomicAdd` on a `u32` word; returns the old value.
    pub fn atomic_add_u32(&mut self, addr: Addr, v: u32) -> u32 {
        self.charge_atomic(addr, 4);
        self.note_global(addr, 4, AccessKind::Atomic);
        let old = self.mem.read_u32(addr);
        if self.dev.store_tick() {
            self.mem.write_u32(addr, old.wrapping_add(v));
            self.sync_power();
        }
        old
    }

    // ---- global spin lock ------------------------------------------------

    /// Acquires the global spin lock at `lock_addr`.
    ///
    /// Timing-wise this begins a critical section: its duration is added to
    /// the launch-wide serial timeline at [`BlockCtx::unlock_global`], plus a
    /// handoff penalty that grows with the number of concurrently contending
    /// blocks — the mechanism behind Table III's lock-based collapse.
    ///
    /// # Panics
    ///
    /// Panics if this block already holds a lock (the model supports one
    /// outstanding lock per block, which is all the paper's LP code needs).
    pub fn lock_global(&mut self, lock_addr: Addr) {
        assert!(
            self.lock_snapshot.is_none(),
            "nested global locks not supported"
        );
        self.charge_atomic(lock_addr, 4);
        let now = self.ops.cycles(&self.cfg.cost) + self.serial_cycles;
        self.lock_snapshot = Some((lock_addr.raw(), now));
    }

    /// Releases the global spin lock at `lock_addr`, committing the critical
    /// section's duration (plus contention handoff) to the serial timeline.
    ///
    /// # Panics
    ///
    /// Panics if the lock is not held or a different lock address is given.
    pub fn unlock_global(&mut self, lock_addr: Addr) {
        let (held, snapshot) = self.lock_snapshot.take().expect("unlock without lock");
        assert_eq!(held, lock_addr.raw(), "unlocking a different lock");
        self.charge_atomic(lock_addr, 4);
        let now = self.ops.cycles(&self.cfg.cost) + self.serial_cycles;
        let crit_cycles = now - snapshot;
        let crit_ns = self.cfg.cycles_to_ns(crit_cycles);
        let contenders = self
            .dev
            .concurrency
            .saturating_sub(1)
            .min(self.cfg.cost.lock_contender_cap) as f64;
        self.dev.lock_serial_ns += crit_ns + contenders * self.cfg.cost.lock_handoff_ns;
    }
}

impl Drop for BlockCtx<'_> {
    /// Ends the block's store attribution however the context ends — a
    /// launch's `finish`, `into_cost`, an unwinding kernel, or a standalone
    /// context that is simply dropped — so host writes that follow are not
    /// tagged with this block in the crash-loss record.
    fn drop(&mut self) {
        self.mem.set_writer(None);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvm::NvmConfig;
    use proptest::prelude::*;

    fn fixture() -> (PersistMemory, DeviceState, DeviceConfig, LaunchConfig) {
        let cfg = DeviceConfig::test_gpu();
        let mem = PersistMemory::new(NvmConfig::default());
        let dev = DeviceState::new(&cfg, 16, 128);
        let lc = LaunchConfig::linear(16 * 64, 64);
        (mem, dev, cfg, lc)
    }

    #[test]
    fn identity_helpers() {
        let (mut mem, mut dev, cfg, lc) = fixture();
        let ctx = BlockCtx::new(lc, 5, &mut mem, &mut dev, &cfg, None);
        assert_eq!(ctx.block_id(), 5);
        assert_eq!(ctx.global_thread_id(3), 5 * 64 + 3);
    }

    #[test]
    fn loads_and_stores_roundtrip_and_charge() {
        let (mut mem, mut dev, cfg, lc) = fixture();
        let a = mem.alloc(64, 8);
        let mut ctx = BlockCtx::new(lc, 0, &mut mem, &mut dev, &cfg, None);
        ctx.store_f32(a, 2.5);
        assert_eq!(ctx.load_f32(a), 2.5);
        let cost = ctx.finish();
        assert_eq!(cost.global_bytes, 8);
        assert!(cost.parallel_cycles > 0.0);
    }

    #[test]
    fn shared_memory_is_block_scratch() {
        let (mut mem, mut dev, cfg, lc) = fixture();
        let mut ctx = BlockCtx::new(lc, 0, &mut mem, &mut dev, &cfg, None);
        let h = ctx.shared_alloc(32);
        ctx.shm_write(h, 7, 99);
        assert_eq!(ctx.shm_read(h, 7), 99);
        assert_eq!(ctx.shm_read(h, 0), 0);
        let cost = ctx.finish();
        assert_eq!(cost.global_bytes, 0, "shared memory must not hit global");
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn shm_oob_panics() {
        let (mut mem, mut dev, cfg, lc) = fixture();
        let mut ctx = BlockCtx::new(lc, 0, &mut mem, &mut dev, &cfg, None);
        let h = ctx.shared_alloc(4);
        ctx.shm_read(h, 4);
    }

    /// Records every shared-memory access event, in order.
    #[derive(Debug, Default)]
    struct SharedEvents(Vec<(u64, u64, usize, AccessKind)>);

    impl AccessObserver for SharedEvents {
        fn on_shared_access(&mut self, block: u64, thread: u64, word: usize, kind: AccessKind) {
            self.0.push((block, thread, word, kind));
        }
    }

    /// One `shm_tile_dots_f32` case: a `rows × cols` block, `n` terms per
    /// dot product, the words of the two shared arrays and the
    /// accumulators' starting bits, one per thread.
    #[derive(Debug, Clone)]
    struct TileCase {
        rows: usize,
        cols: usize,
        n: usize,
        arrays: [Vec<u64>; 2],
        acc: Vec<u32>,
    }

    /// What a run leaves behind: the accumulators' bits (every NaN as the
    /// one quiet NaN, see [`run_tiles`]), the cost's bits, the shared arena
    /// and the observed events.
    type TileRun = (Vec<u32>, [u64; 4], Vec<u64>, SharedEvents);

    /// Runs `case` on a fresh block, through the tile op or the per-thread,
    /// per-element loop it replaces, observed or not. Rust leaves the sign
    /// and payload of a NaN that arithmetic produces unspecified, and the
    /// optimiser may commute a vectorised multiply or add, so which input
    /// NaN propagates differs between the two loops in release builds; a
    /// NaN result is compared as NaN, every other result bit for bit.
    fn run_tiles(case: &TileCase, tile_op: bool, observed: bool) -> TileRun {
        let (mut mem, mut dev, cfg, _) = fixture();
        let lc = LaunchConfig::grid2d(2, 2, case.cols as u32, case.rows as u32);
        let mut events = SharedEvents::default();
        let obs = observed.then_some(&mut events as &mut dyn AccessObserver);
        let mut ctx = BlockCtx::new(lc, 2, &mut mem, &mut dev, &cfg, obs);
        let [a, b] = case.arrays.clone().map(|words| {
            let h = ctx.shared_alloc(words.len());
            ctx.dev.shared[h.base..h.base + h.len].copy_from_slice(&words);
            h
        });
        let mut acc: Vec<f32> = case.acc.iter().map(|&bits| f32::from_bits(bits)).collect();
        let (cols, n) = (case.cols, case.n);
        if tile_op {
            ctx.shm_tile_dots_f32(a, b, n, &mut acc);
        } else {
            for (t, acc) in acc.iter_mut().enumerate() {
                ctx.set_active_thread(t as u64);
                let (r, c) = (t / cols, t % cols);
                for k in 0..n {
                    let av = ctx.shm_read_f32(a, r * n + k);
                    let bv = ctx.shm_read_f32(b, k * cols + c);
                    *acc += av * bv;
                }
            }
        }
        let c = ctx.finish();
        let cost = [
            c.parallel_cycles.to_bits(),
            c.serial_cycles.to_bits(),
            c.global_bytes,
            c.atomic_ops,
        ];
        let acc = acc
            .into_iter()
            .map(|v| if v.is_nan() { f32::NAN } else { v }.to_bits())
            .collect();
        (acc, cost, dev.shared.clone(), events)
    }

    /// Bit patterns float arithmetic treats specially.
    const SPECIAL_F32: [u32; 10] = [
        0x7fc0_0000, // NaN
        0xffc0_0001, // a negative NaN with a payload
        0x0000_0000, // +0
        0x8000_0000, // -0
        0x7f80_0000, // +∞
        0xff80_0000, // -∞
        0x0000_0001, // the smallest subnormal
        0x807f_ffff, // the largest negative subnormal
        0x7f7f_ffff, // f32::MAX
        0x3f80_0000, // 1.0
    ];

    /// A shared word holding an `f32` in its low half: one of
    /// [`SPECIAL_F32`] when `pick` names one, else `raw`'s low bits, under
    /// `raw`'s high bits (which `shm_read_f32` drops).
    fn f32_word(raw: u64, pick: usize) -> u64 {
        match SPECIAL_F32.get(pick) {
            Some(&lo) => raw & !0xffff_ffff | u64::from(lo),
            None => raw,
        }
    }

    /// A case whose tiles fit: `a` holds `rows × n` words and `b` holds
    /// `n × cols`, each plus `spare`; the array words and the
    /// accumulators come from `raw`/`picks`.
    fn tile_case(
        (rows, cols, n): (usize, usize, usize),
        spare: (usize, usize),
        raw: &[u64],
        picks: &[usize],
    ) -> TileCase {
        let mut words = raw.iter().zip(picks).map(|(&r, &p)| f32_word(r, p));
        let mut take = |len| words.by_ref().take(len).collect::<Vec<_>>();
        let arrays = [take(rows * n + spare.0), take(n * cols + spare.1)];
        let acc = take(rows * cols).into_iter().map(|w| w as u32).collect();
        TileCase {
            rows,
            cols,
            n,
            arrays,
            acc,
        }
    }

    proptest! {
        /// The tile op is the per-thread loop: the same accumulator bits,
        /// `BlockCost` and shared arena observed or not, and under an
        /// observer the same events.
        #[test]
        fn shm_tile_dots_equal_the_per_element_loop(
            shape in (1usize..=16, 1usize..=16, 1usize..=16),
            spare in (0usize..4, 0usize..4),
            raw in prop::collection::vec(any::<u64>(), 800),
            picks in prop::collection::vec(0usize..20, 800),
        ) {
            let case = tile_case(shape, spare, &raw, &picks);
            let (rows, cols, n) = shape;
            let (want, want_cost, want_arena, want_events) = run_tiles(&case, false, true);
            prop_assert_eq!(want_events.0.len(), 2 * n * rows * cols);
            for observed in [true, false] {
                let (got, got_cost, got_arena, got_events) = run_tiles(&case, true, observed);
                prop_assert_eq!(&got, &want);
                prop_assert_eq!(got_cost, want_cost);
                prop_assert_eq!(&got_arena, &want_arena);
                if observed {
                    prop_assert_eq!(&got_events.0, &want_events.0);
                }
            }
        }
    }

    #[test]
    fn shm_tile_dots_out_of_range_panic_like_shm_read() {
        let (rows, cols, n) = (3, 4, 5);
        let fits = [vec![0u64; rows * n], vec![0u64; n * cols]];
        let short = |i: usize| {
            let mut arrays = fits.clone();
            arrays[i].pop();
            (arrays, n)
        };
        // Each operand one word short, and a length that overflows `usize`.
        let cases = [short(0), short(1), (fits.clone(), usize::MAX / 2 + 1)];
        for (arrays, n) in cases {
            let case = TileCase {
                rows,
                cols,
                n,
                arrays,
                acc: vec![0; rows * cols],
            };
            for observed in [false, true] {
                let err = std::panic::catch_unwind(|| run_tiles(&case, true, observed))
                    .expect_err("an out-of-range operand must panic");
                assert_eq!(
                    err.downcast_ref::<&str>(),
                    Some(&"shared-memory read out of bounds"),
                    "{case:?}, observed: {observed}"
                );
            }
        }
    }

    #[test]
    fn atomic_cas_semantics() {
        let (mut mem, mut dev, cfg, lc) = fixture();
        let a = mem.alloc(8, 8);
        let mut ctx = BlockCtx::new(lc, 0, &mut mem, &mut dev, &cfg, None);
        assert_eq!(ctx.atomic_cas_u64(a, 0, 42), 0); // success, old = 0
        assert_eq!(ctx.atomic_cas_u64(a, 0, 77), 42); // fail, old = 42
        assert_eq!(ctx.load_u64(a), 42);
    }

    #[test]
    fn atomic_exch_returns_old() {
        let (mut mem, mut dev, cfg, lc) = fixture();
        let a = mem.alloc(8, 8);
        let mut ctx = BlockCtx::new(lc, 0, &mut mem, &mut dev, &cfg, None);
        ctx.store_u64(a, 7);
        assert_eq!(ctx.atomic_exch_u64(a, 9), 7);
        assert_eq!(ctx.load_u64(a), 9);
    }

    #[test]
    fn atomic_add_accumulates() {
        let (mut mem, mut dev, cfg, lc) = fixture();
        let a = mem.alloc(8, 8);
        let mut ctx = BlockCtx::new(lc, 0, &mut mem, &mut dev, &cfg, None);
        for _ in 0..10 {
            ctx.atomic_add_u32(a, 3);
        }
        assert_eq!(ctx.load_u32(a), 30);
        assert_eq!(ctx.cost_so_far().atomic_ops, 10);
    }

    #[test]
    fn crash_drops_subsequent_stores() {
        let (mut mem, mut dev, cfg, lc) = fixture();
        dev.crash_after_stores = Some(1);
        let a = mem.alloc(16, 8);
        let mut ctx = BlockCtx::new(lc, 0, &mut mem, &mut dev, &cfg, None);
        ctx.store_u64(a, 1); // takes effect
        ctx.store_u64(a.offset(8), 2); // dropped: crash point passed
        assert!(ctx.crashed());
        let _ = ctx.finish();
        assert_eq!(mem.read_u64(a), 1);
        assert_eq!(mem.read_u64(a.offset(8)), 0);
    }

    #[test]
    fn a_dropped_context_stops_tagging_stores() {
        let (mut mem, mut dev, cfg, lc) = fixture();
        let a = mem.alloc(256, 128);
        let mut ctx = BlockCtx::standalone(lc, 5, &mut mem, &mut dev, &cfg);
        ctx.store_u64(a, 1);
        drop(ctx); // never reaches `into_cost`
        let host_line = a.offset(128);
        mem.write_u64(host_line, 2);
        mem.crash();
        let loss = mem.take_crash_loss().expect("crash captures a loss record");
        let writers_of = |addr: Addr| {
            let line = loss.lines.iter().find(|l| l.base == addr.raw());
            line.expect("the dirty line was lost").writers.clone()
        };
        assert_eq!(writers_of(a), [5]);
        assert!(
            writers_of(host_line).is_empty(),
            "a host write after the block ended must carry no block tag"
        );
    }

    #[test]
    fn lock_accumulates_serial_time() {
        let (mut mem, mut dev, cfg, lc) = fixture();
        let lock = mem.alloc(8, 8);
        let mut ctx = BlockCtx::new(lc, 0, &mut mem, &mut dev, &cfg, None);
        ctx.lock_global(lock);
        ctx.charge_alu(1000);
        ctx.unlock_global(lock);
        let _ = ctx.finish();
        assert!(dev.lock_serial_ns > 0.0);
    }

    #[test]
    #[should_panic(expected = "holding a global lock")]
    fn leaked_lock_panics() {
        let (mut mem, mut dev, cfg, lc) = fixture();
        let lock = mem.alloc(8, 8);
        let mut ctx = BlockCtx::new(lc, 0, &mut mem, &mut dev, &cfg, None);
        ctx.lock_global(lock);
        ctx.finish();
    }

    #[test]
    fn serial_charges_bypass_width_division() {
        let (mut mem, mut dev, cfg, lc) = fixture();
        let mut ctx = BlockCtx::new(lc, 0, &mut mem, &mut dev, &cfg, None);
        ctx.charge_serial_alu(500);
        let cost = ctx.finish();
        assert_eq!(cost.serial_cycles, 500.0);
        assert_eq!(cost.parallel_cycles, 0.0);
    }
}
