//! The device object: kernel launching, timing aggregation, crash injection.

use crate::block::BlockCtx;
use crate::config::DeviceConfig;
use crate::device::DeviceState;
use crate::dim::LaunchConfig;
use crate::kernel::Kernel;
use crate::observe::AccessObserver;
use crate::stats::LaunchStats;
use nvm::{NvmStats, PersistMemory};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Where to inject a power loss during a launch: after a number of global
/// stores (mid-block), after a number of completed thread blocks (a
/// kernel-boundary-like point inside the grid), or whenever an armed
/// trigger in the [`PersistMemory`] itself fires (eviction counts, stat
/// predicates, mid-flush budgets).
///
/// The first condition reached wins. An empty plan never crashes, which
/// makes a plan-driven launch loop uniform for campaign runners.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct CrashPlan {
    /// Lose power after this many global stores (stores and atomic writes
    /// both advance the clock). `Some(0)` crashes before the first store
    /// persists anything.
    pub after_global_stores: Option<u64>,
    /// Lose power at the boundary after this many thread blocks complete.
    /// `Some(0)` crashes before any block runs.
    pub after_blocks: Option<u64>,
}

impl CrashPlan {
    /// A plan that never fires (useful with memory-armed triggers).
    pub fn never() -> Self {
        Self::default()
    }

    /// A plan that loses power after `n` global stores.
    pub fn after_stores(n: u64) -> Self {
        Self {
            after_global_stores: Some(n),
            after_blocks: None,
        }
    }

    /// Whether the plan has no device-side crash condition.
    pub fn is_empty(&self) -> bool {
        self.after_global_stores.is_none() && self.after_blocks.is_none()
    }
}

/// Result of a launch that may have been cut short by a crash.
#[derive(Debug, Clone, PartialEq)]
pub enum LaunchOutcome {
    /// The kernel ran to completion.
    Completed(LaunchStats),
    /// Power was lost mid-kernel. The memory's volatile cache has been
    /// discarded: only naturally-evicted (durable) data survives. The stats
    /// describe the truncated execution and carry `crashed = true`.
    Crashed(LaunchStats),
}

impl LaunchOutcome {
    /// The stats regardless of outcome.
    pub fn stats(&self) -> &LaunchStats {
        match self {
            LaunchOutcome::Completed(s) | LaunchOutcome::Crashed(s) => s,
        }
    }

    /// Whether the launch crashed.
    pub fn crashed(&self) -> bool {
        matches!(self, LaunchOutcome::Crashed(_))
    }
}

/// Errors detectable before any block executes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LaunchError {
    /// The device configuration is inconsistent.
    InvalidConfig(String),
    /// The kernel requested zero blocks or zero threads.
    EmptyLaunch,
}

impl fmt::Display for LaunchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LaunchError::InvalidConfig(msg) => write!(f, "invalid device config: {msg}"),
            LaunchError::EmptyLaunch => write!(f, "kernel launch has an empty grid or block"),
        }
    }
}

impl std::error::Error for LaunchError {}

/// The simulated GPU device.
///
/// See the [crate-level documentation](crate) for the timing model. `Gpu` is
/// stateless between launches; it can be reused for any number of kernels.
#[derive(Debug, Clone)]
pub struct Gpu {
    cfg: DeviceConfig,
}

impl Gpu {
    /// Creates a device.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails [`DeviceConfig::validate`].
    pub fn new(cfg: DeviceConfig) -> Self {
        cfg.validate().expect("invalid DeviceConfig");
        Self { cfg }
    }

    /// The device configuration.
    pub fn config(&self) -> &DeviceConfig {
        &self.cfg
    }

    /// Launches `kernel` to completion.
    ///
    /// # Errors
    ///
    /// Returns [`LaunchError::EmptyLaunch`] for an empty grid/block.
    pub fn launch(
        &self,
        kernel: &dyn Kernel,
        mem: &mut PersistMemory,
    ) -> Result<LaunchStats, LaunchError> {
        match self.launch_inner(kernel, mem, CrashPlan::never(), None)? {
            LaunchOutcome::Completed(s) => Ok(s),
            LaunchOutcome::Crashed(s) => {
                // No device-side crash was requested, but a trigger armed on
                // the memory itself can still cut the launch short.
                Ok(s)
            }
        }
    }

    /// Launches `kernel` under a [`CrashPlan`].
    ///
    /// If a crash point is reached — the plan's store count or block
    /// boundary, or a trigger armed on the memory itself (see
    /// [`PersistMemory::arm_crash_after_evictions`] and friends) — all
    /// stores after it are dropped, the remaining blocks never run, and the
    /// memory's volatile cache is discarded (as a real power loss would),
    /// leaving only the durable view. If the kernel finishes first, the
    /// launch completes normally; an empty plan with no armed trigger
    /// behaves exactly like [`Gpu::launch`].
    ///
    /// # Errors
    ///
    /// Returns [`LaunchError::EmptyLaunch`] for an empty grid/block.
    pub fn launch_with_plan(
        &self,
        kernel: &dyn Kernel,
        mem: &mut PersistMemory,
        plan: CrashPlan,
    ) -> Result<LaunchOutcome, LaunchError> {
        self.launch_inner(kernel, mem, plan, None)
    }

    /// Launches `kernel` with an [`AccessObserver`] attached.
    ///
    /// The observer sees every shared/global access, barrier, and LP-region
    /// event the launch issues, in deterministic order. Observation charges
    /// zero cost: the returned [`LaunchStats`] (and every byte of memory
    /// state) are identical to an unobserved [`Gpu::launch`] of the same
    /// kernel.
    ///
    /// # Errors
    ///
    /// Returns [`LaunchError::EmptyLaunch`] for an empty grid/block.
    pub fn launch_observed(
        &self,
        kernel: &dyn Kernel,
        mem: &mut PersistMemory,
        obs: &mut dyn AccessObserver,
    ) -> Result<LaunchStats, LaunchError> {
        let outcome = self.launch_inner(kernel, mem, CrashPlan::never(), Some(obs))?;
        Ok(outcome.stats().clone())
    }

    /// Starts a launch of `kernel` under `plan` without running any block:
    /// the [`Launch`] steps it one block at a time. Every `launch*` entry
    /// point above is `start`, then [`Launch::step`] until it reports no
    /// block ran, then [`Launch::finish`].
    ///
    /// # Errors
    ///
    /// Returns [`LaunchError::EmptyLaunch`] for an empty grid/block.
    pub fn start(
        &self,
        kernel: &dyn Kernel,
        mem: &PersistMemory,
        plan: CrashPlan,
    ) -> Result<Launch<'_>, LaunchError> {
        let lc = kernel.config();
        if lc.num_blocks() == 0 || lc.threads_per_block() == 0 {
            return Err(LaunchError::EmptyLaunch);
        }
        let line = mem.config().line_size as u64;
        let mut launch = Launch {
            gpu: self,
            lc,
            dev: DeviceState::new(&self.cfg, lc.num_blocks(), line),
            plan: CrashPlan::never(),
            sm_busy: vec![0.0; self.cfg.num_sms as usize],
            total_parallel: 0.0,
            total_serial: 0.0,
            global_bytes: 0,
            atomic_ops: 0,
            blocks_executed: 0,
            nvm_before: mem.stats(),
        };
        launch.arm(plan);
        Ok(launch)
    }

    /// Re-executes a single thread block of `kernel` in isolation and
    /// returns its cost, reporting every access to `obs` if one is given.
    ///
    /// This is the recovery path: Lazy Persistency re-runs exactly the
    /// blocks whose checksums failed validation. Blocks must be associative
    /// (independent), so running one alone is legal by construction.
    /// Degraded-mode recovery passes an observer to learn the exact set of
    /// lines the block stores to, which it then persists eagerly, line by
    /// line.
    ///
    /// # Panics
    ///
    /// Panics if `block_id` is outside the kernel's grid.
    pub fn run_single_block(
        &self,
        kernel: &dyn Kernel,
        mem: &mut PersistMemory,
        block_id: u64,
        obs: Option<&mut dyn AccessObserver>,
    ) -> crate::BlockCost {
        let lc = kernel.config();
        assert!(block_id < lc.num_blocks(), "block id outside grid");
        let line = mem.config().line_size as u64;
        let mut dev = DeviceState::new(&self.cfg, 1, line);
        self.run_block(kernel, lc, block_id, mem, &mut dev, obs)
    }

    /// Runs block `b` to completion, bracketing it with the observer's
    /// block hooks.
    fn run_block(
        &self,
        kernel: &dyn Kernel,
        lc: LaunchConfig,
        b: u64,
        mem: &mut PersistMemory,
        dev: &mut DeviceState,
        mut obs: Option<&mut dyn AccessObserver>,
    ) -> crate::BlockCost {
        if let Some(o) = obs.as_deref_mut() {
            o.on_block_begin(b);
        }
        // Reborrow the observer for this block only, shortening the trait
        // object's inner lifetime so `mem`/`dev` are not held for the
        // observer's full lifetime.
        let o = obs.as_deref_mut().map(|o| o as &mut dyn AccessObserver);
        let mut ctx = BlockCtx::new(lc, b, mem, dev, &self.cfg, o);
        kernel.run_block(&mut ctx);
        let cost = ctx.finish();
        if let Some(o) = obs {
            o.on_block_end(b);
        }
        cost
    }

    fn launch_inner(
        &self,
        kernel: &dyn Kernel,
        mem: &mut PersistMemory,
        plan: CrashPlan,
        obs: Option<&mut dyn AccessObserver>,
    ) -> Result<LaunchOutcome, LaunchError> {
        let mut launch = self.start(kernel, mem, plan)?;
        let Some(o) = obs else {
            return Ok(launch.finish(kernel, mem));
        };
        o.on_launch_begin(kernel.name(), &launch.lc);
        while launch.step(kernel, mem, Some(&mut *o)) {}
        let outcome = launch.finish(kernel, mem);
        o.on_launch_end();
        Ok(outcome)
    }
}

/// One kernel launch in flight, run one thread block at a time.
///
/// Made by [`Gpu::start`]; [`Launch::step`] runs the next block and
/// [`Launch::finish`] runs whatever is left and totals the launch. It holds
/// everything the launch accumulates between blocks — the device state
/// (atomic channels, lock timeline, store clock, crash flag), per-SM busy
/// time, running totals, the blocks executed, the NVM stats it started
/// from and its [`CrashPlan`] — and nothing else, so it is `Clone`: a
/// `Launch` cloned together with its [`PersistMemory`] at a block boundary
/// is a fork of the execution. A fork re-[`arm`](Launch::arm)ed with a plan
/// whose crash point is not behind it finishes exactly as a launch that ran
/// under that plan from block 0: same memory image, [`NvmStats`],
/// [`nvm::CrashLoss`] and [`LaunchStats`].
///
/// [`NvmStats`]: nvm::NvmStats
#[derive(Debug, Clone)]
pub struct Launch<'g> {
    gpu: &'g Gpu,
    lc: LaunchConfig,
    dev: DeviceState,
    plan: CrashPlan,
    sm_busy: Vec<f64>,
    total_parallel: f64,
    total_serial: f64,
    global_bytes: u64,
    atomic_ops: u64,
    blocks_executed: u64,
    nvm_before: NvmStats,
}

impl Launch<'_> {
    /// The block boundary the launch stands at: blocks completed so far,
    /// which is also the id of the next block [`Launch::step`] runs.
    pub fn next_block(&self) -> u64 {
        self.blocks_executed
    }

    /// The store clock: global stores (and atomic writes) issued so far —
    /// what [`CrashPlan::after_global_stores`] counts against.
    pub fn store_clock(&self) -> u64 {
        self.dev.stores_seen
    }

    /// Replaces the crash plan from here on. A block-count crash point
    /// equal to [`Launch::next_block`] fires at once, as it would have at
    /// this boundary. A crash point already behind the launch (a store
    /// count below [`Launch::store_clock`], a block count below
    /// `next_block`) cannot fire where it would have from the start; arm
    /// only plans that lie ahead.
    pub fn arm(&mut self, plan: CrashPlan) {
        self.plan = plan;
        self.dev.crash_after_stores = plan.after_global_stores;
        if plan.after_blocks == Some(self.blocks_executed) {
            self.dev.crashed = true;
        }
    }

    /// Runs the next thread block, reporting its accesses to `obs` if one
    /// is given. Returns whether a block ran: `false` once every block has
    /// run or the launch has crashed.
    pub fn step(
        &mut self,
        kernel: &dyn Kernel,
        mem: &mut PersistMemory,
        obs: Option<&mut dyn AccessObserver>,
    ) -> bool {
        if self.dev.crashed || self.blocks_executed == self.lc.num_blocks() {
            return false;
        }
        let cfg = &self.gpu.cfg;
        let b = self.blocks_executed;
        let cost = self
            .gpu
            .run_block(kernel, self.lc, b, mem, &mut self.dev, obs);
        let sm = (b % cfg.num_sms as u64) as usize;
        self.sm_busy[sm] += cost.time_ns(cfg.sm_width, cfg.clock_ghz);
        self.total_parallel += cost.parallel_cycles;
        self.total_serial += cost.serial_cycles;
        self.global_bytes += cost.global_bytes;
        self.atomic_ops += cost.atomic_ops;
        if !self.dev.crashed {
            self.blocks_executed += 1;
            if self.plan.after_blocks == Some(self.blocks_executed) {
                self.dev.crashed = true;
            }
        }
        true
    }

    /// Runs the remaining blocks (unobserved) and totals the launch. If it
    /// crashed — at the plan's store count or block boundary, or at a
    /// trigger armed on the memory — the memory's volatile cache is
    /// discarded, as a real power loss would.
    pub fn finish(mut self, kernel: &dyn Kernel, mem: &mut PersistMemory) -> LaunchOutcome {
        while self.step(kernel, mem, None) {}
        let cfg = &self.gpu.cfg;
        let dev = &self.dev;
        let compute_ns = self.sm_busy.iter().fold(0.0f64, |a, &b| a.max(b));
        let bandwidth_ns = self.global_bytes as f64 / cfg.mem_bandwidth_gbps;
        let atomic_ns = dev.max_channel_ns();
        // Atomics and bulk traffic share the memory partitions: an atomic
        // RMW occupies its partition's pipeline, so the two serialise
        // *with each other* (additive), while compute can overlap either.
        let memory_ns = bandwidth_ns + atomic_ns;
        let kernel_ns =
            cfg.cost.launch_overhead_ns + compute_ns.max(memory_ns) + dev.lock_serial_ns;

        let stats = LaunchStats {
            kernel: kernel.name().to_string(),
            num_blocks: self.lc.num_blocks(),
            threads_per_block: self.lc.threads_per_block(),
            compute_ns,
            bandwidth_ns,
            atomic_ns,
            lock_serial_ns: dev.lock_serial_ns,
            kernel_ns,
            total_parallel_cycles: self.total_parallel,
            total_serial_cycles: self.total_serial,
            global_bytes: self.global_bytes,
            atomic_ops: self.atomic_ops,
            contended_atomics: dev.contended_atomics,
            blocks_executed: self.blocks_executed,
            crashed: dev.crashed,
            nvm: mem.stats() - self.nvm_before,
        };

        if dev.crashed {
            // A memory-armed trigger has already powered the NVM off and
            // captured its loss record; only a device-side crash (store
            // clock or block boundary) still needs to discard the cache.
            if !mem.power_failed() {
                mem.crash();
            }
            LaunchOutcome::Crashed(stats)
        } else {
            LaunchOutcome::Completed(stats)
        }
    }
}

impl Default for Gpu {
    fn default() -> Self {
        Self::new(DeviceConfig::v100())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvm::{Addr, NvmConfig};

    /// out[i] = i * mult for i < n.
    struct Scale {
        out: Addr,
        n: u64,
        mult: u64,
    }

    impl Kernel for Scale {
        fn name(&self) -> &str {
            "scale"
        }

        fn config(&self) -> LaunchConfig {
            LaunchConfig::linear(self.n, 64)
        }

        fn run_block(&self, ctx: &mut BlockCtx<'_>) {
            for t in 0..ctx.threads_per_block() {
                let gid = ctx.global_thread_id(t);
                if gid < self.n {
                    ctx.charge_alu(1);
                    ctx.store_u64(self.out.index(gid, 8), gid * self.mult);
                }
            }
        }
    }

    fn setup(n: u64) -> (Gpu, PersistMemory, Addr) {
        let mut mem = PersistMemory::new(NvmConfig::default());
        let out = mem.alloc(8 * n, 8);
        (Gpu::new(DeviceConfig::test_gpu()), mem, out)
    }

    #[test]
    fn kernel_computes_correct_results() {
        let (gpu, mut mem, out) = setup(1000);
        let k = Scale {
            out,
            n: 1000,
            mult: 7,
        };
        let stats = gpu.launch(&k, &mut mem).unwrap();
        for i in [0u64, 1, 999] {
            assert_eq!(mem.read_u64(out.index(i, 8)), i * 7);
        }
        assert_eq!(stats.blocks_executed, stats.num_blocks);
        assert!(!stats.crashed);
        assert!(stats.kernel_ns > 0.0);
    }

    #[test]
    fn timing_scales_with_work() {
        let (gpu, mut mem, out) = setup(100_000);
        let small = Scale {
            out,
            n: 1000,
            mult: 1,
        };
        let large = Scale {
            out,
            n: 100_000,
            mult: 1,
        };
        let t_small = gpu.launch(&small, &mut mem).unwrap().kernel_ns;
        let t_large = gpu.launch(&large, &mut mem).unwrap().kernel_ns;
        assert!(t_large > t_small, "more work must take longer");
    }

    #[test]
    fn determinism() {
        let (gpu, mut mem1, out1) = setup(5000);
        let (_, mut mem2, out2) = setup(5000);
        let s1 = gpu
            .launch(
                &Scale {
                    out: out1,
                    n: 5000,
                    mult: 3,
                },
                &mut mem1,
            )
            .unwrap();
        let s2 = gpu
            .launch(
                &Scale {
                    out: out2,
                    n: 5000,
                    mult: 3,
                },
                &mut mem2,
            )
            .unwrap();
        assert_eq!(s1.kernel_ns, s2.kernel_ns);
        assert_eq!(s1.nvm, s2.nvm);
    }

    #[test]
    fn crash_truncates_execution_and_discards_cache() {
        let (gpu, mut mem, out) = setup(10_000);
        let k = Scale {
            out,
            n: 10_000,
            mult: 1,
        };
        let outcome = gpu
            .launch_with_plan(&k, &mut mem, CrashPlan::after_stores(500))
            .unwrap();
        assert!(outcome.crashed());
        let stats = outcome.stats();
        assert!(stats.blocks_executed < stats.num_blocks);
        // Late elements were never written and early ones may have been lost
        // with the cache: every surviving value must be correct (i*1) or 0.
        for i in 0..10_000u64 {
            let v = mem.read_u64(out.index(i, 8));
            assert!(v == i || v == 0, "corrupted value {v} at {i}");
        }
    }

    #[test]
    fn block_boundary_crash_stops_after_exact_block_count() {
        let (gpu, mut mem, out) = setup(10_000);
        let k = Scale {
            out,
            n: 10_000,
            mult: 1,
        };
        let plan = CrashPlan {
            after_global_stores: None,
            after_blocks: Some(3),
        };
        let outcome = gpu.launch_with_plan(&k, &mut mem, plan).unwrap();
        assert!(outcome.crashed());
        assert_eq!(outcome.stats().blocks_executed, 3);
    }

    #[test]
    fn block_boundary_zero_crashes_before_any_block() {
        let (gpu, mut mem, out) = setup(1000);
        let k = Scale {
            out,
            n: 1000,
            mult: 1,
        };
        let plan = CrashPlan {
            after_global_stores: None,
            after_blocks: Some(0),
        };
        let outcome = gpu.launch_with_plan(&k, &mut mem, plan).unwrap();
        assert!(outcome.crashed());
        assert_eq!(outcome.stats().blocks_executed, 0);
        for i in 0..1000u64 {
            assert_eq!(mem.read_u64(out.index(i, 8)), 0);
        }
    }

    #[test]
    fn empty_plan_behaves_like_plain_launch() {
        let (gpu, mut mem, out) = setup(500);
        let k = Scale {
            out,
            n: 500,
            mult: 3,
        };
        let outcome = gpu
            .launch_with_plan(&k, &mut mem, CrashPlan::never())
            .unwrap();
        assert!(!outcome.crashed());
        assert_eq!(mem.read_u64(out.index(499, 8)), 499 * 3);
    }

    #[test]
    fn memory_armed_trigger_cuts_launch_short() {
        // A tiny cache so the store stream forces natural evictions.
        let cfg = NvmConfig {
            cache_lines: 64,
            associativity: 4,
            ..NvmConfig::default()
        };
        let mut mem = PersistMemory::new(cfg);
        let out = mem.alloc(8 * 100_000, 8);
        let gpu = Gpu::new(DeviceConfig::test_gpu());
        mem.arm_crash_after_evictions(4);
        let k = Scale {
            out,
            n: 100_000,
            mult: 1,
        };
        let outcome = gpu
            .launch_with_plan(&k, &mut mem, CrashPlan::never())
            .unwrap();
        assert!(outcome.crashed());
        assert!(outcome.stats().blocks_executed < outcome.stats().num_blocks);
        assert!(mem.power_failed());
        let loss = mem
            .take_crash_loss()
            .expect("trigger must capture a loss record");
        assert_eq!(loss.at_evictions, 4);
    }

    #[test]
    fn lost_lines_carry_writer_block_ids() {
        let (gpu, mut mem, out) = setup(10_000);
        let k = Scale {
            out,
            n: 10_000,
            mult: 1,
        };
        let outcome = gpu
            .launch_with_plan(&k, &mut mem, CrashPlan::after_stores(500))
            .unwrap();
        assert!(outcome.crashed());
        let loss = mem
            .take_crash_loss()
            .expect("crash must capture a loss record");
        let writers = loss.all_writers();
        assert!(!writers.is_empty(), "some dirty lines must have been lost");
        let executed = outcome.stats().blocks_executed;
        for w in &writers {
            assert!(
                *w <= executed,
                "writer {w} beyond executed prefix {executed}"
            );
        }
    }

    #[test]
    fn crash_after_kernel_end_completes_normally() {
        let (gpu, mut mem, out) = setup(100);
        let k = Scale {
            out,
            n: 100,
            mult: 2,
        };
        let outcome = gpu
            .launch_with_plan(&k, &mut mem, CrashPlan::after_stores(1_000_000))
            .unwrap();
        assert!(!outcome.crashed());
    }

    #[test]
    fn shared_memory_starts_zeroed_in_every_block() {
        /// Every block checks its arrays read 0, then fills them.
        struct Dirty;
        impl Kernel for Dirty {
            fn name(&self) -> &str {
                "dirty"
            }
            fn config(&self) -> LaunchConfig {
                LaunchConfig::linear(2 * 64, 64)
            }
            fn run_block(&self, ctx: &mut BlockCtx<'_>) {
                // Block 1 allocates differently from block 0, so its arrays
                // straddle the words block 0 left behind.
                let sizes = if ctx.block_id() == 0 {
                    [48, 16]
                } else {
                    [8, 56]
                };
                for words in sizes {
                    let h = ctx.shared_alloc(words);
                    for i in 0..words {
                        assert_eq!(ctx.shm_read(h, i), 0, "block {}", ctx.block_id());
                        ctx.shm_write(h, i, u64::MAX);
                    }
                }
            }
        }
        let mut mem = PersistMemory::new(NvmConfig::default());
        let stats = Gpu::new(DeviceConfig::test_gpu())
            .launch(&Dirty, &mut mem)
            .unwrap();
        assert_eq!(stats.blocks_executed, 2);
    }

    #[test]
    fn empty_launch_rejected() {
        struct Empty;
        impl Kernel for Empty {
            fn name(&self) -> &str {
                "empty"
            }
            fn config(&self) -> LaunchConfig {
                LaunchConfig {
                    grid: crate::Dim3::x(0),
                    block: crate::Dim3::x(64),
                }
            }
            fn run_block(&self, _: &mut BlockCtx<'_>) {}
        }
        let mut mem = PersistMemory::new(NvmConfig::default());
        let gpu = Gpu::default();
        assert_eq!(gpu.launch(&Empty, &mut mem), Err(LaunchError::EmptyLaunch));
    }

    #[test]
    fn bandwidth_floor_applies() {
        // A kernel that moves lots of bytes with almost no compute should be
        // bandwidth-bound: kernel_ns ≈ launch_overhead + bandwidth_ns.
        struct Stream {
            src: Addr,
            dst: Addr,
            n: u64,
        }
        impl Kernel for Stream {
            fn name(&self) -> &str {
                "stream"
            }
            fn config(&self) -> LaunchConfig {
                LaunchConfig::linear(self.n, 256)
            }
            fn run_block(&self, ctx: &mut BlockCtx<'_>) {
                for t in 0..ctx.threads_per_block() {
                    let gid = ctx.global_thread_id(t);
                    if gid < self.n {
                        let v = ctx.load_u64(self.src.index(gid, 8));
                        ctx.store_u64(self.dst.index(gid, 8), v);
                    }
                }
            }
        }
        let mut mem = PersistMemory::new(NvmConfig::default());
        let n = 1 << 16;
        let src = mem.alloc(8 * n, 8);
        let dst = mem.alloc(8 * n, 8);
        let gpu = Gpu::new(DeviceConfig::test_gpu());
        let stats = gpu.launch(&Stream { src, dst, n }, &mut mem).unwrap();
        assert_eq!(stats.global_bytes, 16 * n);
        assert!(stats.bandwidth_ns > 0.0);
    }

    #[test]
    fn atomic_hotspot_shows_in_atomic_component() {
        struct Hot {
            ctr: Addr,
        }
        impl Kernel for Hot {
            fn name(&self) -> &str {
                "hot"
            }
            fn config(&self) -> LaunchConfig {
                LaunchConfig::linear(64 * 64, 64)
            }
            fn run_block(&self, ctx: &mut BlockCtx<'_>) {
                for _ in 0..ctx.threads_per_block() {
                    ctx.atomic_add_u32(self.ctr, 1);
                }
            }
        }
        let mut mem = PersistMemory::new(NvmConfig::default());
        let ctr = mem.alloc(4, 4);
        let gpu = Gpu::new(DeviceConfig::test_gpu());
        let stats = gpu.launch(&Hot { ctr }, &mut mem).unwrap();
        assert_eq!(mem.read_u32(ctr), 64 * 64);
        assert!(stats.atomic_ns > 0.0);
        assert_eq!(stats.atomic_ops, 64 * 64);
    }
}
