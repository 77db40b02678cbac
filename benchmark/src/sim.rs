//! What the three simulating workloads share: fresh worlds, one timed
//! kernel "leg", and the bookkeeping of a repetition.

use crate::digest::Fnv;
use crate::trace::Tracer;
use gpu_lp::{LpConfig, LpRuntime, ResilientRecovery};
use lp_kernels::{workload_by_name, Scale};
use nvm::{Addr, BumpAllocator, NvmConfig, NvmStats, PersistMemory};
use simt::{CrashPlan, DeviceConfig, Gpu, LaunchStats};
use std::collections::BTreeMap;
use std::time::Instant;

/// Exact simulated counts (the † metrics) summed over one repetition.
pub type Counts = BTreeMap<&'static str, f64>;

/// Accumulators of one repetition of any workload.
#[derive(Debug)]
pub struct Rep<'t> {
    /// Span recorder (disabled in the untraced run).
    pub t: &'t mut Tracer,
    /// Input seed of this run.
    pub seed: u64,
    /// Seconds of input construction before the timed regions.
    pub setup_s: f64,
    /// Seconds inside the timed regions.
    pub wall_s: f64,
    /// Items attempted.
    pub items: u64,
    /// Items that failed their check.
    pub failed: u64,
    /// Everything simulated, hashed.
    pub digest: Fnv,
    /// † counts.
    pub counts: Counts,
    /// Simulated nanoseconds of every launch (the denominator of
    /// `simt.host_ns_per_sim_ns`).
    pub sim_ns: f64,
    /// Simulated nanoseconds per suite-kernel launch, by span tag
    /// (`"TMM/eager"`), for the slowdown ratios.
    pub kernel_ns: Vec<(String, f64)>,
}

impl<'t> Rep<'t> {
    /// Empty accumulators for one repetition.
    pub fn new(t: &'t mut Tracer, seed: u64) -> Self {
        Rep {
            t,
            seed,
            setup_s: 0.0,
            wall_s: 0.0,
            items: 0,
            failed: 0,
            digest: Fnv::default(),
            counts: Counts::new(),
            sim_ns: 0.0,
            kernel_ns: Vec::new(),
        }
    }

    /// Adds `v` to the † count `name`.
    pub fn count(&mut self, name: &'static str, v: f64) {
        *self.counts.entry(name).or_insert(0.0) += v;
    }

    /// Books `items` attempted, all of them failed unless `ok`.
    pub fn attempt(&mut self, items: u64, ok: bool) {
        self.items += items;
        if !ok {
            self.failed += items;
        }
    }

    /// Folds the NVM-side † counts of one timed region in.
    pub fn count_nvm(&mut self, nvm: &NvmStats) {
        self.count("nvm.cache_hits", nvm.cache_hits as f64);
        self.count("nvm.cache_misses", nvm.cache_misses as f64);
        self.count("nvm.natural_evictions", nvm.natural_evictions as f64);
        self.count("nvm.nvm_writes", nvm.nvm_writes as f64);
        self.count("nvm.explicit_flushes", nvm.explicit_flushes as f64);
        self.count("nvm.adr_accepts", nvm.adr_accepts as f64);
    }

    /// Folds the device-side † counts of one launch in.
    pub fn count_launch(&mut self, launch: &LaunchStats) {
        self.count("simt.blocks", launch.blocks_executed as f64);
        self.count("simt.atomic_ops", launch.atomic_ops as f64);
        self.sim_ns += launch.kernel_ns;
    }
}

/// The 64 KiB cache of `memory_bound`: small enough that the bench-scale
/// kernels miss, evict and write back throughout the launch.
pub fn small_cache() -> NvmConfig {
    NvmConfig {
        cache_lines: 512,
        associativity: 8,
        ..NvmConfig::default()
    }
}

/// A fresh V100 and a fresh memory with cache geometry `nvm`.
pub fn world(nvm: &NvmConfig) -> (Gpu, PersistMemory) {
    (
        Gpu::new(DeviceConfig::v100()),
        PersistMemory::new(nvm.clone()),
    )
}

/// Hashes the durable image: every allocated byte as a crash would keep it.
pub fn digest_durable(digest: &mut Fnv, mem: &PersistMemory) {
    let mut image = vec![0u8; mem.allocated_bytes() as usize];
    mem.read_durable_bytes(Addr::new(BumpAllocator::BASE), &mut image);
    digest.bytes(&image);
}

/// Simulated global accesses of a timed region.
pub fn accesses(nvm: &NvmStats) -> u64 {
    nvm.load_ops + nvm.store_ops
}

/// Which variant of a kernel a leg runs.
#[derive(Debug, Clone, Copy)]
pub enum Variant<'c> {
    /// Uninstrumented kernel.
    Baseline,
    /// Kernel under an LP runtime configured by the given design point.
    Lp(&'c LpConfig),
    /// LP kernel that loses power after eight natural evictions, then is
    /// recovered by `ResilientRecovery`.
    LpCrash(&'c LpConfig),
}

/// One suite kernel in a fresh world: set-up (untimed), then launch →
/// (recover) → `flush_all` → `verify` (timed). `label` names the variant in
/// span tags (`"SPMV/lp"`). Returns the stats of the (possibly crashed)
/// launch.
pub fn kernel_leg(
    rep: &mut Rep<'_>,
    name: &str,
    label: &str,
    scale: Scale,
    cache: &NvmConfig,
    variant: Variant<'_>,
) -> LaunchStats {
    let tag = format!("{name}/{label}");

    let t0 = Instant::now();
    let s = rep.t.begin("kernels.setup", &tag);
    let (gpu, mut mem) = world(cache);
    let mut w = workload_by_name(name, scale, rep.seed).expect("suite kernel name");
    w.setup(&mut mem);
    rep.t.end(s);
    let lc = w.launch_config();
    let rt = match variant {
        Variant::Baseline => None,
        Variant::Lp(cfg) | Variant::LpCrash(cfg) => {
            let s = rep.t.begin("core.runtime_setup", &tag);
            let rt = LpRuntime::setup(
                &mut mem,
                lc.num_blocks(),
                lc.threads_per_block(),
                cfg.clone(),
            );
            mem.flush_all();
            rep.t.end(s);
            Some(rt)
        }
    };
    mem.reset_stats();
    rep.setup_s += t0.elapsed().as_secs_f64();

    let t1 = Instant::now();
    let kernel = w.kernel(rt.as_ref());
    let crash = matches!(variant, Variant::LpCrash(_));
    if crash {
        mem.arm_crash_after_evictions(8);
    }
    let s = rep.t.begin("simt.launch", &tag);
    let outcome = gpu
        .launch_with_plan(kernel.as_ref(), &mut mem, CrashPlan::never())
        .expect("non-empty launch");
    rep.t.end(s);
    let mut recovered = true;
    if crash {
        mem.disarm_crash();
        if mem.power_failed() {
            mem.power_on();
        }
        let rt = rt.as_ref().expect("crash legs run under LP");
        let s = rep.t.begin("core.recover", &tag);
        let report = ResilientRecovery::new(&gpu).recover(kernel.as_ref(), rt, &mut mem);
        rep.t.end(s);
        recovered = report.all_durable;
        rep.count("core.reexecutions", report.reexecutions as f64);
        rep.count("core.recovery_rounds", f64::from(report.rounds));
        rep.digest.value(&report);
    }
    let s = rep.t.begin("nvm.flush_all", &tag);
    mem.flush_all();
    rep.t.end(s);
    let s = rep.t.begin("kernels.verify", &tag);
    let verified = w.verify(&mut mem) && recovered;
    rep.t.end(s);
    rep.wall_s += t1.elapsed().as_secs_f64();

    let launch = outcome.stats().clone();
    let nvm = mem.stats();
    rep.attempt(accesses(&nvm), verified);
    rep.count_nvm(&nvm);
    rep.count_launch(&launch);
    rep.kernel_ns.push((tag, launch.kernel_ns));
    if let Some(rt) = &rt {
        rep.count("core.table_collisions", rt.table_stats().collisions as f64);
    }
    rep.digest.value(&launch);
    rep.digest.value(&nvm);
    digest_durable(&mut rep.digest, &mem);
    launch
}
