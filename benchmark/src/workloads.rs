//! One repetition of each of the six workloads.
//!
//! A repetition builds fresh worlds, runs its timed regions, checks every
//! output, and leaves set-up time, timed time, items, failures, † counts
//! and the simulated digest in its [`Rep`]. Sizes are fixed here: when time
//! is short the callers cut repetitions, never problem sizes.

use crate::corpus::Corpus;
use crate::digest::without;
use crate::sim::{accesses, digest_durable, kernel_leg, small_cache, world, Rep, Variant};
use crate::stats::{geomean, median};
use gpu_lp::{BackendKind, LpConfig};
use lp_apps::{build_app, AppKind, AppParams};
use lp_fault::{percentiles, run_campaign, run_soak, soak_world, CampaignSpec, SoakSpec};
use lp_kernels::{Scale, WORKLOAD_NAMES};
use megakv::app::OpKind;
use megakv::MegaKv;
use nvm::NvmConfig;
use serde::Serialize as _;
use std::time::Instant;

/// Kernels of `compute_bound`: instruction-throughput bound in Table I.
pub const COMPUTE_KERNELS: [&str; 4] = ["TMM", "TPACF", "CUTCP", "MRI-Q"];
/// Kernels of `memory_bound`: the bandwidth-bound half of the suite.
pub const MEMORY_KERNELS: [&str; 4] = ["SPMV", "SAD", "MRI-GRIDDING", "HISTO"];
/// Explicit-persistency backends of `backend_spectrum`.
pub const EXPLICIT_BACKENDS: [BackendKind; 3] =
    [BackendKind::Eager, BackendKind::Epoch, BackendKind::Sbrp];
/// Records per MEGA-KV batch in `memory_bound`.
pub const MEGAKV_RECORDS: usize = 32_768;
/// Trials of one `crash_campaign` repetition.
pub const CAMPAIGN_BUDGET: usize = 1500;
/// Worker threads of `crash_campaign`, the only multi-threaded workload.
pub const CAMPAIGN_THREADS: usize = 2;
/// Backends of the soak grid.
pub const SOAK_BACKENDS: [BackendKind; 3] = [
    BackendKind::LpChecksum,
    BackendKind::Epoch,
    BackendKind::Adaptive,
];
/// Device-fault rates of the soak grid, basis points.
pub const SOAK_FAULT_BP: [u32; 2] = [0, 200];
/// Soak seeds on which all 18 cells of the grid pass their oracles.
///
/// At 200 bp the `lp` and `adaptive` cells of every service lose data on
/// about six seeds in ten at the commit this benchmark was defined on (48
/// of the seeds 1..=80; the first such cycle reads "uncheckpointed epoch in
/// flight after restore" on `train`). That is a correctness finding for
/// `apps`/`core::resilient`, not something a host-time benchmark may count
/// as work done, so the run's seed only picks among these sixteen schedules.
/// A change that makes one of them fail shows up as failed items.
pub const SOAK_SEEDS: [u64; 16] = [1, 3, 8, 9, 12, 14, 15, 16, 18, 27, 28, 29, 32, 36, 37, 42];
/// Lint passes over the 29 fixtures per repetition.
pub const LINT_PASSES: usize = 200;
/// Lint calls on the 8x clean source per repetition.
pub const LINT_BIG_PASSES: usize = 20;

/// Set-ups that take milliseconds or less are run this many times per
/// repetition and their median booked, so that `setup_s` never rests on a
/// single sub-millisecond sample.
pub const CHEAP_SETUP_REPEATS: usize = 9;

/// Runs `build` [`CHEAP_SETUP_REPEATS`] times, books the median as this
/// repetition's set-up time, and returns the last result. Only the first
/// call gets a span, so per-layer sums count one set-up per repetition.
fn cheap_setup<T>(rep: &mut Rep<'_>, span: &str, mut build: impl FnMut() -> T) -> T {
    let mut secs = Vec::with_capacity(CHEAP_SETUP_REPEATS);
    let mut built = None;
    for i in 0..CHEAP_SETUP_REPEATS {
        let s = (i == 0).then(|| rep.t.begin(span, ""));
        let t0 = Instant::now();
        built = Some(build());
        secs.push(t0.elapsed().as_secs_f64());
        if let Some(s) = s {
            rep.t.end(s);
        }
    }
    rep.setup_s += median(&secs);
    built.expect("CHEAP_SETUP_REPEATS is not zero")
}

/// Runs one repetition of workload `name`.
///
/// # Panics
///
/// Panics on a name outside [`crate::names::WORKLOADS`].
pub fn run_rep(name: &str, rep: &mut Rep<'_>) {
    let root = rep.t.begin("rep", name);
    match name {
        "compute_bound" => compute_bound(rep),
        "memory_bound" => memory_bound(rep),
        "backend_spectrum" => backend_spectrum(rep),
        "crash_campaign" => crash_campaign(rep),
        "service_soak" => service_soak(rep),
        "lint_corpus" => lint_corpus(rep),
        other => panic!("unknown workload {other:?}"),
    }
    rep.t.end(root);
}

/// Baseline and LP leg of each kernel; returns the simulated LP slowdowns.
fn baseline_and_lp(rep: &mut Rep<'_>, kernels: &[&str], cache: &NvmConfig) {
    let cfg = LpConfig::recommended();
    let mut slowdowns = Vec::new();
    for name in kernels {
        let base = kernel_leg(
            rep,
            name,
            "baseline",
            Scale::Bench,
            cache,
            Variant::Baseline,
        );
        let lp = kernel_leg(rep, name, "lp", Scale::Bench, cache, Variant::Lp(&cfg));
        slowdowns.push(lp.slowdown_vs(&base));
    }
    rep.count("core.lp_overhead_geomean", geomean(&slowdowns));
}

fn compute_bound(rep: &mut Rep<'_>) {
    baseline_and_lp(rep, &COMPUTE_KERNELS, &NvmConfig::default());
}

fn memory_bound(rep: &mut Rep<'_>) {
    let cache = small_cache();
    baseline_and_lp(rep, &MEMORY_KERNELS, &cache);
    let cfg = LpConfig::recommended();
    for name in MEMORY_KERNELS {
        kernel_leg(
            rep,
            name,
            "crash",
            Scale::Bench,
            &cache,
            Variant::LpCrash(&cfg),
        );
    }
    megakv_leg(rep, "baseline", &cache, None);
    megakv_leg(rep, "lp", &cache, Some(&cfg));
}

/// Insert, search and delete one batch each on a fresh store, checking the
/// store after every operation.
fn megakv_leg(rep: &mut Rep<'_>, label: &str, cache: &NvmConfig, lp: Option<&LpConfig>) {
    let t0 = Instant::now();
    let s = rep.t.begin("megakv.setup", label);
    let (gpu, mut mem) = world(cache);
    let app = MegaKv::new(&mut mem, MEGAKV_RECORDS, rep.seed);
    let runtimes = lp.map(|cfg| OpKind::ALL.map(|op| app.lp_runtime(&mut mem, op, cfg.clone())));
    mem.flush_all();
    rep.t.end(s);
    mem.reset_stats();
    rep.setup_s += t0.elapsed().as_secs_f64();

    let t1 = Instant::now();
    let mut verified = true;
    for (i, op) in OpKind::ALL.into_iter().enumerate() {
        let rt = runtimes.as_ref().map(|r| &r[i]);
        let s = rep.t.begin(&format!("megakv.{}", op.name()), label);
        let launch = app.run(&gpu, &mut mem, op, rt);
        rep.t.end(s);
        let s = rep.t.begin("nvm.flush_all", label);
        mem.flush_all();
        rep.t.end(s);
        let s = rep.t.begin("megakv.verify", label);
        verified &= match op {
            OpKind::Insert => app.verify_inserts(&mut mem),
            OpKind::Search => app.verify_searches(&mut mem),
            OpKind::Delete => app.verify_deletes(&mut mem),
        };
        rep.t.end(s);
        rep.count_launch(&launch);
        rep.digest.value(&launch);
    }
    rep.wall_s += t1.elapsed().as_secs_f64();

    let nvm = mem.stats();
    rep.attempt(accesses(&nvm), verified);
    rep.count_nvm(&nvm);
    rep.digest.value(&nvm);
    digest_durable(&mut rep.digest, &mem);
}

fn backend_spectrum(rep: &mut Rep<'_>) {
    let cache = NvmConfig::default();
    for backend in EXPLICIT_BACKENDS {
        let cfg = LpConfig::for_backend(backend);
        for name in WORKLOAD_NAMES {
            kernel_leg(
                rep,
                name,
                backend.name(),
                Scale::Bench,
                &cache,
                Variant::Lp(&cfg),
            );
        }
    }
}

/// The campaign `crash_campaign` runs: the default sweep on all five
/// backends, statically pruned, sampled down to the budget.
pub fn campaign_spec(seed: u64, threads: usize) -> CampaignSpec {
    let mut backends = BackendKind::ALL.to_vec();
    backends.push(BackendKind::Adaptive);
    CampaignSpec {
        backends,
        seeds: vec![seed, seed.wrapping_add(1)],
        prune: true,
        budget: Some(CAMPAIGN_BUDGET),
        threads,
        trial_timeout_ms: None,
        ..CampaignSpec::default_sweep(Scale::Test)
    }
}

fn crash_campaign(rep: &mut Rep<'_>) {
    let spec = campaign_spec(rep.seed, CAMPAIGN_THREADS);
    let (ids, ledger) = cheap_setup(rep, "fault.enumerate", || spec.enumerate_explained());

    let t1 = Instant::now();
    let s = rep.t.begin("fault.run_campaign", "");
    let report = run_campaign(&spec, |_, _| {});
    rep.t.end(s);
    rep.wall_s += t1.elapsed().as_secs_f64();

    let sound = report.trials == ids.len() as u64 && report.pruned_trials == ledger.len() as u64;
    rep.items += report.trials;
    rep.failed += if sound {
        report.trials - report.passed
    } else {
        report.trials
    };
    rep.count("fault.trials_run", report.trials as f64);
    rep.count("fault.trials_pruned", report.pruned_trials as f64);
    rep.count("fault.trials_crashed", report.crashed as f64);
    rep.digest
        .tree(&without(report.to_value(), &["spec", "threads"]));
}

/// The 18 cells of the soak grid for the run's `seed`. Cell `i` soaks on
/// schedule `seed + i` of [`SOAK_SEEDS`]: one schedule for the whole grid
/// made a repetition's work swing by a tenth with the seed, eighteen drawn
/// in turn average that out.
pub fn soak_grid(seed: u64) -> Vec<SoakSpec> {
    let mut cells = Vec::new();
    for app in AppKind::ALL {
        for backend in SOAK_BACKENDS {
            for fault_bp in SOAK_FAULT_BP {
                let turn = seed.wrapping_add(cells.len() as u64) % SOAK_SEEDS.len() as u64;
                cells.push(SoakSpec {
                    app,
                    backend,
                    seed: SOAK_SEEDS[turn as usize],
                    cycles: 100,
                    max_steps_per_cycle: 3,
                    fault_bp,
                    width: 96,
                });
            }
        }
    }
    cells
}

/// The service parameters `run_soak` derives from a cell.
pub fn soak_params(spec: &SoakSpec) -> AppParams {
    AppParams {
        backend: spec.backend,
        seed: spec.seed,
        max_steps: spec.cycles * (spec.max_steps_per_cycle + 1) + 8,
        width: spec.width,
    }
}

fn service_soak(rep: &mut Rep<'_>) {
    // `run_soak` builds its world and service itself, inside the timed
    // region; set-up times the same constructions on their own, so work
    // that moves into them shows.
    let grid = soak_grid(rep.seed);
    cheap_setup(rep, "apps.build", || {
        for spec in &grid {
            let (_gpu, mut mem) = soak_world();
            let app = build_app(spec.app, soak_params(spec), &mut mem);
            std::hint::black_box(app.name());
        }
    });

    let mut restorations = Vec::new();
    for spec in &grid {
        let t1 = Instant::now();
        let s = rep.t.begin("fault.run_soak", &spec.label());
        let report = run_soak(spec);
        rep.t.end(s);
        rep.wall_s += t1.elapsed().as_secs_f64();

        // A waived cell stops early by contract; its cycles up to and
        // including the waived one count as completed, not failed.
        rep.items += report.cycles.len() as u64;
        rep.failed += report.failures().len() as u64;
        restorations.extend(report.cycles.iter().map(|c| c.restoration_ns));
        rep.digest.value(&report);
    }
    let restored = percentiles(&restorations).expect("every cell completes a cycle");
    rep.count("apps.sim_restore_p95_ns", restored.p95 as f64);
}

fn lint_corpus(rep: &mut Rep<'_>) {
    let seed = rep.seed;
    let corpus = cheap_setup(rep, "directive.load", || Corpus::load(seed));

    let t1 = Instant::now();
    let mut diagnostics = 0u64;
    for pass in 0..LINT_PASSES {
        for file in &corpus.files {
            let s = rep.t.begin("directive.lint", &file.name);
            let found = lp_directive::lint(&file.source);
            rep.t.end(s);
            rep.attempt(1, found.len() as u64 == file.expected);
            if pass == 0 && found.len() as u64 != file.expected {
                eprintln!(
                    "lint_corpus: {} gave {} diagnostics, snapshot says {}",
                    file.name,
                    found.len(),
                    file.expected
                );
            }
            diagnostics += found.len() as u64;
            if pass == 0 {
                for d in &found {
                    rep.digest.bytes(d.to_string().as_bytes());
                }
            }
        }
    }
    for pass in 0..LINT_BIG_PASSES {
        let s = rep.t.begin("directive.lint", "clean-x8");
        let found = lp_directive::lint(&corpus.big);
        rep.t.end(s);
        rep.attempt(1, found.len() as u64 == corpus.big_expected);
        if pass == 0 && found.len() as u64 != corpus.big_expected {
            eprintln!(
                "lint_corpus: clean-x8 gave {} diagnostics, snapshot says {}",
                found.len(),
                corpus.big_expected
            );
        }
        diagnostics += found.len() as u64;
        if pass == 0 {
            rep.digest.u64(found.len() as u64);
        }
    }
    for file in corpus.files.iter().filter(|f| f.clean) {
        let s = rep.t.begin("directive.compile", &file.name);
        let compiled = lp_directive::compile(&file.source);
        rep.t.end(s);
        rep.digest.bytes(format!("{compiled:?}").as_bytes());
    }
    rep.wall_s += t1.elapsed().as_secs_f64();
    rep.count("directive.diagnostics", diagnostics as f64);
}
