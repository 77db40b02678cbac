//! Per-layer metrics of the traced run: what the spans of the traced
//! repetitions say, plus layer experiments that need runs of their own
//! (access-stream replay, observed launches, single-thread trials, services
//! driven step by step).

use crate::corpus::Corpus;
use crate::replay::Recorder;
use crate::report::Metrics;
use crate::sim::{small_cache, world};
use crate::stats::{fast_quartile, geomean, median, percentile, tail_percentile};
use crate::trace::Tracer;
use crate::workloads::{
    campaign_spec, soak_params, COMPUTE_KERNELS, EXPLICIT_BACKENDS, LINT_PASSES, MEMORY_KERNELS,
};
use gpu_lp::table::splitmix64;
use gpu_lp::{BackendKind, LpConfig, LpRuntime, PolicyConfig, PolicyEngine, RegionSignals};
use lp_apps::{build_app, AppKind};
use lp_fault::{run_trial, soak_world, SoakSpec};
use lp_kernels::{workload_by_name, Scale, Workload, WORKLOAD_NAMES};
use lp_sanitizer::sanitize_launch_exempt;
use nvm::{NvmConfig, PersistMemory};
use serde::Value;
use serde_json::json;
use simt::{AccessObserver, Gpu, LaunchStats};
use std::time::Instant;

/// Checks made by the experiments themselves, and the per-kernel table.
#[derive(Debug)]
pub struct Experiments {
    /// Checks attempted (replay equalities, restores, trials).
    pub attempted: u64,
    /// Checks failed.
    pub failed: u64,
    /// Per-kernel (or per-app) breakdown kept in the detail file.
    pub breakdown: Value,
}

impl Default for Experiments {
    fn default() -> Self {
        Experiments {
            attempted: 0,
            failed: 0,
            breakdown: json!({}),
        }
    }
}

fn med(t: &Tracer, name: &str, keep: impl Fn(&str) -> bool) -> f64 {
    let per_rep = t.seconds_per_rep(name, keep);
    if per_rep.is_empty() {
        0.0
    } else {
        fast_quartile(&per_rep, true)
    }
}

/// Metrics that are sums of span durations per traced repetition (the fast
/// quartile over repetitions), and the ratios built on them.
pub fn from_spans(t: &Tracer, sim_ns: f64, m: &mut Metrics) {
    let any = |_: &str| true;
    let launch_s = med(t, "simt.launch", any);
    m.set("simt.launch_s", launch_s);
    for kernel in WORKLOAD_NAMES {
        let prefix = format!("{kernel}/");
        let s = med(t, "simt.launch", |tag| tag.starts_with(&prefix));
        m.set(&format!("kernels.launch_s.{kernel}"), s);
    }
    m.set("nvm.flush_all_s", med(t, "nvm.flush_all", any));
    m.set("kernels.setup_s", med(t, "kernels.setup", any));
    m.set("kernels.verify_s", med(t, "kernels.verify", any));
    m.set("core.runtime_setup_s", med(t, "core.runtime_setup", any));
    m.set("core.recover_s", med(t, "core.recover", any));
    let mut megakv_s = 0.0;
    for op in ["insert", "search", "delete"] {
        let s = med(t, &format!("megakv.{op}"), any);
        m.set(&format!("megakv.{op}_s"), s);
        megakv_s += s;
    }
    let lp_s = med(t, "simt.launch", |tag| tag.ends_with("/lp"));
    let base_s = med(t, "simt.launch", |tag| tag.ends_with("/baseline"));
    if lp_s > 0.0 && base_s > 0.0 {
        m.set("core.lp_extra_s", lp_s - base_s);
    }
    for backend in EXPLICIT_BACKENDS {
        let suffix = format!("/{}", backend.name());
        let s = med(t, "simt.launch", |tag| tag.ends_with(&suffix));
        m.set(&format!("persist.launch_s.{}", backend.name()), s);
    }
    m.set("fault.enumerate_s", med(t, "fault.enumerate", any));
    m.set("directive.compile_s", med(t, "directive.compile", any));

    if launch_s > 0.0 {
        m.set(
            "simt.blocks_per_s",
            m.get("simt.blocks") / (launch_s + megakv_s),
        );
    }
    if sim_ns > 0.0 {
        m.set(
            "simt.host_ns_per_sim_ns",
            (launch_s + megakv_s) * 1e9 / sim_ns,
        );
    }
    let accesses = m.get("nvm.cache_hits") + m.get("nvm.cache_misses");
    if accesses > 0.0 {
        m.set("nvm.hit_ratio", m.get("nvm.cache_hits") / accesses);
    }
}

/// Runs the layer experiments of workload `name`.
pub fn experiments(
    name: &str,
    seed: u64,
    kernel_ns: &[(String, f64)],
    t: &mut Tracer,
    m: &mut Metrics,
) -> Experiments {
    match name {
        "compute_bound" => {
            split_launches(&COMPUTE_KERNELS, &NvmConfig::default(), false, seed, t, m)
        }
        "memory_bound" => split_launches(&MEMORY_KERNELS, &small_cache(), true, seed, t, m),
        "backend_spectrum" => spectrum(seed, kernel_ns, t, m),
        "crash_campaign" => single_thread_trials(seed, t, m),
        "service_soak" => services(seed, t, m),
        "lint_corpus" => directive(seed, t, m),
        other => panic!("unknown workload {other:?}"),
    }
}

/// A suite kernel set up under the recommended LP design point, ready to
/// launch, statistics reset.
struct Prepared {
    gpu: Gpu,
    mem: PersistMemory,
    w: Box<dyn Workload>,
    rt: LpRuntime,
}

fn prepare(kernel: &str, cache: &NvmConfig, seed: u64) -> Prepared {
    let (gpu, mut mem) = world(cache);
    let mut w = workload_by_name(kernel, Scale::Bench, seed).expect("suite kernel name");
    w.setup(&mut mem);
    let lc = w.launch_config();
    let rt = LpRuntime::setup(
        &mut mem,
        lc.num_blocks(),
        lc.threads_per_block(),
        LpConfig::recommended(),
    );
    mem.flush_all();
    mem.reset_stats();
    Prepared { gpu, mem, w, rt }
}

/// One plain launch of `kernel` under the recommended LP design point: host
/// seconds and simulated stats.
fn launch_lp(kernel: &str, cache: &NvmConfig, seed: u64, t: &mut Tracer) -> (f64, LaunchStats) {
    let mut p = prepare(kernel, cache, seed);
    timed(t, "simt.launch", kernel, || {
        p.gpu
            .launch(p.w.kernel(Some(&p.rt)).as_ref(), &mut p.mem)
            .expect("non-empty launch")
    })
}

/// An observer that subscribes to nothing: the cost of having one attached.
struct Deaf;
impl AccessObserver for Deaf {}

fn timed<R>(t: &mut Tracer, name: &str, tag: &str, f: impl FnOnce() -> R) -> (f64, R) {
    let s = t.begin(name, tag);
    let t0 = Instant::now();
    let r = f();
    let secs = t0.elapsed().as_secs_f64();
    t.end(s);
    (secs, r)
}

/// Every timing of [`split_launches`] is the fastest of this many rounds: a
/// share or a ratio of two single launches says more about the neighbours
/// on the host than about the layers.
const SPLIT_ROUNDS: usize = 3;

/// Splits each kernel's LP launch into `nvm` time (replay of its access
/// stream) and the rest, and prices an attached observer and the sanitizer.
fn split_launches(
    kernels: &[&str],
    cache: &NvmConfig,
    sanitize: bool,
    seed: u64,
    t: &mut Tracer,
    m: &mut Metrics,
) -> Experiments {
    let mut exp = Experiments::default();
    let (mut plain_s, mut deaf_s, mut replay_s, mut sanitized_s) = (0.0, 0.0, 0.0, 0.0);
    let (mut accesses, mut findings) = (0u64, 0usize);
    let mut rows = Vec::new();
    for kernel in kernels {
        let (mut plain, mut deaf, mut replay, mut sanitized) = (vec![], vec![], vec![], vec![]);
        let (mut kernel_accesses, mut kernel_findings) = (0, 0);
        for _ in 0..SPLIT_ROUNDS {
            let (secs, launch) = launch_lp(kernel, cache, seed, t);
            plain.push(secs);

            let mut p = prepare(kernel, cache, seed);
            let (secs, observed) = timed(t, "simt.launch_observed", kernel, || {
                p.gpu
                    .launch_observed(p.w.kernel(Some(&p.rt)).as_ref(), &mut p.mem, &mut Deaf)
                    .expect("non-empty launch")
            });
            deaf.push(secs);

            let mut p = prepare(kernel, cache, seed);
            let mut rec = Recorder::default();
            let recorded = p
                .gpu
                .launch_observed(p.w.kernel(Some(&p.rt)).as_ref(), &mut p.mem, &mut rec)
                .expect("non-empty launch");
            let mut fresh = prepare(kernel, cache, seed);
            let s = t.begin("nvm.replay", kernel);
            let (secs, replayed) = rec.replay(&mut fresh.mem);
            t.end(s);
            replay.push(secs);
            kernel_accesses = rec.accesses();

            // Observation is free in simulated terms and the replay stands
            // for the launch's nvm work only if all of these agree.
            exp.attempted += 1;
            if observed != launch || recorded != launch || replayed != launch.nvm {
                exp.failed += 1;
            }

            if sanitize {
                let mut p = prepare(kernel, cache, seed);
                let (secs, (stats, report)) = timed(t, "sanitizer.launch", kernel, || {
                    let exempt = p.rt.table_ranges();
                    sanitize_launch_exempt(
                        &p.gpu,
                        p.w.kernel(Some(&p.rt)).as_ref(),
                        &mut p.mem,
                        &exempt,
                    )
                    .expect("non-empty launch")
                });
                exp.attempted += 1;
                if stats != launch {
                    exp.failed += 1;
                }
                sanitized.push(secs);
                kernel_findings = report.findings.len();
            }
        }
        let fastest = |secs: &[f64]| secs.iter().copied().fold(f64::INFINITY, f64::min);
        let (plain, deaf, replay) = (fastest(&plain), fastest(&deaf), fastest(&replay));
        let mut row = vec![
            ("plain_s".to_string(), json!(plain)),
            ("observed_s".to_string(), json!(deaf)),
            ("replay_s".to_string(), json!(replay)),
            ("replay_share".to_string(), json!(replay / plain)),
            ("accesses".to_string(), json!(kernel_accesses)),
        ];
        if sanitize {
            let sanitized = fastest(&sanitized);
            sanitized_s += sanitized;
            findings += kernel_findings;
            row.push(("sanitized_s".to_string(), json!(sanitized)));
        }
        rows.push((kernel.to_string(), Value::Object(row)));
        plain_s += plain;
        deaf_s += deaf;
        replay_s += replay;
        accesses += kernel_accesses;
    }
    m.set("nvm.replay_s", replay_s);
    m.set("nvm.replay_share", replay_s / plain_s);
    m.set("nvm.ns_per_access", replay_s * 1e9 / accesses as f64);
    m.set("simt.self_s", plain_s - replay_s);
    m.set("simt.observed_ratio", deaf_s / plain_s);
    if sanitize {
        m.set("sanitizer.overhead_ratio", sanitized_s / plain_s);
        m.set("sanitizer.findings", findings as f64);
    }
    exp.breakdown = Value::Object(rows);
    exp
}

/// Simulated nanoseconds of the uninstrumented `kernel` on the default
/// cache.
fn baseline_sim_ns(kernel: &str, seed: u64) -> f64 {
    let (gpu, mut mem) = world(&NvmConfig::default());
    let mut w = workload_by_name(kernel, Scale::Bench, seed).expect("suite kernel name");
    w.setup(&mut mem);
    mem.reset_stats();
    let stats = gpu
        .launch(w.kernel(None).as_ref(), &mut mem)
        .expect("non-empty launch");
    stats.kernel_ns
}

/// LP launches of the eight kernels are timed this many times each; the
/// fastest stands against the fast quartile of the backends' repetitions.
const LP_LAUNCHES: usize = 3;

/// What the explicit backends cost beyond LP on the same eight kernels:
/// host seconds, and simulated slowdown over the baseline. `kernel_ns` are
/// the simulated times of the first traced repetition's launches.
fn spectrum(
    seed: u64,
    kernel_ns: &[(String, f64)],
    t: &mut Tracer,
    m: &mut Metrics,
) -> Experiments {
    let cache = NvmConfig::default();
    let mut lp_s = 0.0;
    let mut baseline_ns = Vec::new();
    for kernel in WORKLOAD_NAMES {
        baseline_ns.push(baseline_sim_ns(kernel, seed));
        lp_s += (0..LP_LAUNCHES)
            .map(|_| launch_lp(kernel, &cache, seed, t).0)
            .fold(f64::INFINITY, f64::min);
    }
    let mut rows = vec![("lp_launch_s".to_string(), json!(lp_s))];
    for backend in EXPLICIT_BACKENDS {
        let name = backend.name();
        m.set(
            &format!("persist.extra_s.{name}"),
            m.get(&format!("persist.launch_s.{name}")) - lp_s,
        );
        let slowdowns: Vec<f64> = WORKLOAD_NAMES
            .iter()
            .zip(&baseline_ns)
            .map(|(kernel, base)| {
                let tag = format!("{kernel}/{name}");
                let (_, ns) = kernel_ns
                    .iter()
                    .find(|(t, _)| *t == tag)
                    .expect("the repetition launched every kernel under every backend");
                ns / base
            })
            .collect();
        m.set(&format!("persist.sim_slowdown.{name}"), geomean(&slowdowns));
        rows.push((format!("sim_slowdowns.{name}"), json!(slowdowns)));
    }
    Experiments {
        breakdown: Value::Object(rows),
        ..Experiments::default()
    }
}

/// The campaign's 1500 trials again, one at a time on this thread: the
/// latency distribution of a trial and what the second worker bought.
fn single_thread_trials(seed: u64, t: &mut Tracer, m: &mut Metrics) -> Experiments {
    let fanned_out = med(t, "fault.run_campaign", |_| true);
    let ids = campaign_spec(seed, 1).enumerate();
    let mut exp = Experiments::default();
    let mut ms = Vec::with_capacity(ids.len());
    for id in &ids {
        let (secs, result) = timed(t, "fault.run_trial", &id.label(), || {
            run_trial(id, Scale::Test)
        });
        ms.push(secs * 1e3);
        exp.attempted += 1;
        exp.failed += u64::from(!result.passed);
    }
    m.set("fault.trial_p50_ms", percentile(&ms, 50.0));
    // 1500 samples leave fifteen beyond p99; fewer samples, a lower tail.
    let tail = tail_percentile(ms.len()).unwrap_or(50.0);
    m.set("fault.trial_p99_ms", percentile(&ms, tail));
    if fanned_out > 0.0 {
        m.set(
            "fault.thread_speedup",
            ms.iter().sum::<f64>() * 1e-3 / fanned_out,
        );
    }
    exp.breakdown = json!({"trials": ms.len(), "tail_percentile": tail});
    exp
}

/// Drives each service directly: timed steps, a mid-step power cut every
/// fourth step, timed restores. Also scripts the policy engine through a
/// calm / refusing / calm device to count its switches.
fn services(seed: u64, t: &mut Tracer, m: &mut Metrics) -> Experiments {
    const STEPS: u64 = 32;
    let mut exp = Experiments::default();
    let mut rows = Vec::new();
    for kind in AppKind::ALL {
        let spec = SoakSpec {
            app: kind,
            backend: BackendKind::LpChecksum,
            seed,
            cycles: STEPS,
            max_steps_per_cycle: 1,
            fault_bp: 0,
            width: 96,
        };
        let (gpu, mut mem) = soak_world();
        let mut app = build_app(kind, soak_params(&spec), &mut mem);
        let (mut step_ms, mut restore_ms) = (Vec::new(), Vec::new());
        for i in 0..STEPS {
            let cut = i % 4 == 3;
            if cut {
                mem.arm_crash_after_evictions(1 + splitmix64(seed ^ i) % 16);
            }
            let (secs, report) = timed(t, "apps.step", kind.name(), || app.step(&gpu, &mut mem));
            if report.committed {
                step_ms.push(secs * 1e3);
            }
            if cut {
                mem.disarm_crash();
                app.crash(&mut mem);
                let (secs, restored) = timed(t, "apps.restore", kind.name(), || {
                    app.restore(&gpu, &mut mem)
                });
                restore_ms.push(secs * 1e3);
                let violations = app.verify_invariants(&mut mem);
                exp.attempted += 1;
                if !restored.all_durable || !violations.is_empty() {
                    exp.failed += 1;
                }
            }
        }
        m.set(&format!("apps.step_ms.{}", kind.name()), median(&step_ms));
        m.set(
            &format!("apps.restore_ms.{}", kind.name()),
            median(&restore_ms),
        );
        rows.push((
            kind.name().to_string(),
            json!({"steps": step_ms.len(), "restores": restore_ms.len()}),
        ));
    }

    // Sixteen regions, 48 windows: calm, then a device refusing a tenth of
    // its persists, then calm again. Hysteresis and the monotone fault
    // floor decide how many switches that makes.
    let mut engine = PolicyEngine::new(16, PolicyConfig::default());
    for window in 0..48u64 {
        let refusing = (16..32).contains(&window);
        for region in 0..16u64 {
            let jitter = splitmix64(seed ^ (window << 8) ^ region) % 8;
            let signals = RegionSignals {
                store_ops: 4096,
                nvm_writes: 64,
                natural_evictions: 56 + jitter,
                transient_persist_fails: if refusing { 8 + jitter } else { 0 },
                exec_ns: 10_000,
                ..RegionSignals::default()
            };
            if let Some(target) = engine.observe(region, &signals) {
                engine.commit(region, target);
            }
        }
    }
    m.set("policy.switches", engine.history().len() as f64);
    exp.breakdown = Value::Object(rows);
    exp
}

/// Lexing on its own, and how `lint` scales from one clean corpus to eight.
fn directive(seed: u64, t: &mut Tracer, m: &mut Metrics) -> Experiments {
    let corpus = Corpus::load(seed);
    let lint_s = med(t, "directive.lint", |tag| tag != "clean-x8");
    if lint_s > 0.0 {
        m.set(
            "directive.bytes_per_s",
            (LINT_PASSES as u64 * corpus.bytes()) as f64 / lint_s,
        );
    }
    let calls: Vec<f64> = t
        .spans()
        .iter()
        .filter(|s| s.name == "directive.lint" && s.tag != "clean-x8")
        .map(|s| s.duration_ns() as f64 * 1e-3)
        .collect();
    if !calls.is_empty() {
        m.set("directive.lint_p50_us", percentile(&calls, 50.0));
        m.set("directive.lint_p90_us", percentile(&calls, 90.0));
    }

    let lex: Vec<f64> = (0..20)
        .map(|_| {
            timed(t, "directive.lex", "corpus", || {
                for f in &corpus.files {
                    std::hint::black_box(lp_directive::lexer::tokenize(&f.source));
                }
            })
            .0
        })
        .collect();
    m.set("directive.lex_s", median(&lex));

    let once: Vec<f64> = (0..5)
        .map(|_| {
            timed(t, "directive.lint", "clean-x1", || {
                for f in corpus.files.iter().filter(|f| f.clean) {
                    std::hint::black_box(lp_directive::lint(&f.source));
                }
            })
            .0
        })
        .collect();
    let eightfold: Vec<f64> = (0..5)
        .map(|_| {
            timed(t, "directive.lint", "clean-x8", || {
                std::hint::black_box(lp_directive::lint(&corpus.big));
            })
            .0
        })
        .collect();
    m.set(
        "directive.scale_ratio",
        median(&eightfold) / (8.0 * median(&once)),
    );
    Experiments::default()
}
