//! Micro-probes: one public operation of one layer in a tight loop, in
//! nanoseconds per operation. They run in every traced run and do not
//! depend on the workload or the seed; each is the median of
//! [`ROUNDS`] rounds.

use crate::report::Metrics;
use crate::sim::small_cache;
use crate::stats::median;
use gpu_lp::table::ChecksumTableOps;
use gpu_lp::{
    BackendKind, ChecksumKind, LpConfig, LpRuntime, PolicyConfig, PolicyEngine, PolicyJournal,
    PolicyMode, RegionSignals,
};
use lp_persist::backend_for;
use nvm::{NvmConfig, PersistMemory};
use simt::{BlockCtx, DeviceConfig, DeviceState, LaunchConfig};
use std::hint::black_box;
use std::time::Instant;

/// Rounds per probe.
const ROUNDS: usize = 5;
/// Bytes per cache line in every probe world.
const LINE: u64 = 128;

/// Median over rounds of `round()`, which returns (seconds, operations);
/// reported as nanoseconds per operation.
fn ns_per_op(mut round: impl FnMut() -> (f64, u64)) -> f64 {
    let samples: Vec<f64> = (0..ROUNDS)
        .map(|_| {
            let (secs, ops) = round();
            secs * 1e9 / ops as f64
        })
        .collect();
    median(&samples)
}

fn clock(f: impl FnOnce()) -> f64 {
    let t0 = Instant::now();
    f();
    t0.elapsed().as_secs_f64()
}

/// Runs every probe.
pub fn run_all(m: &mut Metrics) {
    nvm_probes(m);
    simt_probes(m);
    core_probes(m);
    persist_probes(m);
    policy_probes(m);
}

fn nvm_probes(m: &mut Metrics) {
    // Hits: a 64 KiB region resident in the 6 MiB cache.
    let mut mem = PersistMemory::new(NvmConfig::default());
    let words = 8192u64;
    let base = mem.alloc(words * 8, LINE);
    for i in 0..words {
        mem.write_u64(base.index(i, 8), i);
    }
    m.set(
        "nvm.probe.read_hit_ns",
        ns_per_op(|| {
            let secs = clock(|| {
                for _ in 0..16 {
                    for i in 0..words {
                        black_box(mem.read_u64(base.index(i, 8)));
                    }
                }
            });
            (secs, 16 * words)
        }),
    );
    m.set(
        "nvm.probe.write_hit_ns",
        ns_per_op(|| {
            let secs = clock(|| {
                for pass in 0..16 {
                    for i in 0..words {
                        mem.write_u64(base.index(i, 8), pass);
                    }
                }
            });
            (secs, 16 * words)
        }),
    );

    // Misses: one access per line across 4 MiB through a 64 KiB cache, so
    // every access fills a line and evicts another (dirty ones write back).
    let mut mem = PersistMemory::new(small_cache());
    let lines = 32_768u64;
    let base = mem.alloc(lines * LINE, LINE);
    m.set(
        "nvm.probe.read_miss_ns",
        ns_per_op(|| {
            let secs = clock(|| {
                for i in 0..lines {
                    black_box(mem.read_u64(base.index(i, LINE)));
                }
            });
            (secs, lines)
        }),
    );
    m.set(
        "nvm.probe.write_evict_ns",
        ns_per_op(|| {
            let secs = clock(|| {
                for i in 0..lines {
                    mem.write_u64(base.index(i, LINE), i);
                }
            });
            (secs, lines)
        }),
    );
    mem.flush_all();

    // Explicit write-back of a dirty line, the eager backends' primitive.
    let dirty = 512u64;
    m.set(
        "nvm.probe.flush_line_ns",
        ns_per_op(|| {
            for i in 0..dirty {
                mem.write_u64(base.index(i, LINE), i);
            }
            let secs = clock(|| {
                for i in 0..dirty {
                    black_box(mem.flush_line(base.index(i, LINE)));
                }
            });
            (secs, dirty)
        }),
    );

    // Power loss with the whole 64 KiB cache dirty.
    m.set(
        "nvm.probe.crash_ns",
        ns_per_op(|| {
            let mut secs = 0.0;
            for _ in 0..8 {
                for i in 0..dirty {
                    mem.write_u64(base.index(i, LINE), i);
                }
                secs += clock(|| mem.crash());
                black_box(mem.take_crash_loss());
            }
            (secs, 8)
        }),
    );
}

/// Memory, device state and geometry for block-level probes.
struct Rig {
    mem: PersistMemory,
    dev: DeviceState,
    cfg: DeviceConfig,
    lc: LaunchConfig,
}

const RIG_BLOCKS: u64 = 1024;
const RIG_THREADS: u32 = 256;

impl Rig {
    fn new() -> Self {
        let cfg = DeviceConfig::v100();
        Rig {
            mem: PersistMemory::new(NvmConfig::default()),
            dev: DeviceState::new(&cfg, RIG_BLOCKS, LINE),
            lc: LaunchConfig::linear(RIG_BLOCKS * u64::from(RIG_THREADS), RIG_THREADS),
            cfg,
        }
    }

    fn ctx(&mut self, block: u64) -> BlockCtx<'_> {
        BlockCtx::standalone(self.lc, block, &mut self.mem, &mut self.dev, &self.cfg)
    }
}

fn simt_probes(m: &mut Metrics) {
    let mut rig = Rig::new();
    let words = 8192u64;
    let base = rig.mem.alloc(words * 8, LINE);
    for i in 0..words {
        rig.mem.write_u64(base.index(i, 8), i);
    }
    m.set(
        "simt.probe.load_ns",
        ns_per_op(|| {
            let mut ctx = rig.ctx(0);
            let secs = clock(|| {
                for _ in 0..8 {
                    for i in 0..words {
                        black_box(ctx.load_u64(base.index(i, 8)));
                    }
                }
            });
            black_box(ctx.into_cost());
            (secs, 8 * words)
        }),
    );
    m.set(
        "simt.probe.store_ns",
        ns_per_op(|| {
            let mut ctx = rig.ctx(0);
            let secs = clock(|| {
                for pass in 0..8 {
                    for i in 0..words {
                        ctx.store_u64(base.index(i, 8), pass);
                    }
                }
            });
            black_box(ctx.into_cost());
            (secs, 8 * words)
        }),
    );
    m.set(
        "simt.probe.atomic_ns",
        ns_per_op(|| {
            let mut ctx = rig.ctx(0);
            let secs = clock(|| {
                for _ in 0..4 {
                    for i in 0..words {
                        black_box(ctx.atomic_add_u32(base.index(i, 8), 1));
                    }
                }
            });
            black_box(ctx.into_cost());
            (secs, 4 * words)
        }),
    );
    m.set(
        "simt.probe.shm_ns",
        ns_per_op(|| {
            let mut ctx = rig.ctx(0);
            let shm = ctx.shared_alloc(1024);
            let secs = clock(|| {
                for pass in 0..32 {
                    for i in 0..1024 {
                        ctx.shm_write(shm, i, pass);
                        black_box(ctx.shm_read(shm, i));
                    }
                }
            });
            black_box(ctx.into_cost());
            (secs, 2 * 32 * 1024)
        }),
    );
    // What a launch pays per block before the kernel body runs: a context,
    // its shared-memory arena, and the cost hand-back.
    m.set(
        "simt.probe.block_setup_ns",
        ns_per_op(|| {
            let secs = clock(|| {
                for block in 0..RIG_BLOCKS {
                    let mut ctx = rig.ctx(block);
                    black_box(ctx.shared_alloc(RIG_THREADS as usize));
                    black_box(ctx.into_cost());
                }
            });
            (secs, RIG_BLOCKS)
        }),
    );
}

fn core_probes(m: &mut Metrics) {
    for (name, kind) in [
        ("modular", ChecksumKind::Modular),
        ("parity", ChecksumKind::Parity),
        ("adler32", ChecksumKind::Adler32),
    ] {
        let folds = 1u64 << 18;
        m.set(
            &format!("core.probe.fold_ns.{name}"),
            ns_per_op(|| {
                let mut acc = kind.init();
                let secs = clock(|| {
                    for v in 0..folds {
                        acc = kind.update(acc, black_box(v));
                    }
                });
                black_box(acc);
                (secs, folds)
            }),
        );
    }

    for (name, cfg) in [
        ("array", LpConfig::recommended()),
        ("quad", LpConfig::quad()),
        ("cuckoo", LpConfig::cuckoo()),
    ] {
        let mut rig = Rig::new();
        let rt = LpRuntime::setup(&mut rig.mem, RIG_BLOCKS, u64::from(RIG_THREADS), cfg);
        let insert_ns = ns_per_op(|| {
            rt.reset(&mut rig.mem);
            let secs = clock(|| {
                for key in 0..RIG_BLOCKS {
                    let mut ctx = rig.ctx(key);
                    rt.table().insert(&mut ctx, key, &[key ^ 0x5EED, key]);
                    black_box(ctx.into_cost());
                }
            });
            (secs, RIG_BLOCKS)
        });
        m.set(&format!("core.probe.table_insert_ns.{name}"), insert_ns);
        if name == "array" {
            m.set(
                "core.probe.validate_region_ns",
                ns_per_op(|| {
                    let mut ok = 0u64;
                    let secs = clock(|| {
                        for key in 0..RIG_BLOCKS {
                            ok += u64::from(rt.validate_region(
                                &mut rig.mem,
                                key,
                                &[key ^ 0x5EED, key],
                            ));
                        }
                    });
                    assert_eq!(ok, RIG_BLOCKS, "probe checksums must validate");
                    (secs, RIG_BLOCKS)
                }),
            );
        }
    }
}

fn persist_probes(m: &mut Metrics) {
    const STORES: u64 = 256;
    const SESSIONS: u64 = 64;
    for kind in [BackendKind::Eager, BackendKind::Epoch, BackendKind::Sbrp] {
        let mut rig = Rig::new();
        let base = rig.mem.alloc(SESSIONS * STORES * 8, LINE);
        let backend = backend_for(kind);
        // One session: `begin_block`, 256 stores each announced through
        // `on_store`, `commit`.
        let ns = ns_per_op(|| {
            let secs = clock(|| {
                for block in 0..SESSIONS {
                    let mut ctx = rig.ctx(block);
                    let mut session = backend.begin_block(block);
                    for i in 0..STORES {
                        let addr = base.index(block * STORES + i, 8);
                        ctx.store_u64(addr, i);
                        black_box(session.on_store(&mut ctx, addr));
                    }
                    session.commit(&mut ctx);
                    black_box(ctx.into_cost());
                }
            });
            (secs, SESSIONS)
        });
        m.set(&format!("persist.probe.session_ns.{}", kind.name()), ns);
    }
}

fn policy_probes(m: &mut Metrics) {
    let regions = 64u64;
    let signals = RegionSignals {
        store_ops: 4096,
        nvm_writes: 64,
        natural_evictions: 60,
        transient_persist_fails: 2,
        exec_ns: 10_000,
        ..RegionSignals::default()
    };
    m.set(
        "policy.probe.observe_ns",
        ns_per_op(|| {
            let mut engine = PolicyEngine::new(regions, PolicyConfig::default());
            let windows = 256u64;
            let secs = clock(|| {
                for _ in 0..windows {
                    for region in 0..regions {
                        if let Some(to) = engine.observe(region, black_box(&signals)) {
                            engine.commit(region, to);
                        }
                    }
                }
            });
            (secs, windows * regions)
        }),
    );

    let records = 256u64;
    let mut mem = PersistMemory::new(NvmConfig::default());
    let mut journals: Vec<PolicyJournal> = Vec::new();
    m.set(
        "policy.probe.journal_append_ns",
        ns_per_op(|| {
            let mut journal = PolicyJournal::create(&mut mem, records);
            let secs = clock(|| {
                for i in 0..records {
                    let ok =
                        journal.append(&mut mem, i % regions, PolicyMode::Lp, PolicyMode::Epoch);
                    assert!(ok, "a fault-free device accepts every journal record");
                }
            });
            journals.push(journal);
            (secs, records)
        }),
    );
    let journal = journals.last_mut().expect("the append probe ran");
    m.set(
        "policy.probe.journal_replay_ns",
        ns_per_op(|| {
            let mut seen = 0;
            let secs = clock(|| {
                for _ in 0..16 {
                    seen += journal.replay(&mem).len() as u64;
                }
            });
            assert_eq!(seen, 16 * records, "replay returns every appended record");
            (secs, 16 * records)
        }),
    );
}
