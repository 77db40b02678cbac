//! The cost accounting [`simt::BlockCtx`] shipped before its per-entry
//! operation counters: every charge is one `f64` addition to
//! `parallel_cycles`, made in program order. Kept as the executable
//! specification the differential test below holds the counters to — for a
//! cost table of dyadic entries (the default one, and its ½× and 2×
//! scalings) regrouping the additions as `Σ count × entry` is exact, so the
//! two must agree bit for bit. Tile operations are charged here as the
//! single accesses they stand for.

use nvm::{Addr, FaultConfig, FlushOutcome, NvmConfig, PersistMemory};
use proptest::prelude::*;
use simt::{BlockCost, BlockCtx, CostModel, DeviceConfig, DeviceState, LaunchConfig, ShmHandle};

/// One charging operation of the per-block API, with its arguments.
#[derive(Debug, Clone, Copy)]
enum Op {
    ChargeAlu(u64),
    ChargeSerialAlu(u64),
    ChargeShuffle(u64, u64),
    SyncThreads,
    ShmRead(usize),
    ShmWrite(usize),
    ShmAtomicAdd(usize),
    /// `shm_dot_f32` over `n` elements: `(start, stride)` of each operand.
    ShmDot {
        a: (usize, usize),
        b: (usize, usize),
        n: usize,
    },
    LoadU32(Addr),
    LoadU64(Addr),
    LoadF32(Addr),
    StoreU32(Addr),
    StoreU64(Addr),
    StoreF32(Addr),
    StoreF64(Addr),
    ChargeChannel(Addr, u64),
    FlushLine(Addr),
    PersistBarrier,
    Threadfence,
    AdrAccept(Addr),
    PersistLineReliably(Addr, bool),
    BufferDrainStall(u64),
    AtomicCas(Addr, u64),
    AtomicExch(Addr),
    AtomicAdd(Addr),
    /// `lock_global` when the lock is free, `unlock_global` when held.
    ToggleLock,
    /// Read `cost_so_far` mid-sequence.
    CostSoFar,
}

/// The block context's cost state as it was accumulated before the
/// counters: the charging half of each operation, copied from that code,
/// against a memory and device state of its own.
struct SequentialCtx<'a> {
    mem: &'a mut PersistMemory,
    dev: &'a mut DeviceState,
    cfg: &'a DeviceConfig,
    threads_per_block: u64,
    lock: Addr,
    cost: BlockCost,
    lock_snapshot: Option<f64>,
}

impl SequentialCtx<'_> {
    fn charge_global(&mut self, bytes: u64) {
        self.cost.parallel_cycles += self.cfg.cost.global_access;
        self.cost.global_bytes += bytes;
    }

    fn charge_atomic(&mut self, addr: Addr, bytes: u64) {
        self.cost.parallel_cycles += self.cfg.cost.atomic_op;
        self.cost.atomic_ops += 1;
        self.cost.global_bytes += bytes;
        self.dev
            .record_atomic(addr.raw(), self.cfg.cost.atomic_channel_ns);
    }

    fn line_bytes(&self) -> u64 {
        self.mem.config().line_size as u64
    }

    fn apply(&mut self, op: Op) {
        let c = &self.cfg.cost;
        match op {
            Op::ChargeAlu(ops) => self.cost.parallel_cycles += ops as f64 * c.alu,
            Op::ChargeSerialAlu(ops) => self.cost.serial_cycles += ops as f64 * c.alu,
            Op::ChargeShuffle(steps, lanes) => {
                self.cost.parallel_cycles += (steps * lanes) as f64 * c.shuffle_step;
            }
            Op::SyncThreads => {
                self.cost.parallel_cycles += self.threads_per_block as f64 * c.barrier;
            }
            Op::ShmRead(_) | Op::ShmWrite(_) => self.cost.parallel_cycles += c.shmem_access,
            Op::ShmAtomicAdd(_) => self.cost.parallel_cycles += 2.0 * c.shmem_access,
            Op::ShmDot { n, .. } => {
                for _ in 0..2 * n {
                    self.cost.parallel_cycles += c.shmem_access;
                }
            }
            Op::LoadU32(a) | Op::LoadF32(a) => {
                self.charge_global(4);
                self.mem.read_u32(a);
            }
            Op::LoadU64(a) => {
                self.charge_global(8);
                self.mem.read_u64(a);
            }
            Op::StoreU32(a) | Op::StoreF32(a) => {
                self.charge_global(4);
                if self.dev.store_tick() {
                    self.mem.write_u32(a, 7);
                }
            }
            Op::StoreU64(a) | Op::StoreF64(a) => {
                self.charge_global(8);
                if self.dev.store_tick() {
                    self.mem.write_u64(a, 7);
                }
            }
            Op::ChargeChannel(a, events) => {
                for _ in 0..events {
                    self.dev.record_atomic(a.raw(), c.atomic_channel_ns);
                    self.dev.atomic_ops -= 1;
                }
            }
            Op::FlushLine(a) => {
                self.cost.parallel_cycles += c.global_access;
                if self.mem.flush_line(a) {
                    self.cost.global_bytes += self.line_bytes();
                }
            }
            Op::PersistBarrier => {
                self.cost.serial_cycles += c.persist_barrier_ns * self.cfg.clock_ghz;
            }
            Op::Threadfence => self.cost.serial_cycles += c.epoch_fence_ns * self.cfg.clock_ghz,
            Op::AdrAccept(a) => {
                self.cost.parallel_cycles += c.global_access;
                if self.mem.adr_accept(a) {
                    self.cost.global_bytes += self.line_bytes();
                }
            }
            Op::PersistLineReliably(a, adr) => {
                for _ in 0..6 {
                    self.cost.parallel_cycles += c.global_access;
                    let outcome = if adr {
                        self.mem.adr_accept_checked(a)
                    } else {
                        self.mem.flush_line_checked(a)
                    };
                    match outcome {
                        FlushOutcome::Clean => return,
                        FlushOutcome::Persisted => {
                            self.cost.global_bytes += self.line_bytes();
                            return;
                        }
                        FlushOutcome::TransientFail => {
                            self.cost.serial_cycles += c.buffer_drain_ns * self.cfg.clock_ghz;
                        }
                    }
                }
                self.mem.quarantine_line(a.raw());
            }
            Op::BufferDrainStall(lines) => {
                self.cost.serial_cycles += lines as f64 * c.buffer_drain_ns * self.cfg.clock_ghz;
            }
            Op::AtomicCas(a, compare) => {
                self.charge_atomic(a, 8);
                if self.mem.read_u64(a) == compare && self.dev.store_tick() {
                    self.mem.write_u64(a, 7);
                }
            }
            Op::AtomicExch(a) => {
                self.charge_atomic(a, 8);
                self.mem.read_u64(a);
                if self.dev.store_tick() {
                    self.mem.write_u64(a, 7);
                }
            }
            Op::AtomicAdd(a) => {
                self.charge_atomic(a, 4);
                let old = self.mem.read_u32(a);
                if self.dev.store_tick() {
                    self.mem.write_u32(a, old.wrapping_add(7));
                }
            }
            Op::ToggleLock => {
                self.charge_atomic(self.lock, 4);
                let now = self.cost.parallel_cycles + self.cost.serial_cycles;
                match self.lock_snapshot.take() {
                    None => self.lock_snapshot = Some(now),
                    Some(snapshot) => {
                        let crit_ns = self.cfg.cycles_to_ns(now - snapshot);
                        let contenders =
                            self.dev
                                .concurrency
                                .saturating_sub(1)
                                .min(c.lock_contender_cap) as f64;
                        self.dev.lock_serial_ns += crit_ns + contenders * c.lock_handoff_ns;
                    }
                }
            }
            Op::CostSoFar => {}
        }
    }
}

const WORDS: u64 = 512;
const SHM_WORDS: usize = 64;
const THREADS: u32 = 96;

/// A small cache (so stores evict) on a device that refuses a fifth of
/// its write-backs (so `persist_line_reliably` retries and quarantines).
fn memory() -> (PersistMemory, Addr, Addr) {
    let mut mem = PersistMemory::new(NvmConfig {
        cache_lines: 16,
        associativity: 4,
        ..NvmConfig::default()
    });
    mem.set_fault_config(Some(FaultConfig::transient(9, 2000)));
    let data = mem.alloc(WORDS * 8, 8);
    let lock = mem.alloc(8, 8);
    (mem, data, lock)
}

/// `CostModel::default()` with every cycle and nanosecond entry scaled.
fn scaled(k: f64) -> CostModel {
    let d = CostModel::default();
    CostModel {
        alu: d.alu * k,
        shuffle_step: d.shuffle_step * k,
        shmem_access: d.shmem_access * k,
        global_access: d.global_access * k,
        atomic_op: d.atomic_op * k,
        barrier: d.barrier * k,
        atomic_channel_ns: d.atomic_channel_ns * k,
        lock_handoff_ns: d.lock_handoff_ns * k,
        lock_contender_cap: d.lock_contender_cap,
        launch_overhead_ns: d.launch_overhead_ns * k,
        persist_barrier_ns: d.persist_barrier_ns * k,
        epoch_fence_ns: d.epoch_fence_ns * k,
        buffer_drain_ns: d.buffer_drain_ns * k,
    }
}

fn decode(data: Addr, (code, a, b): (u8, u64, u64)) -> Op {
    let addr = data.index(a % WORDS, 8);
    let word = (a % SHM_WORDS as u64) as usize;
    match code {
        0 => Op::ChargeAlu(a % 4096),
        1 => Op::ChargeSerialAlu(a % 4096),
        2 => Op::ChargeShuffle(a % 6, b % 33),
        3 => Op::SyncThreads,
        4 => Op::ShmRead(word),
        5 => Op::ShmWrite(word),
        6 => Op::ShmAtomicAdd(word),
        7 => Op::LoadU32(addr),
        8 => Op::LoadU64(addr),
        9 => Op::LoadF32(addr),
        10 => Op::StoreU32(addr),
        11 => Op::StoreU64(addr),
        12 => Op::StoreF32(addr),
        13 => Op::StoreF64(addr),
        14 => Op::ChargeChannel(addr, b % 4),
        15 => Op::FlushLine(addr),
        16 => Op::PersistBarrier,
        17 => Op::Threadfence,
        18 => Op::AdrAccept(addr),
        19 => Op::PersistLineReliably(addr, b % 2 == 0),
        20 => Op::BufferDrainStall(b % 9),
        // Compare against 0 or 7: both hit and miss the stored values.
        21 => Op::AtomicCas(addr, (b % 2) * 7),
        22 => Op::AtomicExch(addr),
        23 => Op::AtomicAdd(addr),
        24 => Op::ToggleLock,
        // Up to 8 elements at strides up to 7 from starts below 15 stay
        // inside the 64-word array.
        25 => Op::ShmDot {
            a: ((a >> 8) as usize % 15, (a >> 16) as usize % 8),
            b: ((b >> 8) as usize % 15, (b >> 16) as usize % 8),
            n: (b % 9) as usize,
        },
        _ => Op::CostSoFar,
    }
}

/// Issues `op` through the production context; `held` tracks the lock.
fn issue(ctx: &mut BlockCtx<'_>, shm: ShmHandle, lock: Addr, held: &mut bool, op: Op) {
    match op {
        Op::ChargeAlu(n) => ctx.charge_alu(n),
        Op::ChargeSerialAlu(n) => ctx.charge_serial_alu(n),
        Op::ChargeShuffle(steps, lanes) => ctx.charge_shuffle(steps, lanes),
        Op::SyncThreads => ctx.sync_threads(),
        Op::ShmRead(i) => {
            ctx.shm_read(shm, i);
        }
        Op::ShmWrite(i) => ctx.shm_write(shm, i, 7),
        Op::ShmAtomicAdd(i) => {
            ctx.shm_atomic_add(shm, i, 7);
        }
        Op::ShmDot { a, b, n } => {
            ctx.shm_dot_f32((shm, a.0, a.1), (shm, b.0, b.1), n, 0.0);
        }
        Op::LoadU32(a) => {
            ctx.load_u32(a);
        }
        Op::LoadU64(a) => {
            ctx.load_u64(a);
        }
        Op::LoadF32(a) => {
            ctx.load_f32(a);
        }
        Op::StoreU32(a) => ctx.store_u32(a, 7),
        Op::StoreU64(a) => ctx.store_u64(a, 7),
        Op::StoreF32(a) => ctx.store_f32(a, f32::from_bits(7)),
        Op::StoreF64(a) => ctx.store_f64(a, f64::from_bits(7)),
        Op::ChargeChannel(a, events) => ctx.charge_channel(a, events),
        Op::FlushLine(a) => ctx.flush_line(a),
        Op::PersistBarrier => ctx.persist_barrier(),
        Op::Threadfence => ctx.threadfence(),
        Op::AdrAccept(a) => {
            ctx.adr_accept(a);
        }
        Op::PersistLineReliably(a, adr) => {
            ctx.persist_line_reliably(a, adr);
        }
        Op::BufferDrainStall(lines) => ctx.buffer_drain_stall(lines),
        Op::AtomicCas(a, compare) => {
            ctx.atomic_cas_u64(a, compare, 7);
        }
        Op::AtomicExch(a) => {
            ctx.atomic_exch_u64(a, 7);
        }
        Op::AtomicAdd(a) => {
            ctx.atomic_add_u32(a, 7);
        }
        Op::ToggleLock => {
            if *held {
                ctx.unlock_global(lock);
            } else {
                ctx.lock_global(lock);
            }
            *held = !*held;
        }
        Op::CostSoFar => {}
    }
}

fn bits(c: BlockCost) -> (u64, u64, u64, u64) {
    (
        c.parallel_cycles.to_bits(),
        c.serial_cycles.to_bits(),
        c.global_bytes,
        c.atomic_ops,
    )
}

/// Runs `ops` through both contexts under `cost`; the costs (at every
/// `CostSoFar` and at the end) and the launch-wide lock and atomic
/// timelines must agree bit for bit.
fn differential(
    cost: CostModel,
    crash_after: u64,
    ops: &[(u8, u64, u64)],
) -> Result<(), TestCaseError> {
    let cfg = DeviceConfig {
        cost,
        ..DeviceConfig::test_gpu()
    };
    prop_assert_eq!(cfg.validate(), Ok(()));
    let lc = LaunchConfig::linear(16 * u64::from(THREADS), THREADS);
    let (mut mem, data, lock) = memory();
    let (mut ref_mem, _, _) = memory();
    let mut dev = DeviceState::new(&cfg, lc.num_blocks(), 128);
    dev.crash_after_stores = Some(crash_after);
    let mut ref_dev = dev.clone();

    let mut ctx = BlockCtx::standalone(lc, 3, &mut mem, &mut dev, &cfg);
    let shm = ctx.shared_alloc(SHM_WORDS);
    let mut reference = SequentialCtx {
        mem: &mut ref_mem,
        dev: &mut ref_dev,
        cfg: &cfg,
        threads_per_block: lc.threads_per_block(),
        lock,
        cost: BlockCost::default(),
        lock_snapshot: None,
    };
    let mut seq: Vec<Op> = ops.iter().map(|&raw| decode(data, raw)).collect();
    if seq.iter().filter(|op| matches!(op, Op::ToggleLock)).count() % 2 == 1 {
        // Release the lock the sequence leaves held, so the block may finish.
        seq.push(Op::ToggleLock);
    }
    let mut held = false;
    for op in seq {
        issue(&mut ctx, shm, lock, &mut held, op);
        reference.apply(op);
        if matches!(op, Op::CostSoFar) {
            prop_assert_eq!(bits(ctx.cost_so_far()), bits(reference.cost));
        }
    }
    prop_assert_eq!(bits(ctx.into_cost()), bits(reference.cost));
    prop_assert_eq!(
        dev.lock_serial_ns.to_bits(),
        ref_dev.lock_serial_ns.to_bits()
    );
    prop_assert_eq!(
        dev.max_channel_ns().to_bits(),
        ref_dev.max_channel_ns().to_bits()
    );
    prop_assert_eq!(dev.atomic_ops, ref_dev.atomic_ops);
    prop_assert_eq!(dev.contended_atomics, ref_dev.contended_atomics);
    prop_assert_eq!(dev.stores_seen, ref_dev.stores_seen);
    prop_assert_eq!(mem.stats(), ref_mem.stats());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Item (i) of the accounting identity: under the default table and
    /// the two dyadic perturbations of it, counting operations and
    /// multiplying once equals adding cycles one operation at a time.
    #[test]
    fn counters_equal_sequential_accumulation(
        ops in prop::collection::vec((0u8..27, any::<u64>(), any::<u64>()), 1..300),
        crash_after in 20u64..400,
    ) {
        for k in [1.0, 0.5, 2.0] {
            differential(scaled(k), crash_after, &ops)?;
        }
    }
}
