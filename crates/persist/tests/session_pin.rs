//! Pins what each explicit persistency session does to one fixed
//! standalone block: the block's cost, the NVM traffic it causes, the lines
//! it leaves dirty and the durable image it leaves behind.
//!
//! The block is the runtime's whole use of a session: protected stores
//! announced through `on_store`, then the region `commit`, then
//! `persist_token` on the published commit token. Its 160 stores touch 96
//! distinct lines, the last 64 of them repeats, so SBRP's 64-entry L1
//! persist buffer overflows into the L2-level one before the commit drains
//! both. The constants were measured once and must not move: a change to a
//! backend that alters any of them changes every simulated table that
//! backend appears in.

use lp_persist::{backend_for, BackendKind, EagerBackend, EpochBackend, PersistencyBackend};
use nvm::{Addr, BumpAllocator, NvmConfig, NvmStats, PersistMemory};
use simt::{BlockCtx, DeviceConfig, DeviceState, LaunchConfig};

/// Distinct data lines the block touches.
const LINES: u64 = 96;
/// Protected stores the block issues.
const STORES: u64 = 160;

/// What one block leaves behind.
#[derive(Debug, PartialEq, Eq)]
struct Pin {
    /// `BlockCost` as `(parallel_cycles bits, serial_cycles bits,
    /// global_bytes, atomic_ops)`.
    cost: (u64, u64, u64, u64),
    /// `NvmStats` accumulated by the block.
    stats: NvmStats,
    /// Lines still dirty in the cache afterwards.
    dirty: usize,
    /// FNV-1a of every allocated byte's durable value.
    image: u64,
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Runs the fixed block under the backend `make` builds (it may allocate,
/// after the data and the token line).
fn run(make: impl FnOnce(&mut PersistMemory) -> Box<dyn PersistencyBackend>) -> Pin {
    let cfg = DeviceConfig::test_gpu();
    let mut mem = PersistMemory::new(NvmConfig::default());
    let mut dev = DeviceState::new(&cfg, 4, 128);
    let lc = LaunchConfig::linear(4 * 64, 64);
    let data = mem.alloc(LINES * 128, 128);
    let token = mem.alloc(128, 128);
    let backend = make(&mut mem);
    let before = mem.stats();
    let mut s = backend.begin_block(1);
    let mut ctx = BlockCtx::standalone(lc, 1, &mut mem, &mut dev, &cfg);
    for i in 0..STORES {
        // 37 is coprime to 96: the first 96 stores visit every line once,
        // in a scattered order; the rest revisit lines at other words.
        let addr = data.offset(128 * ((37 * i) % LINES) + 8 * (i % 16));
        ctx.store_u64(addr, 0x5eed_0000 + i);
        s.on_store(&mut ctx, addr);
    }
    s.commit(&mut ctx);
    ctx.store_u64(token, 0x706b_656e);
    s.persist_token(&mut ctx, Some(token));
    let cost = ctx.into_cost();
    let stats = mem.stats() - before;
    let mut image = vec![0u8; mem.allocated_bytes() as usize];
    mem.read_durable_bytes(Addr::new(BumpAllocator::BASE), &mut image);
    Pin {
        cost: (
            cost.parallel_cycles.to_bits(),
            cost.serial_cycles.to_bits(),
            cost.global_bytes,
            cost.atomic_ops,
        ),
        stats,
        dirty: mem.dirty_lines(),
        image: fnv1a(&image),
    }
}

/// The traffic of a block whose every first touch misses and is written
/// back once (epoch and SBRP move the same lines, SBRP through its buffers).
fn one_writeback_per_line(adr_accepts: u64) -> NvmStats {
    NvmStats {
        nvm_reads: 97,
        nvm_writes: 97,
        nvm_read_bytes: 97 * 128,
        nvm_write_bytes: 97 * 128,
        cache_hits: 64,
        cache_misses: 97,
        explicit_flushes: 97,
        adr_accepts,
        store_ops: STORES + 1,
        ..NvmStats::default()
    }
}

#[test]
fn eager_per_store_session_is_pinned() {
    let pin = run(|_| Box::new(EagerBackend::per_store()));
    let expect = Pin {
        cost: (4661533477584240640, 4653541347464262451, 21896, 0),
        stats: NvmStats {
            nvm_writes: 161,
            nvm_write_bytes: 161 * 128,
            explicit_flushes: 161,
            ..one_writeback_per_line(0)
        },
        dirty: 0,
        image: 12522560584888918959,
    };
    assert_eq!(pin, expect);
}

#[test]
fn eager_logged_session_is_pinned() {
    let pin = run(|mem| Box::new(EagerBackend::at_commit(mem, 4)));
    let expect = Pin {
        cost: (4672104182373679104, 4653541347464262451, 38280, 0),
        stats: NvmStats {
            nvm_reads: 193,
            nvm_writes: 193,
            nvm_read_bytes: 193 * 128,
            nvm_write_bytes: 193 * 128,
            cache_hits: 1504,
            cache_misses: 193,
            explicit_flushes: 193,
            store_ops: 1697,
            ..NvmStats::default()
        },
        dirty: 0,
        image: 16027990121311822383,
    };
    assert_eq!(pin, expect);
}

#[test]
fn epoch_session_is_pinned() {
    let pin = run(|_| Box::new(EpochBackend));
    let expect = Pin {
        cost: (4660152490979753984, 4646476325548824985, 13704, 0),
        stats: one_writeback_per_line(97),
        dirty: 0,
        image: 12522560584888918959,
    };
    assert_eq!(pin, expect);
}

#[test]
fn sbrp_session_is_pinned() {
    let pin = run(|_| backend_for(BackendKind::Sbrp));
    let expect = Pin {
        cost: (4660152490979753984, 4670208184522742175, 13704, 0),
        stats: one_writeback_per_line(97),
        dirty: 0,
        image: 12522560584888918959,
    };
    assert_eq!(pin, expect);
}
