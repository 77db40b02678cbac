//! Holds [`BlockCtx::stage_shm_f32`] and [`BlockCtx::shm_read_f32s`] to the
//! per-element loops they replace. Every random op sequence runs twice on
//! twin memories: once issuing the tile ops, once expanding each into the
//! `load_f32` / `shm_write_f32` / `shm_read_f32` loop its docs spell out.
//! Unobserved (the fast paths), the block's cost, the memory's
//! [`nvm::NvmStats`] and dirty lines, the values read and the shared arena
//! must agree bit for bit; observed, so must every observer event.
//!
//! The cache is small, so staging streams miss, evict and share lines, and
//! stream starts are byte offsets, so some words straddle lines.

use nvm::{Addr, NvmConfig, PersistMemory};
use proptest::prelude::*;
use simt::{
    AccessKind, AccessObserver, BlockCost, BlockCtx, DeviceConfig, DeviceState, Gpu, Kernel,
    LaunchConfig, ShmHandle,
};

/// `f32` words of global input.
const WORDS: u64 = 256;
/// Words in each of the two shared arrays.
const SHM_WORDS: usize = 48;
const THREADS: u32 = 6;

#[derive(Debug, Clone, Copy)]
enum Op {
    /// `stage_shm_f32` of `M` streams (1 or 2): byte offsets into the
    /// input, word starts in shared arrays A and B.
    Stage {
        m: usize,
        src: [u64; 2],
        dst: [usize; 2],
        n: usize,
        rec: usize,
        first: u64,
    },
    /// `shm_read_f32s::<K>` (K of 3 or 4) from array A or B, the values
    /// stored to output word `out`.
    Read {
        k: usize,
        b: bool,
        start: usize,
        out: u64,
    },
    /// A plain store and load, so lines are dirty and recently used.
    StoreLoad(u64),
}

fn decode((code, x, y): (u8, u64, u64)) -> Op {
    match code % 4 {
        0 | 1 => {
            let n = (y % 17) as usize;
            let span = 4 * n as u64 + 4;
            let src = [x % (4 * WORDS - span), (x >> 20) % (4 * WORDS - span)];
            // Word-aligned starts three times in four.
            let align = |s: u64, bit: u64| if y >> bit & 3 == 0 { s } else { s & !3 };
            Op::Stage {
                m: 1 + (code / 4 % 2) as usize,
                src: [align(src[0], 8), align(src[1], 10)],
                dst: [
                    (y >> 12) as usize % (SHM_WORDS - n + 1),
                    (y >> 20) as usize % (SHM_WORDS - n + 1),
                ],
                n,
                rec: 1 + (y >> 28) as usize % 4,
                first: (y >> 32) % 8,
            }
        }
        2 => Op::Read {
            k: 3 + (y % 2) as usize,
            b: y & 2 != 0,
            start: (x % (SHM_WORDS as u64 - 3)) as usize,
            out: (y >> 8) % (WORDS - 4),
        },
        _ => Op::StoreLoad(x % WORDS),
    }
}

/// Where an op sequence reads and writes.
#[derive(Clone, Copy)]
struct World {
    data: Addr,
    out: Addr,
}

fn stage_per_element(
    ctx: &mut BlockCtx<'_>,
    src: &[Addr],
    dst: &[(ShmHandle, usize)],
    (n, rec, first): (usize, usize, u64),
) {
    for i in 0..n {
        ctx.set_active_thread((first + (i / rec) as u64) % ctx.threads_per_block());
        let v: Vec<f32> = src
            .iter()
            .map(|a| ctx.load_f32(a.index(i as u64, 4)))
            .collect();
        for (&(h, start), v) in dst.iter().zip(v) {
            ctx.shm_write_f32(h, start + i, v);
        }
    }
}

/// Issues `ops` through the tile ops (`tile`) or their per-element loops.
fn run(ctx: &mut BlockCtx<'_>, w: World, tile: bool, ops: &[Op]) -> [ShmHandle; 2] {
    let shm = [ctx.shared_alloc(SHM_WORDS), ctx.shared_alloc(SHM_WORDS)];
    for &op in ops {
        match op {
            Op::Stage {
                m,
                src,
                dst,
                n,
                rec,
                first,
            } => {
                let src = src.map(|s| w.data.offset(s));
                let dst = [(shm[0], dst[0]), (shm[1], dst[1])];
                match (tile, m) {
                    (true, 1) => ctx.stage_shm_f32([src[0]], [dst[0]], n, rec, first),
                    (true, _) => ctx.stage_shm_f32(src, dst, n, rec, first),
                    (false, _) => stage_per_element(ctx, &src[..m], &dst[..m], (n, rec, first)),
                }
            }
            Op::Read { k, b, start, out } => {
                let h = shm[usize::from(b)];
                let values: Vec<f32> = match (tile, k) {
                    (true, 3) => ctx.shm_read_f32s::<3>(h, start).to_vec(),
                    (true, _) => ctx.shm_read_f32s::<4>(h, start).to_vec(),
                    (false, _) => (0..k).map(|i| ctx.shm_read_f32(h, start + i)).collect(),
                };
                for (i, v) in values.into_iter().enumerate() {
                    ctx.store_f32(w.out.index(out + i as u64, 4), v);
                }
            }
            Op::StoreLoad(i) => {
                ctx.store_f32(w.data.index(i, 4), i as f32);
                ctx.load_f32(w.data.index(WORDS - 1 - i, 4));
            }
        }
    }
    shm
}

/// A 16-line cache of 32-byte lines over distinct input words.
fn memory() -> (PersistMemory, World) {
    let mut mem = PersistMemory::new(NvmConfig {
        line_size: 32,
        cache_lines: 16,
        associativity: 2,
    });
    let data = mem.alloc(4 * WORDS, 32);
    let out = mem.alloc(4 * WORDS, 32);
    mem.write_run_u32(data, (0..WORDS as u32).map(|i| i * 7 + 3));
    mem.flush_all();
    mem.reset_stats();
    (mem, World { data, out })
}

fn lc() -> LaunchConfig {
    LaunchConfig::linear(u64::from(THREADS), THREADS)
}

fn bits(c: BlockCost) -> (u64, u64, u64, u64) {
    (
        c.parallel_cycles.to_bits(),
        c.serial_cycles.to_bits(),
        c.global_bytes,
        c.atomic_ops,
    )
}

/// The unobserved run: cost, values, arena and memory.
fn unobserved(tile: bool, ops: &[Op]) -> (impl PartialEq + std::fmt::Debug, PersistMemory) {
    let cfg = DeviceConfig::test_gpu();
    let (mut mem, w) = memory();
    let mut dev = DeviceState::new(&cfg, 1, 32);
    let mut ctx = BlockCtx::standalone(lc(), 0, &mut mem, &mut dev, &cfg);
    let shm = run(&mut ctx, w, tile, ops);
    let cost = bits(ctx.cost_so_far());
    let arena: Vec<u64> = shm
        .iter()
        .flat_map(|&h| (0..SHM_WORDS).map(move |i| (h, i)))
        .map(|(h, i)| ctx.shm_read(h, i))
        .collect();
    drop(ctx);
    let outputs: Vec<u32> = (0..WORDS)
        .map(|i| mem.read_u32(w.out.index(i, 4)))
        .collect();
    let state = (cost, arena, outputs, mem.stats(), mem.dirty_line_info());
    (state, mem)
}

/// Every observer callback, in order, with its arguments.
#[derive(Default)]
struct Recorder(Vec<(u8, u64, u64, u64, u64)>);

impl AccessObserver for Recorder {
    fn on_barrier(&mut self, block: u64) {
        self.0.push((0, block, 0, 0, 0));
    }

    fn on_shared_access(&mut self, block: u64, thread: u64, word: usize, kind: AccessKind) {
        self.0.push((1, block, thread, word as u64, kind as u64));
    }

    fn on_global_access(
        &mut self,
        block: u64,
        thread: u64,
        addr: u64,
        bytes: u64,
        kind: AccessKind,
        _locked: bool,
    ) {
        self.0
            .push((2, block, thread, addr, bytes << 2 | kind as u64));
    }
}

struct OpsKernel {
    world: World,
    tile: bool,
    ops: Vec<Op>,
}

impl Kernel for OpsKernel {
    fn name(&self) -> &str {
        "stage-ops"
    }

    fn config(&self) -> LaunchConfig {
        lc()
    }

    fn run_block(&self, ctx: &mut BlockCtx<'_>) {
        run(ctx, self.world, self.tile, &self.ops);
    }
}

/// The observed launch: events, launch stats and memory.
fn observed(tile: bool, ops: &[Op]) -> impl PartialEq + std::fmt::Debug {
    let (mut mem, world) = memory();
    let gpu = Gpu::new(DeviceConfig::test_gpu());
    let kernel = OpsKernel {
        world,
        tile,
        ops: ops.to_vec(),
    };
    let mut rec = Recorder::default();
    let stats = gpu
        .launch_observed(&kernel, &mut mem, &mut rec)
        .expect("launch");
    (
        rec.0,
        format!("{stats:?}"),
        mem.stats(),
        mem.dirty_line_info(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn tile_ops_equal_their_per_element_loops(
        ops in prop::collection::vec((0u8..16, any::<u64>(), any::<u64>()), 1..40),
    ) {
        let ops: Vec<Op> = ops.into_iter().map(decode).collect();
        let (tile, mut tile_mem) = unobserved(true, &ops);
        let (loops, mut loop_mem) = unobserved(false, &ops);
        prop_assert_eq!(tile, loops);
        // Later misses pick their victims by LRU stamp: a run that stamped
        // a line differently shows here.
        for mem in [&mut tile_mem, &mut loop_mem] {
            let base = mem.alloc(4 * WORDS, 32);
            for i in 0..WORDS {
                mem.read_u32(base.index(i, 4));
            }
            mem.flush_all();
        }
        prop_assert_eq!(tile_mem.stats(), loop_mem.stats());
        prop_assert_eq!(observed(true, &ops), observed(false, &ops));
    }
}
