//! A [`Launch`] cloned with its memory at a block boundary is a fork of the
//! execution: finished under any crash plan that lies ahead of it, the fork
//! ends exactly as `Gpu::launch_with_plan` run under that plan from block 0
//! — memory image, `NvmStats`, `CrashLoss`, `LaunchStats`.

use nvm::{Addr, NvmConfig, PersistMemory};
use proptest::prelude::*;
use simt::{BlockCtx, CrashPlan, DeviceConfig, Gpu, Kernel, Launch, LaunchConfig};

/// Words of the data region: four times what the 64-line cache holds, so
/// the store stream evicts naturally.
const WORDS: u64 = 4096;

/// Loads, shared memory, a barrier, stores and an atomic per block; every
/// third block stores nothing, so several boundaries share a store clock.
struct Mixed {
    data: Addr,
    counter: Addr,
    blocks: u64,
    salt: u64,
}

impl Kernel for Mixed {
    fn name(&self) -> &str {
        "mixed"
    }

    fn config(&self) -> LaunchConfig {
        LaunchConfig::linear(self.blocks * 32, 32)
    }

    fn run_block(&self, ctx: &mut BlockCtx<'_>) {
        let b = ctx.block_id();
        let sh = ctx.shared_alloc(32);
        for t in 0..32 {
            ctx.set_active_thread(t);
            let x = ctx.load_u64(self.data.index((b * 32 + t * 7) % WORDS, 8));
            ctx.shm_write(sh, t as usize, x ^ self.salt);
            ctx.charge_alu(3);
        }
        ctx.sync_threads();
        if b % 3 == 1 {
            return;
        }
        for t in 0..32 {
            ctx.set_active_thread(t);
            let v = ctx.shm_read(sh, ((t + 1) % 32) as usize);
            let slot = (b * 97 + t * 13 + self.salt) % WORDS;
            ctx.store_u64(self.data.index(slot, 8), v.wrapping_add(b));
        }
        ctx.atomic_add_u32(self.counter, 1);
    }
}

fn machine(blocks: u64, salt: u64) -> (Gpu, PersistMemory, Mixed) {
    let mut mem = PersistMemory::new(NvmConfig {
        cache_lines: 64,
        associativity: 4,
        ..NvmConfig::default()
    });
    let data = mem.alloc(8 * WORDS, 128);
    let counter = mem.alloc(8, 8);
    for i in 0..WORDS {
        mem.write_u64(data.index(i, 8), i.wrapping_mul(salt | 1));
    }
    mem.flush_all();
    mem.reset_stats();
    let k = Mixed {
        data,
        counter,
        blocks,
        salt,
    };
    (Gpu::new(DeviceConfig::test_gpu()), mem, k)
}

/// Everything a finished launch leaves behind, in comparable form.
fn observe(mem: &mut PersistMemory, stats: &simt::LaunchStats) -> (String, Vec<u8>, Vec<u8>) {
    let loss = format!("{:?}", mem.take_crash_loss());
    let mut durable = vec![0u8; mem.allocated_bytes() as usize];
    mem.read_durable_bytes(Addr::new(128), &mut durable[128..]);
    let mut volatile = vec![0u8; durable.len()];
    mem.read_bytes(Addr::new(128), &mut volatile[128..]);
    (
        format!("{stats:?} {loss} {:?}", mem.stats()),
        durable,
        volatile,
    )
}

/// Whether `plan`'s crash point is not behind `launch`.
fn ahead(plan: &CrashPlan, launch: &Launch<'_>) -> bool {
    plan.after_global_stores
        .is_none_or(|n| launch.store_clock() <= n)
        && plan.after_blocks.is_none_or(|n| launch.next_block() <= n)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn a_forked_launch_finishes_like_a_launch_from_block_zero(
        blocks in 1u64..24,
        salt in any::<u64>(),
        fork_at in 0u64..24,
        (stores, use_stores) in (0u64..1600, any::<bool>()),
        (after_blocks, use_blocks) in (0u64..24, any::<bool>()),
    ) {
        let plan = CrashPlan {
            after_global_stores: use_stores.then_some(stores),
            after_blocks: use_blocks.then_some(after_blocks),
        };

        let (gpu, mut mem, k) = machine(blocks, salt);
        let reference = gpu.launch_with_plan(&k, &mut mem, plan).expect("launch");
        let want = observe(&mut mem, reference.stats());

        // Step a crash-free launch, keeping a fork at the last boundary
        // (up to `fork_at`) the plan still lies ahead of.
        let (gpu, mem, k) = machine(blocks, salt);
        let mut pass = (mem.clone(), gpu.start(&k, &mem, CrashPlan::never()).expect("start"));
        let mut fork = pass.clone();
        while pass.1.next_block() < fork_at && pass.1.step(&k, &mut pass.0, None) {
            if !ahead(&plan, &pass.1) {
                break;
            }
            fork = pass.clone();
        }
        let (mut mem, mut launch) = fork;
        let at = launch.next_block();
        launch.arm(plan);
        let outcome = launch.finish(&k, &mut mem);
        prop_assert_eq!(outcome.crashed(), reference.crashed(), "forked at {}", at);
        prop_assert_eq!(outcome.stats(), reference.stats(), "forked at {}", at);
        prop_assert_eq!(observe(&mut mem, outcome.stats()), want, "forked at {}", at);
    }
}
