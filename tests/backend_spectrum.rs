//! Cross-backend spectrum properties.
//!
//! Two invariants hold the four persistency models together:
//!
//! 1. **Functional equivalence** — a kernel computes the same memory image
//!    under every backend. The models differ in *when* stores become
//!    durable and what that costs, never in *what* the kernel computes.
//! 2. **Crash honesty** — a buffered persist must not survive a crash the
//!    model says it shouldn't: SBRP persists still in the persist buffers
//!    are lost, an open epoch's stores are lost, and conversely the region
//!    commit, which reaches the memory queue, makes them durable.

use lpgpu::gpu_lp::{BackendKind, LpConfig, LpRuntime, PersistencyBackend};
use lpgpu::lp_kernels::{workload_by_name, Scale, WORKLOAD_NAMES};
use lpgpu::lp_persist::{EpochBackend, SbrpBackend};
use lpgpu::nvm::{Addr, BumpAllocator, NvmConfig, PersistMemory};
use lpgpu::simt::{BlockCtx, DeviceConfig, DeviceState, Gpu, LaunchConfig};
use proptest::prelude::*;

/// Runs `name` under `backend` to completion (no crash), drains the cache,
/// and returns the durable image of the *workload's* allocations — the
/// boundary is captured before `LpRuntime::setup`, so checksum tables and
/// commit tokens (which legitimately differ per backend) are excluded.
fn durable_image(backend: BackendKind, name: &str, seed: u64) -> Vec<u8> {
    let gpu = Gpu::new(DeviceConfig::test_gpu());
    let mut mem = PersistMemory::new(NvmConfig::default());
    let mut w = workload_by_name(name, Scale::Test, seed).unwrap();
    w.setup(&mut mem);
    let boundary = mem.allocated_bytes() as usize;
    let lc = w.launch_config();
    let rt = LpRuntime::setup(
        &mut mem,
        lc.num_blocks(),
        lc.threads_per_block(),
        LpConfig::for_backend(backend),
    );
    let kernel = w.kernel(Some(&rt));
    gpu.launch(kernel.as_ref(), &mut mem).unwrap();
    mem.flush_all();
    assert!(w.verify(&mut mem), "{name}/{backend}: wrong output");
    let mut buf = vec![0u8; boundary];
    mem.read_durable_bytes(Addr::new(BumpAllocator::BASE), &mut buf);
    buf
}

#[test]
fn all_backends_agree_on_every_workload_image() {
    // The full kernel suite at a fixed seed: LP is the reference; every
    // explicit backend must reproduce its functional image bit for bit.
    for name in WORKLOAD_NAMES {
        let reference = durable_image(BackendKind::LpChecksum, name, 7);
        for backend in [BackendKind::Eager, BackendKind::Epoch, BackendKind::Sbrp] {
            let image = durable_image(backend, name, 7);
            assert!(
                image == reference,
                "{name}: {backend} image diverged from LP ({} bytes compared)",
                reference.len()
            );
        }
    }
}

/// A standalone one-block world for driving a persist session by hand.
fn standalone() -> (PersistMemory, DeviceState, DeviceConfig, LaunchConfig) {
    let cfg = DeviceConfig::test_gpu();
    let mem = PersistMemory::new(NvmConfig::default());
    let dev = DeviceState::new(&cfg, 4, 128);
    let lc = LaunchConfig::linear(4 * 64, 64);
    (mem, dev, cfg, lc)
}

proptest! {
    // Every case below is cheap (one kernel launch per backend, or a
    // hand-driven session); keep the counts bounded all the same.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Functional equivalence at arbitrary (workload, seed) points: the
    /// four backends' durable images are bit-identical once the cache has
    /// drained.
    #[test]
    fn backends_produce_bit_identical_functional_images(
        workload_pick in 0usize..WORKLOAD_NAMES.len(),
        seed in 0u64..1_000,
    ) {
        let name = WORKLOAD_NAMES[workload_pick];
        let reference = durable_image(BackendKind::LpChecksum, name, seed);
        for backend in [BackendKind::Eager, BackendKind::Epoch, BackendKind::Sbrp] {
            let image = durable_image(backend, name, seed);
            prop_assert!(
                image == reference,
                "{}/{}/s{}: image diverged from LP",
                name, backend, seed
            );
        }
    }

    /// SBRP crash contract: persists still buffered when power fails never
    /// survive, and a region commit's release (device scope: both buffers
    /// into the ADR-backed memory queue) makes every one durable. Up to 99
    /// lines: past the 64-entry L1 buffer, the overflow sits in the L2 one.
    #[test]
    fn sbrp_buffered_persists_never_survive_an_unreleased_crash(
        lines in 1u64..100,
        commit in any::<bool>(),
    ) {
        let (mut mem, mut dev, cfg, lc) = standalone();
        let a = mem.alloc(100 * 128, 128);
        {
            let mut ctx = BlockCtx::standalone(lc, 0, &mut mem, &mut dev, &cfg);
            let mut s = SbrpBackend.begin_block(0);
            for i in 0..lines {
                ctx.store_u64(a.offset(128 * i), i + 1);
                s.on_store(&mut ctx, a.offset(128 * i));
            }
            if commit {
                s.commit(&mut ctx);
            } // else: power fails inside the buffered window
            let _ = ctx.into_cost();
        }
        // Only a release reaches the memory queue, and it takes every line.
        prop_assert_eq!(mem.stats().adr_accepts, if commit { lines } else { 0 });
        prop_assert_eq!(mem.dirty_lines() as u64, if commit { 0 } else { lines });
        mem.crash();
        for i in 0..lines {
            let durable = mem.read_durable_u64(a.offset(128 * i));
            if commit {
                prop_assert!(
                    durable == i + 1,
                    "line {} released to the memory queue but lost (read {})",
                    i, durable
                );
            } else {
                prop_assert!(
                    durable == 0,
                    "line {} was buffered yet survived the crash",
                    i
                );
            }
        }
    }

    /// Epoch crash contract: an open epoch's stores are volatile; the
    /// region commit closes it, and a closed epoch's stores are durable
    /// (ADR queue acceptance).
    #[test]
    fn epoch_stores_survive_iff_the_epoch_closed(
        lines in 1u64..48,
        close_epoch in any::<bool>(),
    ) {
        let (mut mem, mut dev, cfg, lc) = standalone();
        let a = mem.alloc(48 * 128, 128);
        {
            let mut ctx = BlockCtx::standalone(lc, 0, &mut mem, &mut dev, &cfg);
            let mut s = EpochBackend.begin_block(0);
            for i in 0..lines {
                ctx.store_u64(a.offset(128 * i), i + 1);
                s.on_store(&mut ctx, a.offset(128 * i));
            }
            if close_epoch {
                s.commit(&mut ctx);
            }
            let _ = ctx.into_cost();
        }
        mem.crash();
        for i in 0..lines {
            let durable = mem.read_durable_u64(a.offset(128 * i));
            let expect = if close_epoch { i + 1 } else { 0 };
            prop_assert!(
                durable == expect,
                "line {}: epoch {} but durable read {}",
                i,
                if close_epoch { "closed" } else { "open" },
                durable
            );
        }
    }
}
