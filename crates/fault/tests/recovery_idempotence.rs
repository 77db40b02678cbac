//! Property: crashing *during recovery* changes nothing about where
//! recovery converges.
//!
//! The soak engine leans on one invariant of the re-entrant resilient
//! path ([`ResilientRecovery::recover_reentrant`]): however many times
//! power fails in the middle of a validate/repair round, re-entering
//! converges to the same verdict and the **byte-identical durable image**
//! an uninterrupted recovery would have produced. Each aborted attempt
//! only flushes completed repair rounds, so durable state moves
//! monotonically toward the reference and never past it.
//!
//! Every case builds two identical worlds from the same seed, crashes the
//! same launch at the same instant, and recovers — world A uninterrupted,
//! world B with a second power cut armed to strike mid-recovery (and the
//! whole scenario is seed-replayable: running B twice must agree with
//! itself bit-for-bit).

use gpu_lp::{
    checksum::f32_store_image, LpBlockSession, LpConfig, LpRuntime, Recoverable, ResilientRecovery,
};
use nvm::{Addr, FaultConfig, PersistMemory};
use proptest::prelude::*;
use simt::{BlockCtx, Gpu, Kernel, LaunchConfig};

const N: u64 = 1024;
const TPB: u64 = 64;
const REGIONS: u64 = N / TPB;

/// out[i] = (i % 89) * 0.25, LP-protected — idempotent by construction.
struct FillLp<'rt> {
    out: Addr,
    rt: &'rt LpRuntime,
}

impl Kernel for FillLp<'_> {
    fn name(&self) -> &str {
        "fill_lp_idem"
    }

    fn config(&self) -> LaunchConfig {
        LaunchConfig::linear(N, TPB as u32)
    }

    fn run_block(&self, ctx: &mut BlockCtx<'_>) {
        let mut lp = LpBlockSession::begin(self.rt, ctx);
        for t in 0..ctx.threads_per_block() {
            let gid = ctx.global_thread_id(t);
            if gid < N {
                lp.store_f32(ctx, t, self.out.index(gid, 4), (gid % 89) as f32 * 0.25);
            }
        }
        lp.finalize(ctx);
    }
}

impl Recoverable for FillLp<'_> {
    fn recompute_block_checksums(&self, mem: &mut PersistMemory, block: u64) -> Vec<u64> {
        let mut images = Vec::new();
        for t in 0..TPB {
            let gid = block * TPB + t;
            if gid < N {
                images.push(f32_store_image(mem.read_f32(self.out.index(gid, 4))));
            }
        }
        self.rt.digest_region(block, images)
    }
}

/// The soak machine (a 64-line cache: natural evictions everywhere) with
/// the subject launched and crashed mid-flight at `crash_after` evictions.
fn crashed_world(
    seed: u64,
    crash_after: u64,
    fault_bp: u32,
) -> (Gpu, PersistMemory, LpRuntime, Addr) {
    let (gpu, mut mem) = lp_fault::soak_world();
    let out = mem.alloc(4 * N, 8);
    if fault_bp > 0 {
        mem.set_fault_config(Some(FaultConfig::torn(seed ^ 0x1DE4, fault_bp)));
    }
    let rt = LpRuntime::setup(&mut mem, REGIONS, TPB, LpConfig::recommended());
    mem.arm_crash_after_evictions(crash_after);
    let k = FillLp { out, rt: &rt };
    gpu.launch(&k, &mut mem).expect("launch");
    if !mem.power_failed() {
        // The working set always evicts enough lines for small crash
        // points; late ones degenerate to a boundary crash.
        mem.crash();
    }
    (gpu, mem, rt, out)
}

/// The durable image of the output buffer, read from media (not cache).
fn durable_image(mem: &PersistMemory, out: Addr) -> Vec<u8> {
    let mut buf = vec![0u8; (4 * N) as usize];
    mem.read_durable_bytes(out, &mut buf);
    buf
}

fn verify_reference(mem: &mut PersistMemory, out: Addr) {
    for i in 0..N {
        assert_eq!(mem.read_f32(out.index(i, 4)), (i % 89) as f32 * 0.25);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Interrupted recovery converges to the same verdict and the
    /// byte-identical durable image as an uninterrupted one (perfect
    /// device: verdicts comparable attempt-for-attempt).
    #[test]
    fn interrupted_recovery_is_idempotent(
        crash_after in 1u64..40,
        interrupt_after in 1u64..12,
        seed in 0u64..64,
    ) {
        // World A: crash the launch, recover uninterrupted.
        let (gpu, mut mem_a, rt_a, out_a) = crashed_world(seed, crash_after, 0);
        mem_a.power_on();
        let k_a = FillLp { out: out_a, rt: &rt_a };
        let a = ResilientRecovery::new(&gpu).recover_reentrant(&k_a, &rt_a, &mut mem_a);
        prop_assert!(a.is_success(), "baseline must converge: {:?}", a.report);
        prop_assert_eq!(a.interruptions, 0);

        // World B: identical crash, but a second power cut is armed to
        // strike during the recovery's own flush traffic.
        let (gpu, mut mem_b, rt_b, out_b) = crashed_world(seed, crash_after, 0);
        mem_b.power_on();
        mem_b.arm_crash_during_flush(interrupt_after);
        let k_b = FillLp { out: out_b, rt: &rt_b };
        let b = ResilientRecovery::new(&gpu).recover_reentrant(&k_b, &rt_b, &mut mem_b);
        prop_assert!(b.is_success(), "re-entry must converge: {:?}", b.report);

        // Same verdict, same durable bytes, same recovered output.
        prop_assert_eq!(a.report.all_durable, b.report.all_durable);
        prop_assert_eq!(a.report.recovered_regions, b.report.recovered_regions);
        prop_assert_eq!(durable_image(&mem_a, out_a), durable_image(&mem_b, out_b));
        verify_reference(&mut mem_b, out_b);
    }

    /// The whole interrupted scenario is replayable from its seeds: two
    /// runs of world B agree with themselves bit-for-bit, interruptions
    /// and all.
    #[test]
    fn interrupted_recovery_is_seed_replayable(
        crash_after in 1u64..40,
        interrupt_after in 1u64..12,
        seed in 0u64..64,
        fault_idx in 0usize..3,
    ) {
        let fault_bp = [0u32, 150, 400][fault_idx];
        let run = || {
            let (gpu, mut mem, rt, out) = crashed_world(seed, crash_after, fault_bp);
            mem.power_on();
            mem.arm_crash_during_flush(interrupt_after);
            let k = FillLp { out, rt: &rt };
            let o = ResilientRecovery::new(&gpu).recover_reentrant(&k, &rt, &mut mem);
            (o, durable_image(&mem, out))
        };
        let (o1, img1) = run();
        let (o2, img2) = run();
        prop_assert_eq!(o1.attempts, o2.attempts);
        prop_assert_eq!(o1.interruptions, o2.interruptions);
        prop_assert_eq!(o1.total_latency_ns, o2.total_latency_ns);
        prop_assert_eq!(o1.report.all_durable, o2.report.all_durable);
        prop_assert_eq!(img1, img2);
    }

    /// On a lying device (torn write-backs ACK success) the interrupted
    /// path must still converge to the correct durable output — the
    /// verdict-by-verdict comparison with the baseline only holds at
    /// bp == 0, but the *data* contract holds at any rate.
    #[test]
    fn interrupted_recovery_on_faulty_device_restores_data(
        crash_after in 1u64..32,
        interrupt_after in 1u64..10,
        seed in 0u64..64,
    ) {
        let (gpu, mut mem, rt, out) = crashed_world(seed, crash_after, 300);
        mem.power_on();
        mem.arm_crash_during_flush(interrupt_after);
        let k = FillLp { out, rt: &rt };
        let o = ResilientRecovery::new(&gpu).recover_reentrant(&k, &rt, &mut mem);
        prop_assert!(o.is_success(), "faulty-device re-entry must converge: {:?}", o.report);
        // The durable image alone must hold the reference values: cut
        // power on a now-perfect device and read back.
        mem.set_fault_config(None);
        mem.disarm_crash();
        mem.crash();
        verify_reference(&mut mem, out);
    }
}
