//! Quickstart: protect a GPU kernel with Lazy Persistency, crash it
//! mid-flight, and recover — end to end in ~80 lines.
//!
//! Run with: `cargo run --release --example quickstart`

use lpgpu::gpu_lp::checksum::read_back_images;
use lpgpu::gpu_lp::{LpBlockSession, LpConfig, LpKernel, LpRuntime, Region, ResilientRecovery};
use lpgpu::lp_kernels::world;
use lpgpu::nvm::{Addr, PersistMemory};
use lpgpu::simt::{BlockCtx, CrashPlan, DeviceConfig, LaunchConfig};

/// A toy kernel: `out[i] = sqrt(i) * 2`. Each thread block is one LP
/// region; every store is folded into the block's checksums.
struct SqrtScale {
    out: Addr,
    n: u64,
}

impl Region for SqrtScale {
    fn name(&self) -> &str {
        "sqrt-scale"
    }

    fn config(&self) -> LaunchConfig {
        LaunchConfig::linear(self.n, 128)
    }

    /// The region body. `LpKernel` resets the checksums before it and
    /// reduces and publishes them to the checksum global array after it.
    fn run_region(&self, ctx: &mut BlockCtx<'_>, lp: &mut LpBlockSession<'_>) {
        for t in 0..ctx.threads_per_block() {
            let i = ctx.global_thread_id(t);
            if i < self.n {
                let v = (i as f32).sqrt() * 2.0;
                ctx.charge_alu(6);
                // A protected store: written to memory *and* checksummed.
                lp.store_f32(ctx, t, self.out.index(i, 4), v);
            }
        }
    }

    /// Recovery side: re-read exactly what the block stored, in fold
    /// order, appending to recovery's buffer (one run over the block's
    /// slice of `out`; an `f32`'s image is its bits).
    fn region_images(&self, mem: &mut PersistMemory, block: u64, images: &mut Vec<u64>) {
        let tpb = self.config().threads_per_block();
        let first = block * tpb;
        let count = tpb.min(self.n.saturating_sub(first));
        read_back_images::<1, 4>(mem, [self.out.index(first, 4)], count, images);
    }
}

fn main() {
    let n = 1 << 16;
    // A V100 over a small (2048-line, 8-way) cache: natural evictions — LP's
    // persistence mechanism — become visible quickly.
    let (gpu, mut mem) = world(DeviceConfig::v100(), 2048, 8);
    let out = mem.alloc(4 * n, 8);

    // 1. Set up the LP runtime: the paper's recommended design — checksum
    //    global array, modular+parity, warp-shuffle reduction, lock-free.
    let lc = LaunchConfig::linear(n, 128);
    let rt = LpRuntime::setup(
        &mut mem,
        lc.num_blocks(),
        lc.threads_per_block(),
        LpConfig::recommended(),
    );
    let kernel = LpKernel::new(SqrtScale { out, n }, Some(&rt));

    // 2. Launch with an injected power loss mid-kernel.
    let outcome = gpu
        .launch_with_plan(&kernel, &mut mem, CrashPlan::after_stores(20_000))
        .expect("launch");
    println!(
        "crashed: {} (blocks executed: {}/{})",
        outcome.crashed(),
        outcome.stats().blocks_executed,
        outcome.stats().num_blocks
    );

    // 3. Validate every region, re-execute only the failed ones.
    let failed = rt.failing_regions(&kernel, &mut mem);
    println!(
        "regions failing validation after the crash: {}",
        failed.len()
    );
    let report = ResilientRecovery::new(&gpu).recover(&kernel, &rt, &mut mem);
    println!(
        "recovery: {} re-executions over {} round(s), all durable = {}",
        report.reexecutions, report.rounds, report.all_durable
    );

    // 4. The output is exactly what a crash-free run would have produced.
    for i in [0u64, 1, 12345, n - 1] {
        let got = mem.read_f32(out.index(i, 4));
        let want = (i as f32).sqrt() * 2.0;
        assert_eq!(got, want, "mismatch at {i}");
    }
    println!("output verified: all {n} values correct after crash + recovery");
}
