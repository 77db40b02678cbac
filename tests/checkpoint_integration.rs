//! Checkpoints (§IV-A: a whole-cache flush between launches) in the LP
//! pipeline: flushing bounds the validation horizon, and crashes between
//! checkpoints damage only the unflushed suffix.

use lpgpu::gpu_lp::{LpConfig, LpRuntime, ResilientRecovery};
use lpgpu::lp_kernels::{stage, subject, world, Scale, Workload};
use lpgpu::nvm::PersistMemory;
use lpgpu::simt::{DeviceConfig, Gpu};

/// `name` at test scale, staged under the recommended config on a tiny
/// (16-line) cache: even a Test-scale kernel's dirty output exceeds it, so
/// natural evictions are guaranteed mid-launch (the regime the
/// between-checkpoints test needs).
fn staged(name: &str, seed: u64) -> (Gpu, PersistMemory, Box<dyn Workload>, LpRuntime) {
    let (gpu, mut mem) = world(DeviceConfig::test_gpu(), 16, 4);
    let mut w = (subject(name).expect("a suite name").build)(Scale::Test, seed);
    let rt = stage(w.as_mut(), &gpu, &mut mem, &LpConfig::recommended());
    (gpu, mem, w, rt)
}

#[test]
fn crash_right_after_checkpoint_needs_no_recovery() {
    let (gpu, mut mem, w, rt) = staged("HISTO", 41);
    let kernel = w.kernel(Some(&rt));
    gpu.launch(kernel.as_ref(), &mut mem).unwrap();
    mem.flush_all();
    mem.crash();
    let failed = rt.failing_regions(kernel.as_ref(), &mut mem);
    assert!(
        failed.is_empty(),
        "checkpointed state must survive: {failed:?}"
    );
    assert!(w.verify(&mut mem));
}

#[test]
fn crash_between_checkpoints_damages_only_the_suffix() {
    let (gpu, mut mem, w, rt) = staged("SPMV", 42);
    let lc = w.launch_config();

    // Checkpoints every two launches. Launch 1: no checkpoint yet.
    let kernel = w.kernel(Some(&rt));
    gpu.launch(kernel.as_ref(), &mut mem).unwrap();

    // Crash with one unflushed launch of exposure; the small cache means
    // plenty already evicted — validation finds at most the cached tail.
    mem.crash();
    let eng = ResilientRecovery::new(&gpu);
    let failed = rt.failing_regions(kernel.as_ref(), &mut mem);
    assert!(
        (failed.len() as u64) < lc.num_blocks(),
        "natural eviction must have persisted part of the launch"
    );
    let report = eng.recover(kernel.as_ref(), &rt, &mut mem);
    assert!(report.all_durable);
    assert!(w.verify(&mut mem));

    // Launch 2 completes the interval: the checkpoint flushes and
    // everything is durable from here.
    w.reset_output(&mut mem);
    rt.reset(&mut mem);
    let kernel = w.kernel(Some(&rt));
    gpu.launch(kernel.as_ref(), &mut mem).unwrap();
    mem.flush_all();
    mem.crash();
    assert!(rt.failing_regions(kernel.as_ref(), &mut mem).is_empty());
    assert!(w.verify(&mut mem));
}
