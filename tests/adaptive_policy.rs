//! Crash-anywhere properties of the adaptive policy's transition window.
//!
//! When a region switches persist modes online, there is a window — the
//! journal append, the first launch under the new mode, the drain after it
//! — where a power loss is most dangerous: recovery could plausibly judge
//! the region under the old contract while its data already follows the
//! new one, or vice versa. The properties pinned here:
//!
//! 1. **One contract, never a hybrid** — a crash at *every* cycle inside
//!    the window recovers to a durable image bit-identical to one of the
//!    two adjacent crash-free images: the old-mode image (switch never
//!    happened) or the new-mode image (switch fully applied). No third
//!    image exists.
//! 2. **Deterministic schedule** — the switch schedule the engine commits
//!    is a pure function of the observation sequence, hence of the seed:
//!    replaying a scenario yields the identical journalled history.

use lpgpu::gpu_lp::{
    LpConfig, LpRuntime, PolicyConfig, PolicyMode, RegionSignals, ResilientRecovery,
};
use lpgpu::lp_kernels::{stage, workload_by_name, world, Scale};
use lpgpu::nvm::{Addr, BumpAllocator};
use lpgpu::simt::DeviceConfig;
use proptest::prelude::*;

/// Where in the transition window the power dies.
#[derive(Debug, Clone, Copy, PartialEq)]
enum CrashAt {
    /// No crash, no switch: the old-contract reference image.
    NoneOld,
    /// No crash, committed switch + one launch under the new mode: the
    /// new-contract reference image.
    NoneNew,
    /// Power loss armed immediately before the switch, firing at the k-th
    /// eviction — during the journal append's stores or anywhere in the
    /// relaunch under the new mode.
    Eviction(u64),
    /// Power loss mid-drain after the post-switch relaunch, with `n` dirty
    /// lines written back and the rest lost.
    Flush(u64),
}

struct Outcome {
    /// Durable bytes of the whole allocated space (data, tables, journal)
    /// after the run — and, for crash variants, after recovery — drained.
    image: Vec<u8>,
    /// Whether the armed trigger actually fired (always true for the
    /// reference variants, where no trigger is armed).
    crashed: bool,
    /// Per-region modes after the final journal reload.
    modes: Vec<PolicyMode>,
}

/// Cache geometry (lines, ways) of both scenarios' machines: small enough
/// to force natural evictions at test scale, so the eviction trigger has
/// cycles to land on (same scenario shape as E19).
const CACHE: (usize, usize) = (32, 4);

/// Runs the transition-window scenario once: clean launch under all-LP,
/// switch one region to `target`, relaunch, drain — with power dying at
/// `at` — then recovers and returns the drained durable image.
fn run_window(seed: u64, target: PolicyMode, at: CrashAt) -> Outcome {
    let (gpu, mut mem) = world(DeviceConfig::test_gpu(), CACHE.0, CACHE.1);
    let mut w = workload_by_name("TMM", Scale::Test, seed).expect("known workload");
    let rt = stage(w.as_mut(), &gpu, &mut mem, &LpConfig::adaptive());
    let lc = w.launch_config();
    let kernel = w.kernel(Some(&rt));
    gpu.launch(kernel.as_ref(), &mut mem).expect("launch");
    mem.flush_all();

    let region = seed % lc.num_blocks();
    match at {
        CrashAt::NoneOld => {}
        CrashAt::NoneNew | CrashAt::Flush(_) => {
            assert!(
                rt.switch_region(&mut mem, region, target),
                "clean switch must commit"
            );
            gpu.launch(kernel.as_ref(), &mut mem).expect("relaunch");
            if let CrashAt::Flush(n) = at {
                mem.arm_crash_during_flush(n);
            }
            mem.flush_all();
        }
        CrashAt::Eviction(k) => {
            // Armed before the switch: the trigger can fire during the
            // journal append's own stores or during the relaunch.
            mem.arm_crash_after_evictions(k);
            let _ = rt.switch_region(&mut mem, region, target);
            if !mem.power_failed() {
                gpu.launch(kernel.as_ref(), &mut mem).expect("relaunch");
            }
        }
    }
    let crashed = mem.power_failed();
    mem.disarm_crash();
    if crashed {
        mem.power_on();
        let _ = mem.take_crash_loss();
        let report = ResilientRecovery::new(&gpu).recover(kernel.as_ref(), &rt, &mut mem);
        assert!(report.all_durable, "recovery must converge ({at:?})");
    }
    assert!(w.verify(&mut mem), "wrong output after {at:?}");
    mem.flush_all();

    // Power-cycle once more and judge the drained image from durable state
    // alone: the journal replay must agree with the data it governs.
    mem.crash();
    let _ = mem.take_crash_loss();
    let disagreements = rt.failing_regions(kernel.as_ref(), &mut mem);
    assert!(
        disagreements.is_empty(),
        "journal/data disagreement after {at:?}: regions {disagreements:?}"
    );

    let mut image = vec![0u8; mem.allocated_bytes() as usize];
    mem.read_durable_bytes(Addr::new(BumpAllocator::BASE), &mut image);
    Outcome {
        image,
        crashed,
        modes: rt.policy_modes().expect("adaptive runtime"),
    }
}

/// Exercises every cycle of the window for one `(seed, target)` pair:
/// the crash sweeps eviction counts until the window is exhausted, then
/// sweeps the drain. Every crashed run must land on one of the two
/// adjacent images.
fn window_never_yields_a_hybrid(seed: u64, target: PolicyMode) {
    let old = run_window(seed, target, CrashAt::NoneOld);
    let new = run_window(seed, target, CrashAt::NoneNew);
    let region = (seed % old.modes.len() as u64) as usize;
    assert!(
        old.image != new.image,
        "the two contracts must be distinguishable in the durable image"
    );
    assert_eq!(new.modes[region], target);

    let mut crashes = 0u64;
    for k in 1.. {
        let got = run_window(seed, target, CrashAt::Eviction(k));
        if !got.crashed {
            break; // past the last eviction the window can produce
        }
        crashes += 1;
        let contract = if got.image == old.image {
            PolicyMode::Lp
        } else {
            assert!(
                got.image == new.image,
                "seed {seed} eviction-crash {k}: recovered image matches \
                 neither adjacent contract (hybrid state)"
            );
            target
        };
        assert_eq!(
            got.modes[region], contract,
            "seed {seed} eviction-crash {k}: journal mode disagrees with image"
        );
    }
    assert!(crashes > 0, "the eviction sweep never landed in the window");
    for n in 0..8 {
        let got = run_window(seed, target, CrashAt::Flush(n));
        if !got.crashed {
            break; // drain had <= n dirty lines
        }
        assert!(
            got.image == old.image || got.image == new.image,
            "seed {seed} flush-crash {n}: hybrid durable image"
        );
    }
}

#[test]
fn every_cycle_in_the_switch_window_recovers_to_one_contract() {
    window_never_yields_a_hybrid(42, PolicyMode::Epoch);
    window_never_yields_a_hybrid(43, PolicyMode::Eager);
    window_never_yields_a_hybrid(44, PolicyMode::Checkpoint);
}

/// Drives the E19-style crashy scenario and returns the committed switch
/// schedule as `(step, region, from, to)` tuples.
fn switch_schedule(seed: u64, launches: u64) -> Vec<(u64, u64, PolicyMode, PolicyMode)> {
    let (gpu, mut mem) = world(DeviceConfig::test_gpu(), CACHE.0, CACHE.1);
    let lc = workload_by_name("TMM", Scale::Test, seed)
        .expect("known workload")
        .launch_config();
    let rt = LpRuntime::setup(
        &mut mem,
        lc.num_blocks(),
        lc.threads_per_block(),
        LpConfig::adaptive().with_policy(PolicyConfig::reactive()),
    );
    mem.flush_all();
    for job in 0..launches {
        let mut w = workload_by_name("TMM", Scale::Test, seed ^ (job + 1)).expect("workload");
        w.setup(&mut mem);
        mem.reset_stats();
        let kernel = w.kernel(Some(&rt));
        mem.arm_crash_after_evictions(8);
        let out = gpu.launch(kernel.as_ref(), &mut mem).expect("launch");
        mem.disarm_crash();
        if !out.crashed {
            mem.crash();
        }
        mem.power_on();
        let _ = mem.take_crash_loss();
        let report = ResilientRecovery::new(&gpu).recover(kernel.as_ref(), &rt, &mut mem);
        let mut s = RegionSignals::from_nvm(&mem.stats());
        s.crashes = 1;
        s.validation_failed = report.reexecutions > 0;
        for r in 0..lc.num_blocks() {
            rt.adaptive_step(&mut mem, r, &s);
        }
    }
    rt.policy_history()
        .iter()
        .map(|e| (e.step, e.region, e.from, e.to))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Same seed, same scenario -> byte-identical switch schedule. The
    /// engine consults no clock and no RNG, so the journalled history is
    /// replayable; different seeds are free to differ.
    #[test]
    fn switch_schedule_is_a_pure_function_of_the_seed(seed in 0u64..1_000) {
        let first = switch_schedule(seed, 3);
        let second = switch_schedule(seed, 3);
        prop_assert_eq!(&first, &second);
        prop_assert!(
            !first.is_empty(),
            "a crashy scenario should commit at least one switch"
        );
    }
}
