//! Integration tests for the recoverable services from `lp-apps`, driven
//! through the public `RecoverableApp` surface the soak engine uses — the
//! contract every service promises an operator:
//!
//! * a crash at any instant never loses a *committed* step;
//! * `restore` rolls an interrupted step forward and reports a nonzero
//!   restoration latency;
//! * `verify_invariants` audits the durable state against a bit-exact
//!   host reference model (exactly-once consumes, checkpointed weights,
//!   the full key universe), and names a corrupted committed word even
//!   after a long soak;
//! * the same service runs unmodified under every persistency backend.

use gpu_lp::BackendKind;
use lp_apps::{build_app, AppKind, AppParams, RecoverableApp};
use lp_fault::soak_world;
use nvm::{Addr, BumpAllocator, FlushOutcome, PersistMemory};
use simt::Gpu;

fn params(backend: BackendKind, seed: u64) -> AppParams {
    AppParams {
        backend,
        seed,
        max_steps: 64,
        width: 48,
    }
}

/// Steps until one commits (a clean boundary for the scenario to build on).
fn step_committed(app: &mut dyn RecoverableApp, gpu: &Gpu, mem: &mut PersistMemory) -> u64 {
    let rep = app.step(gpu, mem);
    assert!(rep.committed, "clean step must commit: {rep:?}");
    rep.step
}

#[test]
fn committed_steps_survive_a_boundary_crash_on_every_app() {
    for kind in AppKind::ALL {
        let (gpu, mut mem) = soak_world();
        let mut app = build_app(kind, params(BackendKind::LpChecksum, 7), &mut mem);
        for _ in 0..3 {
            step_committed(app.as_mut(), &gpu, &mut mem);
        }
        let before = app.progress(&mut mem);
        app.crash(&mut mem);
        let restore = app.restore(&gpu, &mut mem);
        assert!(restore.all_durable, "{kind}: {restore:?}");
        assert!(
            app.restoration_latency() > 0,
            "{kind}: restoration must cost modelled time"
        );
        // Progress never moves backwards; the training loop may legally
        // move it *forwards* (restore rolls uncheckpointed epochs ahead).
        assert!(
            app.progress(&mut mem) >= before,
            "{kind}: committed progress lost"
        );
        let violations = app.verify_invariants(&mut mem);
        assert!(violations.is_empty(), "{kind}: {violations:?}");
    }
}

#[test]
fn a_mid_drain_crash_rolls_the_interrupted_step_forward() {
    for kind in AppKind::ALL {
        let (gpu, mut mem) = soak_world();
        let mut app = build_app(kind, params(BackendKind::LpChecksum, 11), &mut mem);
        step_committed(app.as_mut(), &gpu, &mut mem);
        // Cut power inside the next step's commit drain: the step's intent
        // is durable, its success record is not.
        mem.arm_crash_during_flush(2);
        let mut crashed = false;
        for _ in 0..8 {
            let rep = app.step(&gpu, &mut mem);
            if rep.crashed {
                crashed = true;
                break;
            }
        }
        assert!(crashed, "{kind}: the armed drain trigger must fire");
        app.crash(&mut mem);
        let restore = app.restore(&gpu, &mut mem);
        assert!(restore.all_durable, "{kind}: {restore:?}");
        let violations = app.verify_invariants(&mut mem);
        assert!(violations.is_empty(), "{kind}: {violations:?}");
        // Progress after a roll-forward covers at least the committed
        // prefix; the audit above already proved it is *only* real data.
        assert!(app.progress(&mut mem) >= 1, "{kind}");
    }
}

#[test]
fn every_backend_runs_every_app_through_a_crash_cycle() {
    for kind in AppKind::ALL {
        for backend in [
            BackendKind::LpChecksum,
            BackendKind::Eager,
            BackendKind::Epoch,
            BackendKind::Sbrp,
            BackendKind::Adaptive,
        ] {
            let (gpu, mut mem) = soak_world();
            let mut app = build_app(kind, params(backend, 13), &mut mem);
            for _ in 0..2 {
                step_committed(app.as_mut(), &gpu, &mut mem);
            }
            app.crash(&mut mem);
            let restore = app.restore(&gpu, &mut mem);
            assert!(restore.all_durable, "{kind}/{backend}: {restore:?}");
            let violations = app.verify_invariants(&mut mem);
            assert!(violations.is_empty(), "{kind}/{backend}: {violations:?}");
        }
    }
}

#[test]
fn restoration_latency_grows_with_interrupted_work() {
    // A boundary crash restores from nothing in flight; a mid-step crash
    // leaves regions to validate and re-execute. The modelled latency must
    // reflect that extra work.
    let (gpu, mut mem) = soak_world();
    let mut app = build_app(
        AppKind::Queue,
        params(BackendKind::LpChecksum, 17),
        &mut mem,
    );
    step_committed(app.as_mut(), &gpu, &mut mem);
    app.crash(&mut mem);
    app.restore(&gpu, &mut mem);
    let boundary_ns = app.restoration_latency();

    mem.arm_crash_during_flush(1);
    for _ in 0..8 {
        if app.step(&gpu, &mut mem).crashed {
            break;
        }
    }
    app.crash(&mut mem);
    let restore = app.restore(&gpu, &mut mem);
    assert!(restore.all_durable);
    assert!(
        app.restoration_latency() >= boundary_ns,
        "interrupted restore ({}) cheaper than boundary restore ({boundary_ns})",
        app.restoration_latency()
    );
}

#[test]
fn double_crash_during_restore_converges_at_the_app_level() {
    for kind in AppKind::ALL {
        let (gpu, mut mem) = soak_world();
        let mut app = build_app(kind, params(BackendKind::LpChecksum, 19), &mut mem);
        step_committed(app.as_mut(), &gpu, &mut mem);
        mem.arm_crash_during_flush(2);
        for _ in 0..8 {
            if app.step(&gpu, &mut mem).crashed {
                break;
            }
        }
        app.crash(&mut mem);
        // A second cut aimed at the restore's own flush traffic: the
        // service retries `restore` like the soak engine does.
        mem.arm_crash_during_flush(1);
        let mut durable = false;
        for _ in 0..6 {
            if app.restore(&gpu, &mut mem).all_durable {
                durable = true;
                break;
            }
        }
        assert!(
            durable,
            "{kind}: restore must converge after a double crash"
        );
        let violations = app.verify_invariants(&mut mem);
        assert!(violations.is_empty(), "{kind}: {violations:?}");
    }
}

/// Runs `cycles` crash→restore cycles — a committed step, then a step with
/// power armed to fail inside a drain — and requires a clean audit after
/// every restore, so the audit's reference model is warm.
fn soak(app: &mut dyn RecoverableApp, gpu: &Gpu, mem: &mut PersistMemory, cycles: u64) {
    for cycle in 0..cycles {
        step_committed(app, gpu, mem);
        mem.arm_crash_during_flush(1 + cycle % 3);
        app.step(gpu, mem);
        app.crash(mem);
        mem.disarm_crash();
        let restore = app.restore(gpu, mem);
        assert!(restore.all_durable, "cycle {cycle}: {restore:?}");
        let violations = app.verify_invariants(mem);
        assert!(violations.is_empty(), "cycle {cycle}: {violations:?}");
    }
}

/// Overwrites the word at `addr` and flushes it, so the corruption is
/// durable as well as cached.
fn corrupt(mem: &mut PersistMemory, addr: Addr) {
    let v = mem.read_u64(addr);
    mem.write_u64(addr, v ^ 0x10);
    assert_eq!(
        mem.flush_line(addr),
        FlushOutcome::Persisted,
        "the corrupting write must persist"
    );
}

#[test]
fn the_audit_names_a_corrupted_committed_word_after_a_long_soak() {
    // Every service allocates its data arena first, so it starts at the
    // allocator's base: the queue's record log, the trainer's ring of
    // `K + 1 = 5` weight buffers (`width * 8` f32 each, back to back), the
    // store's bucket-major `(key, value)` pairs.
    let base = Addr::new(BumpAllocator::BASE);
    for kind in AppKind::ALL {
        let (gpu, mut mem) = soak_world();
        let p = params(BackendKind::LpChecksum, 23);
        let mut app = build_app(kind, p, &mut mem);
        soak(app.as_mut(), &gpu, &mut mem, 24);
        let committed = app.progress(&mut mem);
        let named = match kind {
            // Record 0 is step 1's first enqueue.
            AppKind::Queue => {
                corrupt(&mut mem, base);
                "record 0 corrupt".to_string()
            }
            AppKind::Train => {
                let buf = base.index(committed % 5, p.width * 8 * 4);
                let w = buf.index(7, 4);
                let v = mem.read_f32(w);
                mem.write_f32(w, v + 1.0);
                assert_eq!(
                    mem.flush_line(w),
                    FlushOutcome::Persisted,
                    "the corrupting write must persist"
                );
                format!("weight 7 diverged at epoch {committed}")
            }
            AppKind::KvTxn => {
                let live = (0..)
                    .map(|slot| base.index(slot, 16))
                    .find(|&k| !matches!(mem.read_u64(k), 0 | u64::MAX))
                    .expect("a live key after the soak");
                let key = mem.read_u64(live);
                corrupt(&mut mem, live.offset(8));
                format!("key {key} after step {committed}")
            }
        };
        let violations = app.verify_invariants(&mut mem);
        assert!(
            violations.iter().any(|v| v.starts_with(&named)),
            "{kind}: the audit must report {named:?}, got {violations:?}"
        );
    }
}
