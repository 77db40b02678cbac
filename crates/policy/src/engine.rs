//! The decision core: per-region mode selection with hysteresis and a
//! monotone fault floor.

use crate::mode::PolicyMode;
use crate::signals::RegionSignals;
use serde::{Deserialize, Serialize};

/// In a window that saw a crash, prefer an explicit mode once recovery cost
/// exceeds this percentage of the window's execution time (LP's
/// re-execution is no longer cheap).
const CRASH_COST_PCT: u32 = 35;
/// Persist-refusal rate (basis points) from which the fault floor rises to
/// at least [`PolicyMode::Epoch`].
const REFUSAL_EPOCH_BP: u32 = 200; // 2 %
/// Refusal rate from which the floor rises to [`PolicyMode::Eager`].
const REFUSAL_EAGER_BP: u32 = 1_000; // 10 %
/// Refusal rate from which the floor rises to [`PolicyMode::Checkpoint`].
const REFUSAL_CHECKPOINT_BP: u32 = 2_500; // 25 %
/// ECC-corrected errors per window from which the floor rises to at least
/// [`PolicyMode::Epoch`] (the media is decaying; stop trusting indefinite
/// residency in the volatile window).
const ECC_FLOOR_EVENTS: u64 = 4;

/// Tunables for the policy engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PolicyConfig {
    /// Consecutive observations that must agree on a new target before the
    /// engine proposes the switch (thrash damping).
    pub hysteresis: u32,
}

impl Default for PolicyConfig {
    fn default() -> Self {
        Self { hysteresis: 2 }
    }
}

impl PolicyConfig {
    /// A config that switches after a single observation (benchmark phases
    /// are short; tests want immediate reactions).
    pub fn reactive() -> Self {
        Self { hysteresis: 1 }
    }
}

/// One committed mode switch, for schedule-determinism checks and reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SwitchEvent {
    /// Observation step (global, monotone) at which the switch committed.
    pub step: u64,
    /// The region switched.
    pub region: u64,
    /// Mode before.
    pub from: PolicyMode,
    /// Mode after.
    pub to: PolicyMode,
}

#[derive(Debug, Clone, Copy)]
struct RegionState {
    current: PolicyMode,
    pending: Option<(PolicyMode, u32)>,
}

/// The adaptive policy engine.
///
/// Feed it one [`RegionSignals`] window per region per launch via
/// [`PolicyEngine::observe`]; when the returned target is `Some`, the
/// caller attempts the (journalled, crash-consistent) switch and reports
/// the outcome with [`PolicyEngine::commit`] — a refused switch simply
/// leaves the proposal pending, to be re-proposed on the next observation.
///
/// Two properties are load-bearing and tested:
///
/// * **Hysteresis** — a target must win `hysteresis` consecutive windows
///   before it is proposed, so a noisy signal cannot thrash regions
///   between modes.
/// * **Monotone degradation** — the device-fault floor only ever climbs
///   the ladder (LP → epoch → eager → checkpoint). Phase preferences may
///   move regions freely *above* the floor, but no signal ever lowers it:
///   a device caught lying about durability is never trusted again.
///
/// The engine is deterministic: identical observation sequences produce
/// identical switch schedules (no randomness, no clocks).
#[derive(Debug, Clone)]
pub struct PolicyEngine {
    cfg: PolicyConfig,
    regions: Vec<RegionState>,
    floor: PolicyMode,
    step: u64,
    history: Vec<SwitchEvent>,
}

impl PolicyEngine {
    /// An engine for `num_regions` regions, all starting at LP.
    pub fn new(num_regions: u64, cfg: PolicyConfig) -> Self {
        Self {
            cfg,
            regions: vec![
                RegionState {
                    current: PolicyMode::Lp,
                    pending: None,
                };
                num_regions as usize
            ],
            floor: PolicyMode::Lp,
            step: 0,
            history: Vec::new(),
        }
    }

    /// Current mode of `region` (`None` for a region the engine was not
    /// built to cover).
    pub fn current(&self, region: u64) -> Option<PolicyMode> {
        self.regions.get(region as usize).map(|s| s.current)
    }

    /// The global device-fault floor (monotone over the engine's life).
    pub fn floor(&self) -> PolicyMode {
        self.floor
    }

    /// Every committed switch so far, in commit order.
    pub fn history(&self) -> &[SwitchEvent] {
        &self.history
    }

    fn max_by_rank(a: PolicyMode, b: PolicyMode) -> PolicyMode {
        if b.rank() > a.rank() {
            b
        } else {
            a
        }
    }

    /// Raises the fault floor according to `s`; never lowers it.
    fn ratchet_floor(&mut self, s: &RegionSignals) {
        if s.lying_faults() > 0 {
            // The device claimed durability it did not deliver: only the
            // checksummed-and-drained top rung is safe from here on.
            self.floor = PolicyMode::Checkpoint;
            return;
        }
        let bp = s.refusal_rate_bp();
        let rung = if bp >= REFUSAL_CHECKPOINT_BP {
            PolicyMode::Checkpoint
        } else if bp >= REFUSAL_EAGER_BP {
            PolicyMode::Eager
        } else if bp >= REFUSAL_EPOCH_BP {
            PolicyMode::Epoch
        } else {
            PolicyMode::Lp
        };
        self.floor = Self::max_by_rank(self.floor, rung);
        if s.ecc_detected_errors >= ECC_FLOOR_EVENTS {
            self.floor = Self::max_by_rank(self.floor, PolicyMode::Epoch);
        }
    }

    /// The phase preference for a window, before the floor is applied.
    fn preferred(&self, current: PolicyMode, s: &RegionSignals) -> PolicyMode {
        if s.crashes == 0 {
            // Crash-free window: LP's zero persist instructions win.
            return PolicyMode::Lp;
        }
        if s.recovery_cost_pct() > CRASH_COST_PCT || s.validation_failed {
            // Crashes are frequent/expensive enough that paying persist
            // cost up front beats re-executing lost regions afterwards.
            PolicyMode::Epoch
        } else {
            // A crash happened but recovery was cheap *under the current
            // mode*. For a region already in an explicit mode that is the
            // mode working, not the crash being harmless — dropping back
            // to LP here would re-pay the full re-execution next window
            // and thrash. Only a crash-free window argues for LP again.
            current
        }
    }

    /// Feeds one observation window for `region`. Returns `Some(target)`
    /// when the region should switch (hysteresis satisfied); the caller
    /// journals the switch and then calls [`PolicyEngine::commit`]. A window
    /// for an unknown region is dropped whole: `None`, no state touched.
    pub fn observe(&mut self, region: u64, s: &RegionSignals) -> Option<PolicyMode> {
        let current = self.current(region)?;
        self.step += 1;
        self.ratchet_floor(s);
        let target = Self::max_by_rank(self.preferred(current, s), self.floor);
        let state = &mut self.regions[region as usize];
        if target == state.current {
            state.pending = None;
            return None;
        }
        let streak = match state.pending {
            Some((t, n)) if t == target => n + 1,
            _ => 1,
        };
        state.pending = Some((target, streak));
        (streak >= self.cfg.hysteresis).then_some(target)
    }

    /// Records that `region` durably switched to `to` (the journal append
    /// succeeded). Clears the pending proposal. An unknown region is ignored.
    pub fn commit(&mut self, region: u64, to: PolicyMode) {
        let step = self.step;
        let Some(state) = self.regions.get_mut(region as usize) else {
            return;
        };
        let from = state.current;
        state.current = to;
        state.pending = None;
        self.history.push(SwitchEvent {
            step,
            region,
            from,
            to,
        });
    }

    /// Resynchronises a region's current mode from the replayed journal
    /// (reboot path). Clears pending state; does not touch the history. An
    /// unknown region is ignored.
    pub fn resync(&mut self, region: u64, mode: PolicyMode) {
        let Some(state) = self.regions.get_mut(region as usize) else {
            return;
        };
        state.current = mode;
        state.pending = None;
        // A region found above LP after a reboot got there because the
        // journal says so; keep the floor consistent with the strongest
        // *globally*-mandated rung only if the caller ratchets it — the
        // journal alone cannot distinguish phase preference from floor.
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn crashy(recovery_pct: u32) -> RegionSignals {
        RegionSignals {
            crashes: 1,
            exec_ns: 1_000,
            recovery_ns: recovery_pct as u64 * 10,
            ..RegionSignals::default()
        }
    }

    fn refusing(bp: u32) -> RegionSignals {
        RegionSignals {
            natural_evictions: 10_000 - bp as u64,
            transient_persist_fails: bp as u64,
            ..RegionSignals::default()
        }
    }

    #[test]
    fn hysteresis_damps_a_noisy_signal() {
        let mut e = PolicyEngine::new(1, PolicyConfig::default());
        // One crashy window: pending, not proposed.
        assert_eq!(e.observe(0, &crashy(80)), None);
        // A clean window in between resets the streak.
        assert_eq!(e.observe(0, &RegionSignals::default()), None);
        assert_eq!(e.observe(0, &crashy(80)), None);
        // Second consecutive crashy window: proposal fires.
        assert_eq!(e.observe(0, &crashy(80)), Some(PolicyMode::Epoch));
        e.commit(0, PolicyMode::Epoch);
        assert_eq!(e.current(0), Some(PolicyMode::Epoch));
        // Once there, the same signal is steady state.
        assert_eq!(e.observe(0, &crashy(80)), None);
    }

    #[test]
    fn cheap_crashes_keep_lp() {
        let mut e = PolicyEngine::new(1, PolicyConfig::reactive());
        // Crash present but recovery is cheap relative to exec: stay LP.
        assert_eq!(e.observe(0, &crashy(10)), None);
        assert_eq!(e.current(0), Some(PolicyMode::Lp));
    }

    #[test]
    fn cheap_recovery_under_an_explicit_mode_does_not_thrash_back_to_lp() {
        let mut e = PolicyEngine::new(1, PolicyConfig::reactive());
        assert_eq!(e.observe(0, &crashy(80)), Some(PolicyMode::Epoch));
        e.commit(0, PolicyMode::Epoch);
        // Later crash windows are cheap *because* of epoch: stay put.
        for _ in 0..5 {
            assert_eq!(e.observe(0, &crashy(10)), None);
        }
        assert_eq!(e.current(0), Some(PolicyMode::Epoch));
        // Only a crash-free window is evidence for LP again.
        assert_eq!(
            e.observe(0, &RegionSignals::default()),
            Some(PolicyMode::Lp)
        );
    }

    #[test]
    fn phase_change_switches_back_when_the_floor_allows() {
        let mut e = PolicyEngine::new(1, PolicyConfig::reactive());
        assert_eq!(e.observe(0, &crashy(80)), Some(PolicyMode::Epoch));
        e.commit(0, PolicyMode::Epoch);
        // Crash-free phase: preference returns to LP (floor is still LP).
        assert_eq!(
            e.observe(0, &RegionSignals::default()),
            Some(PolicyMode::Lp)
        );
        e.commit(0, PolicyMode::Lp);
        assert_eq!(e.current(0), Some(PolicyMode::Lp));
    }

    #[test]
    fn fault_floor_is_monotone_under_a_rising_ramp() {
        let mut e = PolicyEngine::new(1, PolicyConfig::reactive());
        let mut floors = Vec::new();
        for bp in [0u32, 50, 300, 300, 1_500, 1_500, 3_000, 0, 0] {
            let _ = e.observe(0, &refusing(bp));
            floors.push(e.floor());
        }
        // Rises with the ramp, never falls — even when the rate drops
        // back to zero at the end.
        for w in floors.windows(2) {
            assert!(w[1].rank() >= w[0].rank(), "floor fell: {floors:?}");
        }
        assert_eq!(*floors.last().unwrap(), PolicyMode::Checkpoint);
    }

    #[test]
    fn lying_device_jumps_the_floor_to_checkpoint() {
        let mut e = PolicyEngine::new(2, PolicyConfig::reactive());
        let s = RegionSignals {
            torn_writebacks: 1,
            ..RegionSignals::default()
        };
        assert_eq!(e.observe(0, &s), Some(PolicyMode::Checkpoint));
        e.commit(0, PolicyMode::Checkpoint);
        // Clean windows afterwards never lower it: checkpoint is sticky.
        for _ in 0..10 {
            assert_eq!(e.observe(0, &RegionSignals::default()), None);
        }
        assert_eq!(e.floor(), PolicyMode::Checkpoint);
        // And the floor is global: region 1 is pulled up too.
        assert_eq!(
            e.observe(1, &RegionSignals::default()),
            Some(PolicyMode::Checkpoint)
        );
    }

    #[test]
    fn ecc_decay_raises_the_floor_to_epoch() {
        let mut e = PolicyEngine::new(1, PolicyConfig::reactive());
        let s = RegionSignals {
            ecc_detected_errors: 8,
            ..RegionSignals::default()
        };
        assert_eq!(e.observe(0, &s), Some(PolicyMode::Epoch));
        assert_eq!(e.floor(), PolicyMode::Epoch);
    }

    #[test]
    fn thresholds_hold_at_their_edges() {
        use PolicyMode::{Checkpoint, Eager, Epoch, Lp};
        let ecc = |events: u64| RegionSignals {
            ecc_detected_errors: events,
            ..RegionSignals::default()
        };
        // (window, floor after it, proposal) for a fresh reactive engine.
        let cases = [
            (refusing(199), Lp, None),
            (refusing(200), Epoch, Some(Epoch)),
            (refusing(999), Epoch, Some(Epoch)),
            (refusing(1_000), Eager, Some(Eager)),
            (refusing(2_499), Eager, Some(Eager)),
            (refusing(2_500), Checkpoint, Some(Checkpoint)),
            (ecc(3), Lp, None),
            (ecc(4), Epoch, Some(Epoch)),
            (crashy(35), Lp, None),
            (crashy(36), Lp, Some(Epoch)),
        ];
        for (i, (window, floor, proposal)) in cases.iter().enumerate() {
            let mut e = PolicyEngine::new(1, PolicyConfig::reactive());
            assert_eq!(e.observe(0, window), *proposal, "case {i}");
            assert_eq!(e.floor(), *floor, "case {i}");
        }
    }

    #[test]
    fn refused_switch_stays_pending_and_fires_again() {
        let mut e = PolicyEngine::new(1, PolicyConfig::default());
        assert_eq!(e.observe(0, &crashy(80)), None);
        assert_eq!(e.observe(0, &crashy(80)), Some(PolicyMode::Epoch));
        // Caller's journal append failed: no commit. Next window proposes
        // the same target again immediately (streak keeps growing).
        assert_eq!(e.observe(0, &crashy(80)), Some(PolicyMode::Epoch));
    }

    #[test]
    fn identical_observation_sequences_give_identical_schedules() {
        let windows: Vec<RegionSignals> = vec![
            RegionSignals::default(),
            crashy(80),
            crashy(80),
            refusing(1_500),
            RegionSignals::default(),
            crashy(80),
            RegionSignals {
                silent_bit_errors: 1,
                ..RegionSignals::default()
            },
            RegionSignals::default(),
        ];
        let run = || {
            let mut e = PolicyEngine::new(4, PolicyConfig::default());
            for w in &windows {
                for r in 0..4 {
                    if let Some(t) = e.observe(r, w) {
                        e.commit(r, t);
                    }
                }
            }
            e.history().to_vec()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "policy schedule must be deterministic");
        assert!(!a.is_empty());
    }

    #[test]
    fn resync_overrides_current_without_history() {
        let mut e = PolicyEngine::new(2, PolicyConfig::default());
        e.resync(1, PolicyMode::Eager);
        assert_eq!(e.current(1), Some(PolicyMode::Eager));
        assert!(e.history().is_empty());
    }

    #[test]
    fn an_unknown_region_is_refused_without_touching_the_engine() {
        let mut e = PolicyEngine::new(2, PolicyConfig::reactive());
        assert_eq!(e.current(2), None);
        // Even a window that would ratchet the floor is dropped whole.
        let lying = RegionSignals {
            torn_writebacks: 1,
            ..RegionSignals::default()
        };
        assert_eq!(e.observe(2, &lying), None);
        assert_eq!(e.floor(), PolicyMode::Lp);
        e.commit(2, PolicyMode::Eager);
        e.resync(u64::MAX, PolicyMode::Eager);
        assert!(e.history().is_empty());
        assert_eq!(e.current(0), Some(PolicyMode::Lp));
        assert_eq!(e.current(1), Some(PolicyMode::Lp));
    }
}
