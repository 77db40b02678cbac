//! Launch-wide device state: atomic channels, lock serialisation, and crash
//! injection bookkeeping shared by all blocks of a launch.

use crate::config::DeviceConfig;

/// Mutable device-wide state for one kernel launch.
///
/// Captures the two *cross-block* serialisation mechanisms of the timing
/// model:
///
/// * **atomic channels** — every global atomic occupies one of
///   `atomic_channels` memory-partition slots for `atomic_channel_ns`;
///   the busiest channel bounds the launch. Hot addresses (a shared lock
///   word, a popular hash bucket) map to a single channel and serialise.
/// * **global-lock timeline** — spin-lock critical sections cannot overlap
///   at all; their durations (plus a handoff penalty growing with the number
///   of concurrent contender blocks) accumulate on one timeline.
#[derive(Debug, Clone)]
pub struct DeviceState {
    line_size: u64,
    channels: Vec<f64>,
    /// Shared-memory arena of the block currently executing. It lives here,
    /// not in the block's context, so a launch allocates it once: each
    /// block clears it and reuses the capacity.
    pub(crate) shared: Vec<u64>,
    /// Fraction of peak occupancy this launch reaches (0..1]; sparse
    /// launches issue atomics too slowly to queue at the partitions.
    pub occupancy: f64,
    /// Nanoseconds of non-overlappable critical-section time.
    pub lock_serial_ns: f64,
    /// Number of blocks that can contend at once (occupancy-limited).
    pub concurrency: u64,
    /// Total atomics issued.
    pub atomic_ops: u64,
    /// Atomics that found their channel busier than the average (a proxy
    /// for contention events).
    pub contended_atomics: u64,
    /// Global stores issued so far (crash-injection clock).
    pub stores_seen: u64,
    /// Store count after which the device "loses power".
    pub crash_after_stores: Option<u64>,
    /// Set once the crash point is reached; subsequent stores are dropped.
    pub crashed: bool,
}

impl DeviceState {
    /// Creates fresh per-launch state.
    pub fn new(cfg: &DeviceConfig, grid_blocks: u64, line_size: u64) -> Self {
        let concurrency = grid_blocks.min(cfg.max_concurrent_blocks());
        Self {
            line_size,
            channels: vec![0.0; cfg.atomic_channels as usize],
            shared: Vec::new(),
            lock_serial_ns: 0.0,
            occupancy: concurrency as f64 / cfg.max_concurrent_blocks() as f64,
            concurrency,
            atomic_ops: 0,
            contended_atomics: 0,
            stores_seen: 0,
            crash_after_stores: None,
            crashed: false,
        }
    }

    /// Records one atomic to `addr`, occupying that line's channel.
    ///
    /// The occupancy factor models queueing: a launch with few resident
    /// blocks issues atomics sparsely, so each is serviced at close to the
    /// uncontended rate; a full launch keeps the partition queues busy and
    /// every atomic pays the full service slot.
    pub fn record_atomic(&mut self, addr: u64, channel_ns: f64) {
        self.atomic_ops += 1;
        let idx = ((addr / self.line_size) % self.channels.len() as u64) as usize;
        let avg = self.channels.iter().sum::<f64>() / self.channels.len() as f64;
        if self.channels[idx] > avg {
            self.contended_atomics += 1;
        }
        self.channels[idx] += channel_ns * self.occupancy;
    }

    /// The busiest atomic channel (the launch's atomic-throughput bound), ns.
    pub fn max_channel_ns(&self) -> f64 {
        self.channels.iter().fold(0.0, |a, &b| a.max(b))
    }

    /// Advances the crash clock by one store; returns `true` if the store
    /// should still take effect (no crash yet).
    #[inline]
    pub fn store_tick(&mut self) -> bool {
        if self.crashed {
            return false;
        }
        self.stores_seen += 1;
        if let Some(limit) = self.crash_after_stores {
            if self.stores_seen > limit {
                self.crashed = true;
                return false;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state() -> DeviceState {
        // Saturated occupancy (grid >= SMs * blocks/SM) so channel costs
        // are charged at the full service rate in these tests.
        DeviceState::new(&DeviceConfig::test_gpu(), 1000, 128)
    }

    #[test]
    fn concurrency_clamped_by_occupancy() {
        let cfg = DeviceConfig::test_gpu(); // 4 SMs * 8 blocks
        let s = DeviceState::new(&cfg, 1000, 128);
        assert_eq!(s.concurrency, 32);
        let s = DeviceState::new(&cfg, 10, 128);
        assert_eq!(s.concurrency, 10);
    }

    #[test]
    fn hot_address_serialises_on_one_channel() {
        let mut s = state();
        for _ in 0..100 {
            s.record_atomic(0x1000, 4.0);
        }
        assert!((s.max_channel_ns() - 400.0).abs() < 1e-9);
    }

    #[test]
    fn spread_addresses_balance_channels() {
        let mut s = state();
        for i in 0..6400u64 {
            s.record_atomic(i * 128, 4.0);
        }
        // 6400 atomics over 64 channels = 100 each.
        assert!((s.max_channel_ns() - 400.0).abs() < 1e-9);
    }

    #[test]
    fn crash_clock_fires_once() {
        let mut s = state();
        s.crash_after_stores = Some(2);
        assert!(s.store_tick());
        assert!(s.store_tick());
        assert!(!s.store_tick());
        assert!(s.crashed);
        assert!(!s.store_tick());
    }

    #[test]
    fn no_crash_without_limit() {
        let mut s = state();
        for _ in 0..1000 {
            assert!(s.store_tick());
        }
        assert!(!s.crashed);
    }
}
