//! Device geometry and the analytic cost model.

use serde::{Deserialize, Serialize};

/// Geometry and clock of the simulated GPU.
///
/// The default preset models a Tesla V100 (Volta), the paper's testbed:
/// 80 SMs, 64 FP32 lanes per SM, ~1.38 GHz. Warps are always
/// [`crate::warp::WARP_SIZE`] (32) threads wide.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeviceConfig {
    /// Number of streaming multiprocessors.
    pub num_sms: u32,
    /// Maximum thread blocks resident on one SM at a time.
    pub max_blocks_per_sm: u32,
    /// Parallel execution lanes per SM (FP32 cores on Volta: 64).
    pub sm_width: u32,
    /// Core clock in GHz.
    pub clock_ghz: f64,
    /// Number of independent memory channels servicing atomics.
    pub atomic_channels: u32,
    /// Global-memory bandwidth in GB/s seen by the cores. The testbed is
    /// DRAM-based (900 GB/s HBM2); the NVM mode lowers this to 326.4 GB/s.
    pub mem_bandwidth_gbps: f64,
    /// Cost table for individual operations.
    pub cost: CostModel,
}

impl DeviceConfig {
    /// Tesla V100 preset (the paper's characterization testbed, §III-A).
    pub fn v100() -> Self {
        Self {
            num_sms: 80,
            max_blocks_per_sm: 32,
            sm_width: 64,
            clock_ghz: 1.38,
            atomic_channels: 64,
            mem_bandwidth_gbps: 900.0,
            cost: CostModel::default(),
        }
    }

    /// V100 with NVM-grade memory (326.4 GB/s), the §VII-3 configuration.
    pub fn v100_nvm() -> Self {
        Self {
            mem_bandwidth_gbps: 326.4,
            ..Self::v100()
        }
    }

    /// A small device for fast unit tests (4 SMs).
    pub fn test_gpu() -> Self {
        Self {
            num_sms: 4,
            max_blocks_per_sm: 8,
            ..Self::v100()
        }
    }

    /// Number of thread blocks that can execute concurrently device-wide.
    /// This is the contention level seen by locks and hot atomics.
    pub fn max_concurrent_blocks(&self) -> u64 {
        self.num_sms as u64 * self.max_blocks_per_sm as u64
    }

    /// Converts core cycles to nanoseconds.
    pub fn cycles_to_ns(&self, cycles: f64) -> f64 {
        cycles / self.clock_ghz
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid field: zero geometry, a
    /// clock or bandwidth that is not finite and positive, or a cost entry
    /// that is not finite and non-negative.
    pub fn validate(&self) -> Result<(), String> {
        if self.num_sms == 0 || self.sm_width == 0 {
            return Err("device geometry must be non-zero".into());
        }
        if self.max_blocks_per_sm == 0 || self.atomic_channels == 0 {
            return Err("occupancy/channel limits must be non-zero".into());
        }
        let positive = |x: f64| x.is_finite() && x > 0.0;
        if !positive(self.clock_ghz) || !positive(self.mem_bandwidth_gbps) {
            return Err("clock and bandwidth must be finite and positive".into());
        }
        let c = &self.cost;
        let entries = [
            c.alu,
            c.shuffle_step,
            c.shmem_access,
            c.global_access,
            c.atomic_op,
            c.barrier,
            c.atomic_channel_ns,
            c.lock_handoff_ns,
            c.launch_overhead_ns,
            c.persist_barrier_ns,
            c.epoch_fence_ns,
            c.buffer_drain_ns,
        ];
        if entries.iter().any(|x| !x.is_finite() || *x < 0.0) {
            return Err("cost entries must be finite and non-negative".into());
        }
        Ok(())
    }
}

impl Default for DeviceConfig {
    fn default() -> Self {
        Self::v100()
    }
}

/// Per-operation costs in core cycles (per thread unless noted).
///
/// These are *relative* costs — the experiments all report overhead ratios,
/// so only the proportions matter. The values are rough V100 figures:
/// single-cycle ALU, a few cycles for shared memory and shuffles, tens of
/// cycles (amortised, coalesced) for global memory, and more for atomics.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CostModel {
    /// One arithmetic/logic instruction.
    pub alu: f64,
    /// One warp-shuffle step (`__shfl_down_sync`), per participating lane.
    pub shuffle_step: f64,
    /// One shared-memory access.
    pub shmem_access: f64,
    /// One global-memory access (amortised per thread assuming warp
    /// coalescing; the bandwidth floor handles volume effects).
    pub global_access: f64,
    /// One global atomic operation, uncontended.
    pub atomic_op: f64,
    /// `__syncthreads()` cost per thread.
    pub barrier: f64,
    /// Nanoseconds an atomic occupies its memory channel (throughput term).
    /// Calibrated high enough to reflect contended-partition service time —
    /// the mechanism behind the hash-table blow-ups of Fig. 5.
    pub atomic_channel_ns: f64,
    /// Extra serialisation nanoseconds per *contending* concurrent block on
    /// a spin-lock handoff (cache-line ping-pong).
    pub lock_handoff_ns: f64,
    /// Cap on the contenders that can actually queue on a lock handoff
    /// (memory-system queue depth).
    pub lock_contender_cap: u64,
    /// Fixed nanoseconds per kernel launch.
    pub launch_overhead_ns: f64,
    /// Nanoseconds a persist barrier (`sfence`-equivalent) stalls a block
    /// while outstanding flushes drain to the NVM write queue. Used by the
    /// Eager Persistency baseline; LP never issues one.
    pub persist_barrier_ns: f64,
    /// Nanoseconds a `__threadfence`-class epoch fence stalls a block.
    /// Cheaper than a persist barrier: it only orders stores into the
    /// (ADR-backed) memory queue instead of draining them to the device.
    /// Used by the epoch and SBRP persistency backends; LP never issues one.
    pub epoch_fence_ns: f64,
    /// Nanoseconds to move one entry out of a hardware persist buffer
    /// (SM-level or L2-level). The SBRP backend charges this per drained
    /// line; it is the price of buffering persists off the critical path.
    pub buffer_drain_ns: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        Self {
            alu: 1.0,
            shuffle_step: 2.0,
            shmem_access: 2.0,
            global_access: 12.0,
            atomic_op: 30.0,
            barrier: 8.0,
            atomic_channel_ns: 80.0,
            lock_handoff_ns: 2.0,
            lock_contender_cap: 64,
            launch_overhead_ns: 3000.0,
            persist_barrier_ns: 480.0,
            epoch_fence_ns: 160.0,
            buffer_drain_ns: 60.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_valid() {
        DeviceConfig::v100().validate().unwrap();
        DeviceConfig::v100_nvm().validate().unwrap();
        DeviceConfig::test_gpu().validate().unwrap();
    }

    #[test]
    fn nvm_mode_lowers_bandwidth() {
        assert!(
            DeviceConfig::v100_nvm().mem_bandwidth_gbps < DeviceConfig::v100().mem_bandwidth_gbps
        );
    }

    #[test]
    fn concurrency_product() {
        let d = DeviceConfig::v100();
        assert_eq!(d.max_concurrent_blocks(), 80 * 32);
    }

    #[test]
    fn cycles_to_ns_uses_clock() {
        let d = DeviceConfig {
            clock_ghz: 2.0,
            ..DeviceConfig::v100()
        };
        assert_eq!(d.cycles_to_ns(100.0), 50.0);
    }

    #[test]
    fn invalid_configs_rejected() {
        let mut d = DeviceConfig::v100();
        d.num_sms = 0;
        assert!(d.validate().is_err());
        let mut d = DeviceConfig::v100();
        d.clock_ghz = 0.0;
        assert!(d.validate().is_err());
        let mut d = DeviceConfig::v100();
        d.clock_ghz = f64::NAN;
        assert!(d.validate().is_err());
        let mut d = DeviceConfig::v100();
        d.mem_bandwidth_gbps = f64::INFINITY;
        assert!(d.validate().is_err());
        let mut d = DeviceConfig::v100();
        d.cost.atomic_op = -1.0;
        assert!(d.validate().is_err());
    }
}
