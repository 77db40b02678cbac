//! Isolating the `nvm` layer's share of a launch from outside.
//!
//! A launch interleaves `simt` (block contexts, cost accounting, kernel
//! bodies) with `nvm` (cache lookups, fills, evictions). Nothing inside
//! either crate is instrumented yet, so the split is measured by recording
//! the launch's global-access stream through the public observer hook and
//! replaying that stream alone into an identically prepared
//! `PersistMemory`. The replay is trusted only when the `NvmStats` it
//! produces equal the launch's, field for field.

use nvm::{Addr, NvmStats, PersistMemory};
use simt::{AccessKind, AccessObserver};
use std::time::Instant;

/// One recorded event, packed: `addr << 3 | wide << 2 | kind`, where `kind`
/// is 0 load / 1 store / 2 atomic, or 3 for "block `addr` begins".
#[derive(Debug, Default)]
pub struct Recorder {
    events: Vec<u64>,
}

const KIND_BLOCK: u64 = 3;

impl AccessObserver for Recorder {
    fn on_block_begin(&mut self, block: u64) {
        self.events.push(block << 3 | KIND_BLOCK);
    }

    fn on_global_access(
        &mut self,
        _block: u64,
        _thread: u64,
        addr: u64,
        bytes: u64,
        kind: AccessKind,
        _locked: bool,
    ) {
        assert!(bytes == 4 || bytes == 8, "unexpected access width {bytes}");
        let kind = match kind {
            AccessKind::Load => 0,
            AccessKind::Store => 1,
            AccessKind::Atomic => 2,
        };
        self.events
            .push(addr << 3 | u64::from(bytes == 8) << 2 | kind);
    }
}

impl Recorder {
    /// Global accesses recorded (block markers excluded).
    pub fn accesses(&self) -> u64 {
        self.events.iter().filter(|&&e| e & 3 != KIND_BLOCK).count() as u64
    }

    /// Replays the stream into `mem` (prepared exactly as the recorded
    /// launch's memory was, statistics reset) and returns the seconds it
    /// took and the statistics it produced. Stored values are arbitrary:
    /// no statistic depends on them. An atomic is a read followed by a
    /// write, as `BlockCtx` issues it.
    pub fn replay(&self, mem: &mut PersistMemory) -> (f64, NvmStats) {
        let before = mem.stats();
        let t0 = Instant::now();
        for &e in &self.events {
            let payload = e >> 3;
            let wide = e & 4 != 0;
            match e & 3 {
                KIND_BLOCK => mem.set_writer(Some(payload)),
                0 => read(mem, Addr::new(payload), wide),
                1 => write(mem, Addr::new(payload), wide),
                _ => {
                    read(mem, Addr::new(payload), wide);
                    write(mem, Addr::new(payload), wide);
                }
            }
        }
        mem.set_writer(None);
        let secs = t0.elapsed().as_secs_f64();
        (secs, mem.stats() - before)
    }
}

fn read(mem: &mut PersistMemory, addr: Addr, wide: bool) {
    if wide {
        std::hint::black_box(mem.read_u64(addr));
    } else {
        std::hint::black_box(mem.read_u32(addr));
    }
}

fn write(mem: &mut PersistMemory, addr: Addr, wide: bool) {
    if wide {
        mem.write_u64(addr, 0);
    } else {
        mem.write_u32(addr, 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{small_cache, world};
    use gpu_lp::{LpConfig, LpRuntime};
    use lp_kernels::{workload_by_name, Scale, WORKLOAD_NAMES};

    /// The acceptance condition of every `nvm.replay_*` metric, on all
    /// eight kernels, on the eviction-heavy cache.
    #[test]
    fn replayed_stats_equal_launch_stats_for_all_eight_kernels() {
        for name in WORKLOAD_NAMES {
            let prepare = || {
                let (gpu, mut mem) = world(&small_cache());
                let mut w = workload_by_name(name, Scale::Test, 3).unwrap();
                w.setup(&mut mem);
                let lc = w.launch_config();
                let rt = LpRuntime::setup(
                    &mut mem,
                    lc.num_blocks(),
                    lc.threads_per_block(),
                    LpConfig::recommended(),
                );
                mem.flush_all();
                mem.reset_stats();
                (gpu, mem, w, rt)
            };
            let (gpu, mut mem, w, rt) = prepare();
            let mut rec = Recorder::default();
            let launch = gpu
                .launch_observed(w.kernel(Some(&rt)).as_ref(), &mut mem, &mut rec)
                .unwrap();
            let (_, mut fresh, _, _) = prepare();
            let (_, replayed) = rec.replay(&mut fresh);
            assert_eq!(replayed, launch.nvm, "{name}");
            assert!(rec.accesses() > 0, "{name}");
        }
    }
}
