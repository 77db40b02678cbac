//! The common contract all benchmark workloads implement.

use gpu_lp::{LpRuntime, Recoverable};
use nvm::PersistMemory;
use serde::{Deserialize, Serialize};
use simt::{Gpu, LaunchConfig};

/// The performance bottleneck class of a benchmark (Table I).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Bottleneck {
    /// Limited by instruction throughput.
    InstThroughput,
    /// Limited by memory bandwidth.
    Bandwidth,
    /// Not classified by the prior study.
    Unknown,
}

/// Static facts about a benchmark (Table I + Table III's block counts).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WorkloadInfo {
    /// Benchmark name as used in the paper's tables.
    pub name: &'static str,
    /// Originating suite.
    pub suite: &'static str,
    /// Bottleneck classification.
    pub bottleneck: Bottleneck,
    /// Thread-block count reported in the paper's Table III.
    pub paper_blocks: u64,
}

/// Problem-size preset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Scale {
    /// Tiny inputs for unit and integration tests (sub-second runs).
    Test,
    /// Harness scale: block counts preserve the paper's ordering while the
    /// simulation stays CPU-friendly; used to regenerate the tables.
    Bench,
    /// The paper's Table III block counts (slow; for targeted runs).
    Paper,
}

/// A benchmark workload: input generation, kernel construction, and
/// verification.
///
/// Lifecycle: `setup(&mut mem)` (once), `warm_up(&gpu, &mut mem)`, then any
/// number of `kernel(lp)`-launches; `verify(&mut mem)` checks the device
/// output against the CPU reference. [`crate::stage`] runs the first two
/// and everything else a measured launch needs. Between repeated launches
/// callers reset the output region with [`Workload::reset_output`] so runs
/// are independent.
pub trait Workload {
    /// Static description.
    fn info(&self) -> WorkloadInfo;

    /// Allocates and writes the input and output regions into `mem`, then
    /// flushes (inputs are durable, like data loaded from a file). Must be
    /// called exactly once before `kernel`.
    fn setup(&mut self, mem: &mut PersistMemory);

    /// Brings device state to where the measured launch starts from, after
    /// `setup` and before the LP runtime exists. Only MEGA-KV's search and
    /// delete batches need it (they run against a populated, durable
    /// store); the default does nothing.
    fn warm_up(&self, _gpu: &Gpu, _mem: &mut PersistMemory) {}

    /// Launch geometry: a function of the constructor's arguments alone,
    /// so it is valid before `setup` too.
    fn launch_config(&self) -> LaunchConfig;

    /// Builds the kernel (a [`simt::Kernel`] that can also recompute its
    /// per-block checksums for recovery). `lp = None` is the uninstrumented
    /// baseline; `lp = Some(rt)` routes every persistent store through an
    /// [`gpu_lp::LpBlockSession`].
    fn kernel<'a>(&'a self, lp: Option<&'a LpRuntime>) -> Box<dyn Recoverable + 'a>;

    /// Zeroes the output region (for back-to-back measurement runs).
    fn reset_output(&self, mem: &mut PersistMemory);

    /// Bytes of persistent payload the kernel produces (the denominator of
    /// Table V's space-overhead column).
    fn payload_bytes(&self) -> u64;

    /// Checks the device output against the CPU reference.
    fn verify(&self, mem: &mut PersistMemory) -> bool;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn info_is_serialisable() {
        let info = WorkloadInfo {
            name: "TMM",
            suite: "tiled-mm",
            bottleneck: Bottleneck::InstThroughput,
            paper_blocks: 16384,
        };
        let s = serde_json::to_string(&info).unwrap();
        assert!(s.contains("TMM"));
    }
}
