//! The common contract all benchmark workloads implement.

use gpu_lp::{LpRuntime, Recoverable};
use nvm::PersistMemory;
use serde::{Deserialize, Serialize};
use simt::{Gpu, LaunchConfig};

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
/// verification. It carries no name: its [`crate::Subject`] row names it.
///
/// Lifecycle: `setup(&mut mem)` (once), `warm_up(&gpu, &mut mem)`, then any
/// number of `kernel(lp)`-launches; `verify(&mut mem)` checks the device
/// output against the CPU reference. [`crate::stage`] runs the first two
/// and everything else a measured launch needs. A run that must start from
/// a fresh output region stages a fresh instance.
pub trait Workload {
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

    /// Bytes of persistent payload the kernel produces (the denominator of
    /// Table V's space-overhead column).
    fn payload_bytes(&self) -> u64;

    /// Checks the device output against the CPU reference.
    fn verify(&self, mem: &mut PersistMemory) -> bool;
}
