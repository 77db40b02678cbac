//! The common contract all benchmark workloads implement.

use gpu_lp::{LpKernel, LpRuntime, Recoverable, Region};
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

/// A benchmark workload: input generation, its kernel and verification.
/// The kernel is the workload itself, one [`Region`] (body, launch
/// geometry, read-back) that [`LpKernel`] runs bare or under an LP runtime.
/// It carries no name of its own: its [`crate::Subject`] row names it, and
/// [`Region::name`] is the kernel name `LaunchStats` reports.
///
/// Lifecycle: `setup(&mut mem)` (once), `warm_up(&gpu, &mut mem)`, then any
/// number of `kernel(lp)`-launches; `verify(&mut mem)` checks the device
/// output against the CPU reference. [`crate::stage`] runs the first two
/// and everything else a measured launch needs. A run that must start from
/// a fresh output region stages a fresh instance. [`Region::config`] is a
/// function of the constructor's arguments alone, so it is valid before
/// `setup` too.
pub trait Workload: Region {
    /// Allocates and writes the input and output regions into `mem`, then
    /// flushes (inputs are durable, like data loaded from a file). Must be
    /// called exactly once before `kernel`.
    fn setup(&mut self, mem: &mut PersistMemory);

    /// Brings device state to where the measured launch starts from, after
    /// `setup` and before the LP runtime exists. Only MEGA-KV's search and
    /// delete batches need it (they run against a populated, durable
    /// store); the default does nothing.
    fn warm_up(&self, _gpu: &Gpu, _mem: &mut PersistMemory) {}

    /// Launch geometry: [`Region::config`]. It and [`Workload::kernel`]
    /// are written once here and overridden by no workload; they remain
    /// because the benchmark harness calls both.
    fn launch_config(&self) -> LaunchConfig {
        self.config()
    }

    /// The workload's region under [`LpKernel`]: a launchable kernel that
    /// recovery reads back. `lp = None` is the uninstrumented baseline;
    /// `lp = Some(rt)` routes every persistent store through an
    /// [`gpu_lp::LpBlockSession`].
    fn kernel<'a>(&'a self, lp: Option<&'a LpRuntime>) -> Box<dyn Recoverable + 'a> {
        Box::new(LpKernel::new(self, lp))
    }

    /// Bytes of persistent payload the kernel produces (the denominator of
    /// Table V's space-overhead column).
    fn payload_bytes(&self) -> u64;

    /// Checks the device output against the CPU reference.
    fn verify(&self, mem: &mut PersistMemory) -> bool;
}
