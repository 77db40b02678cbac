//! A deterministic SIMT GPU execution and timing simulator.
//!
//! This crate stands in for the NVIDIA Tesla V100 used by the paper's
//! testbed (§III-A). It executes *real computation* — kernels are Rust code
//! running block-by-block against a [`nvm::PersistMemory`] — while charging
//! an analytic timing model that captures the four mechanisms the paper's
//! conclusions rest on:
//!
//! 1. **instruction throughput**: per-thread ALU/shuffle/shared-memory work,
//!    executed `sm_width` lanes at a time per SM;
//! 2. **memory bandwidth**: global-memory bytes moved bound the kernel from
//!    below (bandwidth-bound kernels: SPMV, SAD, HISTO);
//! 3. **atomic throughput and contention**: atomics serialise per memory
//!    channel, and hot addresses serialise harder;
//! 4. **lock serialisation**: critical sections under a global spin lock
//!    execute one block at a time, which is why lock-based LP collapses at
//!    high thread-block counts (Table III).
//!
//! Execution is fully deterministic: blocks run in flat-index order against
//! the cache model, so eviction (persistence) order and crash injection are
//! reproducible.
//!
//! # Example: a minimal kernel
//!
//! ```
//! use nvm::{NvmConfig, PersistMemory, Addr};
//! use simt::{BlockCtx, DeviceConfig, Gpu, Kernel, LaunchConfig};
//!
//! struct Fill { out: Addr, n: u64 }
//!
//! impl Kernel for Fill {
//!     fn name(&self) -> &str { "fill" }
//!     fn config(&self) -> LaunchConfig { LaunchConfig::linear(self.n, 64) }
//!     fn run_block(&self, ctx: &mut BlockCtx<'_>) {
//!         for t in 0..ctx.threads_per_block() {
//!             let gid = ctx.global_thread_id(t);
//!             if gid < self.n {
//!                 ctx.store_u64(self.out.index(gid, 8), gid * 3);
//!             }
//!         }
//!     }
//! }
//!
//! let mut mem = PersistMemory::new(NvmConfig::default());
//! let out = mem.alloc(8 * 256, 8);
//! let mut gpu = Gpu::new(DeviceConfig::v100());
//! let stats = gpu.launch(&Fill { out, n: 256 }, &mut mem).unwrap();
//! assert_eq!(mem.read_u64(out.index(255, 8)), 765);
//! assert!(stats.kernel_ns > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod block;
mod config;
mod device;
mod dim;
mod gpu;
mod kernel;
mod observe;
mod stats;
pub mod warp;

pub use block::{BlockCtx, ShmHandle};
pub use config::{CostModel, DeviceConfig};
pub use device::DeviceState;
pub use dim::{Dim3, LaunchConfig};
pub use gpu::{CrashPlan, Gpu, Launch, LaunchError, LaunchOutcome};
pub use kernel::Kernel;
pub use observe::{AccessKind, AccessObserver};
pub use stats::{BlockCost, LaunchStats};
