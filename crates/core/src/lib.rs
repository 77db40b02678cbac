//! `gpu-lp` — the Lazy Persistency (LP) runtime for GPUs.
//!
//! This crate implements the core contribution of *"Scalable and Fast Lazy
//! Persistency on GPUs"* (IISWC 2020): crash recoverability for GPU kernels
//! **without any persist instructions**. Each thread block is an LP region;
//! its stores are summarised by one or more checksums; the checksums are
//! published to a *checksum table* in persistent memory. After a crash,
//! a validation pass recomputes every block's checksums from the (partially
//! persisted) data and re-executes exactly the blocks whose checksums do not
//! match — the rest persisted on their own through natural cache eviction.
//!
//! The crate covers the paper's full design space:
//!
//! * [`checksum`] — parity / modular / Adler-32 checksums, simultaneous
//!   checksum sets, and the float → integer store image (Fig. 2);
//! * [`reduce`] — block-level checksum reduction, either the
//!   warp-shuffle tree of Listings 3–4 or the sequential through-memory
//!   fallback (the Table IV ablation);
//! * [`table`] — checksum-table organisations: quadratic probing, cuckoo
//!   hashing (§IV-C), and the collision-free **checksum global array**
//!   (§V, the paper's headline design), with lock-free / lock-based and
//!   atomic / racy variants for the Table III and §IV-D3 ablations;
//! * [`region`] — the per-launch runtime ([`LpRuntime`]), the per-block
//!   instrumentation session ([`LpBlockSession`]) a region body protects
//!   its stores with, and [`LpKernel`], which turns a [`Region`] (body +
//!   read-back) into a protected, recoverable kernel;
//! * [`recovery`] — post-crash validation and re-execution, hardened for
//!   faulty devices (retry, quarantine, degraded mode).
//!
//! Beyond LP itself, [`region`] routes every region commit through the
//! [`lp_persist`] crate's [`PersistencyBackend`] trait, so the same kernels
//! also run under eager flush-per-store, strict/epoch, and SBRP-style
//! scoped buffered persistency (the vocabulary types are re-exported here).
//!
//! # End-to-end shape
//!
//! ```text
//! setup:    LpRuntime::setup(&mut mem, blocks, tpb, config)  // tables allocated
//! region:   impl Region for MyKernel {
//!               fn run_region(&self, ctx, lp) {
//!                   ... lp.store_f32(ctx, t, addr, v); ...   // store + checksum
//!               }
//!               fn region_images(&self, mem, block, images) {
//!                   read_back_images::<1, 4>(mem, [out], n, images); // append
//!               }
//!           }
//! kernel:   let kernel = LpKernel::new(MyKernel { .. }, Some(&rt));
//!           // each block: reset → run_region → reduce + publish
//! crash:    gpu.launch_with_plan(&kernel, .., CrashPlan::after_stores(n))
//! recover:  ResilientRecovery::new(&gpu).recover(&kernel, &rt, &mut mem)
//!           // each block: read back into rt's buffer → digest → compare
//! ```
//!
//! See `lpgpu`'s `examples/quickstart.rs` for the runnable version.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checkpoint;
pub mod checksum;
pub mod recovery;
pub mod reduce;
pub mod region;
pub mod table;

pub use checksum::{ChecksumKind, ChecksumSet, MAX_CHECKSUMS};
pub use lp_persist::{
    BackendKind, BlockPersistSession, DurabilityContract, EagerFlushPolicy, PersistencyBackend,
};
pub use lp_policy::{
    JournalRecord, PolicyConfig, PolicyEngine, PolicyJournal, PolicyMode, RegionSignals,
    SwitchEvent,
};
pub use recovery::{
    Recoverable, ReentrantOutcome, RegionVerdict, ResilientRecovery, ResilientReport,
};
pub use reduce::ReduceStrategy;
pub use region::{LpBlockSession, LpConfig, LpKernel, LpRuntime, Region};
pub use table::{AtomicPolicy, LockPolicy, TableKind, TableStats};
