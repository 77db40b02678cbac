//! `megakv` — a batched, GPU-resident in-memory key-value store in the
//! style of MEGA-KV, the real-world application of the paper's §VII-4.
//!
//! Keys and values are 64-bit; the store is a bucketed open hash table in
//! device memory. Operations arrive in batches (the MEGA-KV pipeline
//! model): one GPU thread per operation, thread blocks of 256 operations.
//! One kernel, [`kernels::BatchKernel`], runs an insert, search or delete
//! batch ([`app::OpKind`]); it is an LP region that runs with Lazy
//! Persistency instrumentation under [`gpu_lp::LpKernel`], making the
//! store contents crash-recoverable without a single persist instruction.
//!
//! The paper reports LP overheads of 2.1 % (insert), 3.4 % (search) and
//! 5.2 % (delete) for 16 K-record batches with the global-array design;
//! `lp-bench`'s `megakv_overhead` binary regenerates that experiment.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod app;
pub mod batch;
pub mod kernels;
pub mod store;

pub use app::MegaKv;
pub use batch::Batch;
pub use store::KvStore;
