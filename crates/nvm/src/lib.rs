//! Byte-addressable non-volatile memory (NVM) model with a volatile
//! write-back cache in front of it.
//!
//! This crate is the persistence substrate for the Lazy Persistency (LP)
//! reproduction. Its job is to model the one property LP cares about:
//! **stores become durable only when their cache line is written back to the
//! NVM**, either by natural eviction or by an explicit flush. A crash discards
//! everything still sitting in the volatile cache.
//!
//! The model is deliberately architectural rather than cycle-accurate: it
//! tracks *which bytes are durable*, *how many NVM reads/writes happened*
//! (for the paper's write-amplification study, §VII-3), and charges latency
//! and bandwidth numbers that the GPU simulator folds into its timing model.
//!
//! # Host runs
//!
//! Host-side readers (audits, verifiers, downloads) that walk an array use
//! [`PersistMemory::scan_u64`] / [`PersistMemory::scan_u32`] rather than a
//! loop of typed reads. A run books exactly what that loop would — every
//! [`NvmStats`] counter, the LRU order, every fill and fault roll — but
//! only the first word in each cache line pays for the bounds check, the
//! quarantine remap and the cache lookup.
//!
//! # Quick example
//!
//! ```
//! use nvm::{NvmConfig, PersistMemory};
//!
//! let mut mem = PersistMemory::new(NvmConfig::default());
//! let a = mem.alloc(16, 8);
//! mem.write_u64(a, 42);
//! assert_eq!(mem.read_u64(a), 42);
//! // The write is still volatile: a crash loses it.
//! mem.crash();
//! assert_eq!(mem.read_u64(a), 0);
//! // After a flush it survives crashes.
//! mem.write_u64(a, 42);
//! mem.flush_all();
//! mem.crash();
//! assert_eq!(mem.read_u64(a), 42);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod alloc;
mod cache;
#[cfg(test)]
mod cache_reference;
mod config;
mod fault;
mod memory;
#[cfg(test)]
mod scan_props;
mod stats;

pub use alloc::{Addr, BumpAllocator};
pub use config::NvmConfig;
pub use fault::{splitmix64, DeviceFaults, FaultConfig, FaultModel, FlushOutcome};
pub use memory::{CrashLoss, LostLine, PersistMemory};
pub use stats::NvmStats;
