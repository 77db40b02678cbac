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
//! tracks *which bytes are durable* and *how many NVM reads/writes happened*
//! (for the paper's write-amplification study, §VII-3), and charges no time.
//! The paper's NVM timing acts in the GPU simulator's cost model instead:
//! `simt::DeviceConfig::v100_nvm` lowers memory bandwidth to 326.4 GB/s, and
//! `simt::CostModel::{persist_barrier_ns, epoch_fence_ns}` (480 / 160 ns)
//! price the backends' persist barriers and epoch fences.
//!
//! # Runs
//!
//! Code that walks an array uses a run accessor rather than a loop of typed
//! accesses: [`PersistMemory::scan_u64`] / [`PersistMemory::scan_u32`] for
//! strided reads that may stop early (audits, verifiers, downloads, key
//! lookups), [`PersistMemory::read_runs`] for several contiguous streams
//! read in lockstep (recovery read-backs, a kernel's global→shared
//! staging), and [`PersistMemory::write_run_u32`] /
//! [`PersistMemory::write_run_u64`] for contiguous stores (uploads,
//! manifest records). The readers are thin callers of one read loop, the
//! stores of one write loop. A run books exactly what the typed loop would
//! — every [`NvmStats`] counter, the LRU order, every fill, eviction and
//! fault roll, writer tags, crash triggers and dropped stores — but only
//! the first word in each cache line pays for the bounds check, the
//! quarantine remap and the cache lookup or miss. The line's later words
//! are copied straight from it and booked together: `k` ticks and hits,
//! `k` load or store ops, and one LRU stamp with the last tick. That is
//! exact because hits inside an open line never change cache structure; a
//! miss can evict and move ways, so it closes every open line. A read run
//! that stops books only the words it handed out, and settles every
//! deferred stamp before it returns.
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
mod stats;

pub use alloc::{Addr, BumpAllocator};
pub use config::NvmConfig;
pub use fault::{splitmix64, DeviceFaults, FaultConfig, FaultModel, FlushOutcome};
pub use memory::{CrashLoss, LostLine, PersistMemory};
pub use stats::NvmStats;
