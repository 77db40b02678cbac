//! `lp-persist` — the persistency-model spectrum behind the LP runtime.
//!
//! The paper evaluates one point in the GPU persistency design space:
//! Lazy Persistency with checksums. This crate defines the
//! [`PersistencyBackend`] trait that abstracts *which* persistency model a
//! kernel launch runs under, plus four concrete backends spanning the
//! spectrum the literature compares LP against:
//!
//! * [`LpChecksumBackend`] — Lazy Persistency (the paper). The backend
//!   itself performs **no** persist actions: durability comes from natural
//!   cache eviction, and correctness from checksum validation +
//!   re-execution. All checksum math stays in the LP runtime.
//! * [`EagerBackend`] — Eager Persistency, the paper's §I/§II baseline:
//!   `clwb` per protected store (or, for the logged variant, one undo-log
//!   entry plus one commit-time write-back per dirtied line), persist
//!   barrier, durable commit token.
//! * [`EpochBackend`] — strict/epoch persistency in the style of *Exploring
//!   Memory Persistency Models for GPUs*: a region's stores accumulate in
//!   one epoch that the commit's `__threadfence`-class fence closes by
//!   pushing every dirtied line into the ADR-backed memory queue
//!   (acceptance = durability).
//! * [`SbrpBackend`] — SBRP-style buffered release persistency: a 64-entry
//!   per-SM (L1) persist buffer draining into a 1024-entry L2-level one,
//!   both drained into the ADR-backed memory queue by the device-scope
//!   release a region commit performs.
//!
//! LP issues no persist instructions, and the runtime drives every explicit
//! model only through a region's three session calls: `on_store` after each
//! protected store, `commit` after the last one, `persist_token` on the
//! published commit token ([`BlockPersistSession`]).
//!
//! Every backend produces the *same functional memory image* for a given
//! kernel — they differ only in durability timing and cost. That invariant
//! is what lets the whole benchmark suite, fault campaign, and sanitizer
//! run unmodified across the spectrum (and is property-tested in the
//! umbrella crate).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
pub mod eager;
pub mod epoch;
pub mod sbrp;

use backend::NoopSession;
pub use backend::{BackendKind, BlockPersistSession, DurabilityContract, PersistencyBackend};
pub use eager::{drain_line_with_retry, EagerBackend, EagerFlushPolicy, EagerSession};
pub use epoch::{EpochBackend, EpochSession};
pub use sbrp::{SbrpBackend, SbrpSession};

/// The LP-checksum backend: persistency by natural eviction, under the
/// two kinds whose contract is checksum validation.
///
/// Its sessions are deliberate no-ops — Lazy Persistency's whole point is
/// that the kernel issues *zero* persist instructions (§IV: current GPUs do
/// not even expose `clwb`). Durability is supplied by capacity evictions
/// and verified after a crash by checksum validation; both live in the LP
/// runtime, not here.
///
/// Under [`BackendKind::Adaptive`] a policy engine (the `lp-policy` crate,
/// driven by the LP runtime) picks one of the fixed disciplines per region:
/// this object is what the ladder's checksummed rungs (LP at the bottom,
/// checkpoint at the top) resolve to, and what gives the launch a kind and
/// a contract to report — every rung the ladder ends on under device
/// faults validates data by checksum, so the adaptive mode never waives
/// the recovery oracle.
#[derive(Debug, Clone, Copy)]
pub struct LpChecksumBackend(BackendKind);

impl PersistencyBackend for LpChecksumBackend {
    fn contract(&self) -> DurabilityContract {
        DurabilityContract::of(self.0)
    }

    fn boxed(&self) -> Box<dyn PersistencyBackend> {
        Box::new(*self)
    }

    fn begin_block(&self, _block: u64) -> Box<dyn BlockPersistSession> {
        Box::new(NoopSession)
    }
}

/// Constructs the backend for `kind` (strict per-store flushing for
/// [`BackendKind::Eager`]).
pub fn backend_for(kind: BackendKind) -> Box<dyn PersistencyBackend> {
    match kind {
        BackendKind::LpChecksum | BackendKind::Adaptive => Box::new(LpChecksumBackend(kind)),
        BackendKind::Eager => Box::new(EagerBackend::per_store()),
        BackendKind::Epoch => Box::new(EpochBackend),
        BackendKind::Sbrp => Box::new(SbrpBackend),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lp_backend_sessions_do_nothing() {
        use nvm::{NvmConfig, PersistMemory};
        use simt::{BlockCtx, DeviceConfig, DeviceState, LaunchConfig};
        let cfg = DeviceConfig::test_gpu();
        let mut mem = PersistMemory::new(NvmConfig::default());
        let mut dev = DeviceState::new(&cfg, 4, 128);
        let a = mem.alloc(128, 128);
        for kind in [BackendKind::LpChecksum, BackendKind::Adaptive] {
            let b = backend_for(kind);
            assert!(b.contract().checksum_validated, "{kind}");
            let mut s = b.begin_block(0);
            let lc = LaunchConfig::linear(4 * 64, 64);
            let mut ctx = BlockCtx::standalone(lc, 0, &mut mem, &mut dev, &cfg);
            ctx.store_u64(a, 1);
            assert!(!s.on_store(&mut ctx, a), "{kind}");
            s.commit(&mut ctx);
            s.persist_token(&mut ctx, Some(a));
            let _ = ctx.into_cost();
            assert_eq!(mem.dirty_lines(), 1, "{kind}: nothing persisted");
            assert_eq!(mem.stats().explicit_flushes + mem.stats().adr_accepts, 0);
        }
    }

    #[test]
    fn backend_for_covers_every_kind() {
        for kind in BackendKind::ALL {
            let b = backend_for(kind);
            assert_eq!(b.contract(), DurabilityContract::of(kind));
            assert_eq!(b.contract().kind, kind);
        }
    }

    #[test]
    fn contracts_differ_where_the_models_do() {
        // LP keeps a buffered window and validates with checksums; the
        // explicit backends persist a commit token instead.
        assert!(
            backend_for(BackendKind::LpChecksum)
                .contract()
                .checksum_validated
        );
        for kind in [BackendKind::Eager, BackendKind::Epoch, BackendKind::Sbrp] {
            let c = backend_for(kind).contract();
            assert!(!c.checksum_validated, "{kind}");
            assert!(c.commit_token_durable, "{kind}");
        }
        assert!(!backend_for(BackendKind::Eager).contract().buffered_window);
        assert!(backend_for(BackendKind::Sbrp).contract().buffered_window);
    }

    #[test]
    fn contract_of_matches_every_backend_instance() {
        // The kind-level introspection is the single source of truth:
        // constructing the backend must yield byte-identical contracts.
        for kind in BackendKind::ALL {
            assert_eq!(backend_for(kind).contract(), DurabilityContract::of(kind));
        }
        assert_eq!(
            backend_for(BackendKind::Adaptive).contract(),
            DurabilityContract::of(BackendKind::Adaptive)
        );
    }

    #[test]
    fn durability_points_are_distinct_per_fixed_kind() {
        let points: std::collections::BTreeSet<&str> = BackendKind::ALL
            .iter()
            .map(|k| DurabilityContract::of(*k).durability_point())
            .collect();
        assert_eq!(points.len(), BackendKind::ALL.len());
    }
}
