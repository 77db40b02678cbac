//! The [`PersistencyBackend`] trait and its supporting vocabulary types.

use nvm::Addr;
use serde::{Deserialize, Serialize};
use simt::BlockCtx;

/// The four persistency models the simulator can run a launch under.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum BackendKind {
    /// Lazy Persistency with checksums (the paper; the default).
    #[default]
    LpChecksum,
    /// Eager Persistency: flush-per-store + persist barrier + commit token.
    Eager,
    /// Strict/epoch persistency: `__threadfence`-class fences close epochs
    /// by pushing dirtied lines into the ADR-backed memory queue.
    Epoch,
    /// SBRP-style buffered release persistency: per-SM + L2-level persist
    /// buffers that a region commit's device-scope release drains.
    Sbrp,
    /// Adaptive: a policy engine picks one of the fixed disciplines per
    /// region at runtime (and may change its mind between launches). Not
    /// part of [`BackendKind::ALL`] — it is a meta-policy over the fixed
    /// spectrum, not a fifth point on it.
    Adaptive,
}

impl BackendKind {
    /// Every *fixed* backend, in sweep order ([`BackendKind::Adaptive`] is
    /// a meta-policy over these and is deliberately excluded).
    pub const ALL: [BackendKind; 4] = [
        BackendKind::LpChecksum,
        BackendKind::Eager,
        BackendKind::Epoch,
        BackendKind::Sbrp,
    ];

    /// Short stable name (CLI flag value, report row label).
    pub fn name(self) -> &'static str {
        match self {
            BackendKind::LpChecksum => "lp",
            BackendKind::Eager => "eager",
            BackendKind::Epoch => "epoch",
            BackendKind::Sbrp => "sbrp",
            BackendKind::Adaptive => "adaptive",
        }
    }
}

impl std::fmt::Display for BackendKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for BackendKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "lp" | "lp-checksum" | "lazy" => Ok(BackendKind::LpChecksum),
            "eager" => Ok(BackendKind::Eager),
            "epoch" | "strict" => Ok(BackendKind::Epoch),
            "sbrp" => Ok(BackendKind::Sbrp),
            "adaptive" | "auto" => Ok(BackendKind::Adaptive),
            other => Err(format!(
                "unknown backend {other:?} (lp|eager|epoch|sbrp|adaptive)"
            )),
        }
    }
}

// The vendored serde derive has no `rename` support, so spell the impls out:
// a kind serialises as its short CLI name and parses back through `FromStr`
// (accepting the aliases too).
impl Serialize for BackendKind {
    fn to_value(&self) -> serde::Value {
        serde::Value::Str(self.name().to_string())
    }
}

impl Deserialize for BackendKind {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let s = v
            .as_str()
            .ok_or_else(|| serde::Error::custom("expected backend name string"))?;
        s.parse().map_err(serde::Error::custom)
    }
}

/// What a backend promises about crash-time durability — the contract the
/// fault campaign's oracles judge each model by.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DurabilityContract {
    /// Which backend this contract describes.
    pub kind: BackendKind,
    /// Post-crash validation recomputes checksums over the data (LP). When
    /// `false`, validation only checks commit-token presence.
    pub checksum_validated: bool,
    /// A region that finished `finalize` left a durable commit token, so a
    /// surviving token proves the region's data persisted first.
    pub commit_token_durable: bool,
    /// Stores may sit in a volatile window (cache or persist buffer) after
    /// the issuing instruction retires; a crash inside that window loses
    /// them (and the model is expected to recover, not to have prevented
    /// the loss).
    pub buffered_window: bool,
    /// One-line human summary for reports and docs.
    pub summary: &'static str,
}

impl DurabilityContract {
    /// The contract for `kind`, without constructing a backend — the
    /// single source of truth every [`PersistencyBackend::contract`]
    /// implementation delegates to, and the introspection surface the
    /// static persist-order verifier (`lp-directive`) reasons from.
    pub fn of(kind: BackendKind) -> DurabilityContract {
        match kind {
            BackendKind::LpChecksum => DurabilityContract {
                kind,
                checksum_validated: true,
                commit_token_durable: false,
                buffered_window: true,
                summary: "no persist instructions; durability via natural eviction, \
                          crash consistency via checksum validation + re-execution",
            },
            BackendKind::Eager => DurabilityContract {
                kind,
                checksum_validated: false,
                commit_token_durable: true,
                buffered_window: false,
                summary: "clwb per store (or per line at commit), persist barrier, \
                          durable commit token; a surviving token proves the data",
            },
            BackendKind::Epoch => DurabilityContract {
                kind,
                checksum_validated: false,
                commit_token_durable: true,
                buffered_window: true,
                summary: "stores buffer within an epoch; a threadfence pushes the \
                          epoch's lines into the ADR memory queue (= durable)",
            },
            BackendKind::Sbrp => DurabilityContract {
                kind,
                checksum_validated: false,
                commit_token_durable: true,
                buffered_window: true,
                summary: "persists buffer in per-SM and L2-level persist buffers; \
                          a region commit's device-scope release drains them; \
                          buffered-but-undrained persists do not survive a crash",
            },
            BackendKind::Adaptive => DurabilityContract {
                kind,
                checksum_validated: true,
                commit_token_durable: false,
                buffered_window: true,
                summary: "per-region policy engine over the fixed spectrum; \
                          mode switches journalled for crash consistency, \
                          checksum validation at both ends of the ladder",
            },
        }
    }

    /// The *durability point* this contract orders persistent stores
    /// against — what the static persist-order lattice checks each store
    /// reaches in order. Purely descriptive (diagnostics, reports).
    pub fn durability_point(&self) -> &'static str {
        match self.kind {
            BackendKind::LpChecksum => "checksum fold",
            BackendKind::Eager => "commit-token publication",
            BackendKind::Epoch => "epoch-closing fence",
            BackendKind::Sbrp => "release-scope drain",
            BackendKind::Adaptive => "journalled per-region durability point",
        }
    }
}

/// Per-block persistency actions for one region, created by
/// [`PersistencyBackend::begin_block`] and driven by the LP runtime's
/// block session. Implementations charge their costs through the
/// [`BlockCtx`] they are handed, exactly like kernel code does.
pub trait BlockPersistSession: std::fmt::Debug + Send {
    /// Hook after a protected store to `addr`. Returns `true` iff this is
    /// the first store of the region touching `addr`'s cache line.
    fn on_store(&mut self, ctx: &mut BlockCtx<'_>, addr: Addr) -> bool;

    /// Region commit: make every protected store of the region durable per
    /// the model's contract. Runs after the kernel's last protected store
    /// and before the commit token is published.
    fn commit(&mut self, ctx: &mut BlockCtx<'_>);

    /// Persists the just-published commit token at `addr` (`None` when the
    /// table organisation has no stable per-region entry address).
    fn persist_token(&mut self, ctx: &mut BlockCtx<'_>, addr: Option<Addr>);
}

/// A persistency model: how protected stores become durable and what a
/// crash may take. One backend serves a whole launch; per-block state lives
/// in the [`BlockPersistSession`]s it creates.
pub trait PersistencyBackend: std::fmt::Debug + Send + Sync {
    /// The durability contract crash oracles judge this model by.
    fn contract(&self) -> DurabilityContract;

    /// Opens the per-block session for region `block`.
    fn begin_block(&self, block: u64) -> Box<dyn BlockPersistSession>;

    /// A boxed copy of this backend. Every backend is plain `Copy` data
    /// (its per-block state lives in the sessions), so a runtime that owns
    /// one boxed can be cloned.
    fn boxed(&self) -> Box<dyn PersistencyBackend>;

    /// Byte range `(base, len)` of device memory holding the model's own
    /// *transient* state, consumed within the region that writes it (the
    /// logged-eager undo log). Crash-loss oracles exclude it when
    /// attributing lost lines to blocks.
    fn transient_range(&self) -> Option<(u64, u64)> {
        None
    }
}

impl Clone for Box<dyn PersistencyBackend> {
    fn clone(&self) -> Self {
        self.boxed()
    }
}

/// The do-nothing session (LP: no persist instructions, ever).
#[derive(Debug)]
pub(crate) struct NoopSession;

impl BlockPersistSession for NoopSession {
    fn on_store(&mut self, _ctx: &mut BlockCtx<'_>, _addr: Addr) -> bool {
        false
    }

    fn commit(&mut self, _ctx: &mut BlockCtx<'_>) {}

    fn persist_token(&mut self, _ctx: &mut BlockCtx<'_>, _addr: Option<Addr>) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::str::FromStr;

    #[test]
    fn kind_names_roundtrip() {
        for kind in BackendKind::ALL {
            assert_eq!(BackendKind::from_str(kind.name()).unwrap(), kind);
            assert_eq!(kind.to_string(), kind.name());
        }
        assert_eq!(
            BackendKind::from_str("lazy").unwrap(),
            BackendKind::LpChecksum
        );
        assert_eq!(BackendKind::from_str("STRICT").unwrap(), BackendKind::Epoch);
        assert!(BackendKind::from_str("nope").is_err());
    }

    #[test]
    fn adaptive_is_parseable_but_not_in_the_fixed_sweep() {
        assert_eq!(
            BackendKind::from_str("adaptive").unwrap(),
            BackendKind::Adaptive
        );
        assert_eq!(BackendKind::Adaptive.name(), "adaptive");
        assert_eq!(
            BackendKind::from_str(BackendKind::Adaptive.name()).unwrap(),
            BackendKind::Adaptive
        );
        assert!(!BackendKind::ALL.contains(&BackendKind::Adaptive));
        let j = serde_json::to_string(&BackendKind::Adaptive).unwrap();
        assert_eq!(j, "\"adaptive\"");
        let back: BackendKind = serde_json::from_str(&j).unwrap();
        assert_eq!(back, BackendKind::Adaptive);
    }

    #[test]
    fn kind_serde_uses_short_names_and_defaults_to_lp() {
        let j = serde_json::to_string(&BackendKind::LpChecksum).unwrap();
        assert_eq!(j, "\"lp\"");
        for kind in BackendKind::ALL {
            let j = serde_json::to_string(&kind).unwrap();
            let back: BackendKind = serde_json::from_str(&j).unwrap();
            assert_eq!(back, kind);
        }
        assert_eq!(BackendKind::default(), BackendKind::LpChecksum);
    }
}
