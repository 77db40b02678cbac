//! Thread- and block-dependence dataflow.
//!
//! A value is *thread-dependent* when it can differ between threads of one
//! block — the property that makes a branch divergent. The analysis is a
//! flow-insensitive taint fixpoint seeded at `threadIdx`:
//!
//! * **data flow** — a variable assigned from a tainted expression is
//!   tainted (`int i = threadIdx.x; int j = i * 2;` taints both);
//! * **control flow** — a variable assigned *under* a tainted guard is
//!   tainted, the implicit flow that makes loop-variant values under
//!   divergent trip counts come out right (`for (i = tid; …)` leaves the
//!   post-loop `i` thread-dependent even though the step `i = i + 1` is
//!   not).
//!
//! The taint set is a `BTreeSet` so every consumer that iterates it (and
//! every diagnostic derived from it) is deterministic across runs — part
//! of the repo-wide sorted-iteration audit for reproducible reports.
//!
//! The same machinery seeded at `blockIdx` computes *block-dependence*,
//! which LP013 uses to prove two blocks write the same address. Member
//! selectors never count as roots ([`value_identifiers`]), so a local
//! named `x` is not confused with the `.x` of `threadIdx.x`.

use super::cfg::{Cfg, NodeKind};
use crate::lexer::{tokenize, value_identifiers};
use std::collections::BTreeSet;

/// The result of one taint fixpoint: which variables depend on `source`.
#[derive(Debug)]
pub struct Taint {
    source: &'static str,
    tainted: BTreeSet<String>,
}

/// `threadIdx` — seeds thread-dependence (divergence) analysis.
pub const THREAD: &str = "threadIdx";
/// `blockIdx` — seeds block-dependence analysis.
pub const BLOCK: &str = "blockIdx";

impl Taint {
    /// Whether `expr` depends on the taint source.
    pub fn expr_tainted(&self, expr: &str) -> bool {
        value_identifiers(&tokenize(expr))
            .iter()
            .any(|id| id == self.source || self.tainted.contains(id))
    }

    /// The first enclosing guard of `node` that depends on the source,
    /// if any — the witness the divergence rules print.
    pub fn tainted_guard<'a>(&self, cfg: &'a Cfg, node: usize) -> Option<&'a str> {
        cfg.nodes[node]
            .guards
            .iter()
            .find(|g| self.expr_tainted(g))
            .map(String::as_str)
    }
}

/// Runs the taint fixpoint over `cfg` from the given `source` root
/// (`THREAD` or `BLOCK`).
pub fn analyze(cfg: &Cfg, source: &'static str) -> Taint {
    let mut t = Taint {
        source,
        tainted: BTreeSet::new(),
    };
    let defs: Vec<(&str, &str, usize)> = cfg
        .nodes
        .iter()
        .enumerate()
        .filter_map(|(id, n)| match &n.kind {
            NodeKind::Def { var, expr } => Some((var.as_str(), expr.as_str(), id)),
            _ => None,
        })
        .collect();
    let mut changed = true;
    while changed {
        changed = false;
        for &(var, expr, id) in &defs {
            if t.tainted.contains(var) {
                continue;
            }
            let data = t.expr_tainted(expr);
            let control = cfg.nodes[id].guards.iter().any(|g| t.expr_tainted(g));
            if data || control {
                t.tainted.insert(var.to_string());
                changed = true;
            }
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use crate::analysis::first_kernel;

    #[test]
    fn data_flow_propagates_through_assignments() {
        let k = first_kernel(
            r#"
__global__ void k(float *p, int n) {
    int tid = threadIdx.x;
    int i = blockIdx.x * blockDim.x + tid;
    int uniform = n * 2;
    p[i] = 1.0f;
}
"#,
        );
        let thread = k.thread();
        let block = k.block();
        assert!(thread.expr_tainted("tid"));
        assert!(thread.expr_tainted("i"));
        assert!(!thread.expr_tainted("uniform"));
        assert!(!thread.expr_tainted("n"));
        assert!(block.expr_tainted("i"));
        assert!(!block.expr_tainted("tid"));
    }

    #[test]
    fn control_flow_taints_divergent_loop_counters() {
        let k = first_kernel(
            r#"
__global__ void k(float *p, int n) {
    int count = 0;
    for (int i = threadIdx.x; i < n; i++) {
        count = count + 1;
    }
    p[blockIdx.x] = count;
}
"#,
        );
        let thread = k.thread();
        // `count = count + 1` is not data-tainted, but it executes a
        // thread-dependent number of times.
        assert!(thread.expr_tainted("count"));
        assert!(thread.expr_tainted("i"));
    }

    #[test]
    fn member_selectors_do_not_alias_locals() {
        let k = first_kernel(
            r#"
__global__ void k(float *p) {
    int x = 7;
    p[blockIdx.x + x] = 1.0f;
}
"#,
        );
        let thread = k.thread();
        assert!(!thread.expr_tainted("x"), "local x is uniform");
        assert!(thread.expr_tainted("threadIdx.x"));
    }
}
