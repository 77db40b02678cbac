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
use crate::lexer::{value_identifiers, Token};
use std::collections::BTreeSet;

/// The result of one taint fixpoint: which variables depend on `source`.
#[derive(Debug)]
pub struct Taint<'s> {
    source: &'static str,
    tainted: BTreeSet<&'s str>,
    /// Per CFG node: whether it is a branch or loop head whose condition
    /// depends on the source.
    tainted_cond: Vec<bool>,
}

/// `threadIdx` — seeds thread-dependence (divergence) analysis.
pub const THREAD: &str = "threadIdx";
/// `blockIdx` — seeds block-dependence analysis.
pub const BLOCK: &str = "blockIdx";

impl Taint<'_> {
    /// Whether the expression `toks` depends on the taint source.
    pub fn expr_tainted(&self, toks: &[Token<'_>]) -> bool {
        self.any_tainted(&value_identifiers(toks))
    }

    fn any_tainted(&self, ids: &[&str]) -> bool {
        ids.iter()
            .any(|id| *id == self.source || self.tainted.contains(id))
    }

    /// The outermost enclosing guard of `node` that depends on the source,
    /// if any — the witness the divergence rules print.
    pub fn tainted_guard<'c>(&self, cfg: &'c Cfg<'_>, node: usize) -> Option<&'c str> {
        cfg.guards(node)
            .filter(|(g, _)| self.tainted_cond[*g])
            .last()
            .map(|(_, cond)| cond.text.as_str())
    }
}

/// Runs the taint fixpoint over `cfg` from the given `source` root
/// (`THREAD` or `BLOCK`).
pub fn analyze<'s>(cfg: &Cfg<'s>, source: &'static str) -> Taint<'s> {
    // Every definition's and every condition's identifiers, read once.
    let ids: Vec<Vec<&'s str>> = cfg
        .nodes
        .iter()
        .map(|n| match &n.kind {
            NodeKind::Def { expr: e, .. }
            | NodeKind::Branch { cond: e }
            | NodeKind::LoopHead { cond: e } => value_identifiers(&e.toks),
            _ => Vec::new(),
        })
        .collect();
    let mut t = Taint {
        source,
        tainted: BTreeSet::new(),
        tainted_cond: Vec::new(),
    };
    let mut changed = true;
    while changed {
        changed = false;
        for (id, node) in cfg.nodes.iter().enumerate() {
            let NodeKind::Def { var, .. } = node.kind else {
                continue;
            };
            if t.tainted.contains(var) {
                continue;
            }
            let data = t.any_tainted(&ids[id]);
            let control = || cfg.guards(id).any(|(g, _)| t.any_tainted(&ids[g]));
            if data || control() {
                t.tainted.insert(var);
                changed = true;
            }
        }
    }
    t.tainted_cond = cfg
        .nodes
        .iter()
        .enumerate()
        .map(|(id, n)| {
            matches!(n.kind, NodeKind::Branch { .. } | NodeKind::LoopHead { .. })
                && t.any_tainted(&ids[id])
        })
        .collect();
    t
}

#[cfg(test)]
mod tests {
    use crate::analysis::first_kernel;
    use crate::lexer::tokenize;

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
        assert!(thread.expr_tainted(&tokenize("tid")));
        assert!(thread.expr_tainted(&tokenize("i")));
        assert!(!thread.expr_tainted(&tokenize("uniform")));
        assert!(!thread.expr_tainted(&tokenize("n")));
        assert!(block.expr_tainted(&tokenize("i")));
        assert!(!block.expr_tainted(&tokenize("tid")));
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
        assert!(thread.expr_tainted(&tokenize("count")));
        assert!(thread.expr_tainted(&tokenize("i")));
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
        assert!(!thread.expr_tainted(&tokenize("x")), "local x is uniform");
        assert!(thread.expr_tainted(&tokenize("threadIdx.x")));
    }
}
