//! Dominator and post-dominator computation.
//!
//! Classic iterative dataflow over bit sets: `dom(n) = {n} ∪ ⋂ dom(pred)`.
//! Kernel CFGs are tens of nodes, so the O(n²) fixpoint is instant and the
//! simple formulation beats Lengauer–Tarjan on clarity. Post-dominators
//! are the same computation on the reversed graph, rooted at the exit.

use super::cfg::Cfg;

/// A fixed-capacity bit set over node ids.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitSet {
    words: Vec<u64>,
}

impl BitSet {
    /// The empty set over `n` ids.
    pub fn empty(n: usize) -> Self {
        BitSet {
            words: vec![0; n.div_ceil(64)],
        }
    }

    /// The full set over `n` ids.
    pub fn full(n: usize) -> Self {
        let mut s = Self::empty(n);
        s.fill(n);
        s
    }

    /// Makes this set (over `n` ids) full again, in place.
    fn fill(&mut self, n: usize) {
        self.words.fill(!0);
        if !n.is_multiple_of(64) {
            if let Some(last) = self.words.last_mut() {
                *last = (1 << (n % 64)) - 1;
            }
        }
    }

    /// Inserts `i`.
    pub fn insert(&mut self, i: usize) {
        self.words[i / 64] |= 1 << (i % 64);
    }

    /// Whether `i` is a member.
    pub fn contains(&self, i: usize) -> bool {
        self.words[i / 64] & (1 << (i % 64)) != 0
    }

    /// Intersects in place.
    pub fn intersect_with(&mut self, other: &BitSet) {
        for (w, o) in self.words.iter_mut().zip(&other.words) {
            *w &= o;
        }
    }
}

/// `result[n]` = the nodes on every path from `root` to `n` (including
/// `n`), where `edges_in[v]` lists the nodes a path reaches `v` from.
/// Passing predecessors rooted at entry gives dominators; passing
/// successors rooted at exit gives post-dominators.
fn solve(n_nodes: usize, root: usize, edges_in: &[Vec<usize>]) -> Vec<BitSet> {
    let mut dom: Vec<BitSet> = (0..n_nodes).map(|_| BitSet::full(n_nodes)).collect();
    dom[root] = BitSet::empty(n_nodes);
    dom[root].insert(root);
    // Each round's candidate is built in `next`; a changed set trades
    // places with it, so the rounds allocate nothing.
    let mut next = BitSet::empty(n_nodes);
    let mut changed = true;
    while changed {
        changed = false;
        for v in 0..n_nodes {
            if v == root {
                continue;
            }
            next.fill(n_nodes);
            for &p in &edges_in[v] {
                next.intersect_with(&dom[p]);
            }
            next.insert(v);
            if next != dom[v] {
                std::mem::swap(&mut dom[v], &mut next);
                changed = true;
            }
        }
    }
    dom
}

/// Dominator sets: `doms(cfg)[n].contains(d)` ⇔ every path entry→`n`
/// passes through `d`.
pub fn dominators(cfg: &Cfg) -> Vec<BitSet> {
    solve(cfg.nodes.len(), cfg.entry, &cfg.preds)
}

/// Post-dominator sets: `post_dominators(cfg)[n].contains(d)` ⇔ every path
/// `n`→exit passes through `d`.
pub fn post_dominators(cfg: &Cfg) -> Vec<BitSet> {
    solve(cfg.nodes.len(), cfg.exit, &cfg.succs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::cfg::NodeKind;
    use crate::analysis::first_kernel;

    fn find(cfg: &Cfg, pred: impl Fn(&NodeKind) -> bool) -> usize {
        cfg.nodes.iter().position(|n| pred(&n.kind)).unwrap()
    }

    #[test]
    fn branch_arms_do_not_dominate_the_join() {
        let k = first_kernel(
            r#"
__global__ void k(float *p) {
    int i = blockIdx.x;
    if (i == 0) {
        p[0] = 1.0f;
    } else {
        p[1] = 2.0f;
    }
    p[i] = 3.0f;
}
"#,
        );
        let cfg = &k.cfg;
        let dom = k.dom();
        let branch = find(cfg, |k| matches!(k, NodeKind::Branch { .. }));
        let then_store = find(
            cfg,
            |k| matches!(k, NodeKind::Store { rhs, .. } if rhs.text == "1.0f"),
        );
        let join_store = find(
            cfg,
            |k| matches!(k, NodeKind::Store { rhs, .. } if rhs.text == "3.0f"),
        );
        assert!(dom[join_store].contains(branch));
        assert!(!dom[join_store].contains(then_store));
        assert!(dom[then_store].contains(branch));
    }

    #[test]
    fn post_dominators_see_through_loops() {
        let k = first_kernel(
            r#"
__global__ void k(float *p, int n) {
    for (int i = 0; i < n; i++) {
        p[blockIdx.x] = 1.0f;
    }
    p[blockIdx.x] = 2.0f;
}
"#,
        );
        let cfg = &k.cfg;
        let pdom = &k.pdom;
        let in_loop = find(
            cfg,
            |k| matches!(k, NodeKind::Store { rhs, .. } if rhs.text == "1.0f"),
        );
        let after = find(
            cfg,
            |k| matches!(k, NodeKind::Store { rhs, .. } if rhs.text == "2.0f"),
        );
        // The store after the loop post-dominates the store inside it; the
        // converse is false (the loop may run zero times).
        assert!(pdom[in_loop].contains(after));
        assert!(!pdom[after].contains(in_loop));
        assert!(pdom[cfg.entry].contains(after));
    }

    #[test]
    fn guarded_node_does_not_post_dominate_entry() {
        let k = first_kernel(
            r#"
__global__ void k(float *p) {
    if (threadIdx.x == 0) {
        p[blockIdx.x] = 1.0f;
    }
}
"#,
        );
        let cfg = &k.cfg;
        let pdom = &k.pdom;
        let store = find(cfg, |k| matches!(k, NodeKind::Store { .. }));
        assert!(!pdom[cfg.entry].contains(store));
    }
}
