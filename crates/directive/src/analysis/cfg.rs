//! Per-kernel control-flow graph over the mini-IR.
//!
//! Nodes are statements plus a synthetic entry and exit; edges follow the
//! structured control flow ([`super::ir`] guarantees there is no `goto`).
//! Each node also records its *guard stack* — the conditions of every
//! enclosing branch and loop — which is the structured-program form of
//! control dependence the divergence rules (LP010/LP012) consume, while
//! the dominator-based rules (LP011/LP014) use the edge lists. Nodes under
//! one branch share its stack: each names only its innermost guard.

use super::ir::{FenceScope, KernelIr, Stmt, StmtKind};
use crate::lexer::{Expr, Kind, Token};

/// A control-flow graph: nodes, forward edges, and the reverse edges the
/// post-dominator computation walks.
#[derive(Debug)]
pub struct Cfg<'s> {
    /// All nodes; indices are node ids.
    pub nodes: Vec<Node<'s>>,
    /// Successor lists, indexed by node id.
    pub succs: Vec<Vec<usize>>,
    /// Predecessor lists, indexed by node id.
    pub preds: Vec<Vec<usize>>,
    /// Synthetic entry node id (always 0).
    pub entry: usize,
    /// Synthetic exit node id.
    pub exit: usize,
}

/// One CFG node.
#[derive(Debug)]
pub struct Node<'s> {
    /// 1-based source line (0 for the synthetic entry/exit).
    pub line: usize,
    /// The innermost enclosing branch or loop head, whose own `guard`
    /// continues the stack outwards ([`Cfg::guards`]).
    pub guard: Option<usize>,
    /// The node payload.
    pub kind: NodeKind<'s>,
}

/// Node payloads.
#[derive(Debug)]
pub enum NodeKind<'s> {
    /// Synthetic entry.
    Entry,
    /// Synthetic exit.
    Exit,
    /// An `if` condition evaluation.
    Branch {
        /// Condition.
        cond: Expr<'s>,
    },
    /// A loop condition evaluation (back edges land here).
    LoopHead {
        /// Condition.
        cond: Expr<'s>,
    },
    /// `__syncthreads()`.
    Sync,
    /// A `__threadfence*` memory fence — a durability point for the
    /// epoch/SBRP persist-order analyses.
    Fence {
        /// Fence scope.
        scope: FenceScope,
    },
    /// A statement-expression call to a (possibly `__device__`) helper.
    /// The interprocedural pass attaches the callee's effect summary.
    Call {
        /// Callee name.
        name: &'s str,
        /// Argument expressions.
        args: Vec<Expr<'s>>,
    },
    /// An `lpcuda_checksum` fold site.
    Fold {
        /// Checksum-table identifier.
        table: &'s str,
        /// Key expressions.
        keys: Vec<Expr<'s>>,
        /// Node id of the protected global store directly following the
        /// pragma, when there is one.
        store: Option<usize>,
    },
    /// A store through a pointer parameter — a (potentially persistent)
    /// global store.
    Store {
        /// The pointer parameter written through.
        ptr: &'s str,
        /// The index expression (`0` for a plain `*p` deref).
        index: Expr<'s>,
        /// Left-hand side.
        lhs: Expr<'s>,
        /// Right-hand side (the stored value).
        rhs: Expr<'s>,
    },
    /// A local assignment or initialised declaration: defines `var`.
    Def {
        /// The defined variable.
        var: &'s str,
        /// The defining expression.
        expr: Expr<'s>,
    },
    /// An uninitialised declaration (`float v;`): introduces `var` with no
    /// value.
    DeclOnly {
        /// The declared variable.
        var: &'s str,
    },
    /// Everything else.
    Other,
}

impl<'s> Cfg<'s> {
    /// The guard stack of `node`, innermost first: each enclosing branch or
    /// loop head with its condition.
    pub fn guards(&self, node: usize) -> impl Iterator<Item = (usize, &Expr<'s>)> + '_ {
        std::iter::successors(self.nodes[node].guard, |g| self.nodes[*g].guard).filter_map(|g| {
            match &self.nodes[g].kind {
                NodeKind::Branch { cond } | NodeKind::LoopHead { cond } => Some((g, cond)),
                _ => None,
            }
        })
    }
}

/// Builds the CFG for one kernel.
pub fn build<'s>(ir: &KernelIr<'s>) -> Cfg<'s> {
    let mut b = Builder {
        cfg: Cfg {
            nodes: Vec::new(),
            succs: Vec::new(),
            preds: Vec::new(),
            entry: 0,
            exit: 0,
        },
        shared_or_local_arrays: collect_shadowing_names(&ir.body),
        pointer_params: &ir.pointer_params,
    };
    let entry = b.node(0, None, NodeKind::Entry);
    let frontier = b.seq(&ir.body, vec![entry], None);
    let exit = b.node(0, None, NodeKind::Exit);
    for f in frontier {
        b.edge(f, exit);
    }
    b.cfg.entry = entry;
    b.cfg.exit = exit;
    b.cfg
}

/// Names declared inside the body that shadow or aren't pointer params:
/// `__shared__` arrays and any local declaration. A store whose root is
/// one of these is not a global store.
fn collect_shadowing_names<'s>(stmts: &[Stmt<'s>]) -> Vec<&'s str> {
    let mut out = Vec::new();
    fn walk<'s>(stmts: &[Stmt<'s>], out: &mut Vec<&'s str>) {
        for s in stmts {
            match &s.kind {
                StmtKind::Decl { name, .. } if !out.contains(name) => {
                    out.push(*name);
                }
                StmtKind::If {
                    then_branch,
                    else_branch,
                    ..
                } => {
                    walk(then_branch, out);
                    walk(else_branch, out);
                }
                StmtKind::Loop { body, .. } => walk(body, out),
                _ => {}
            }
        }
    }
    walk(stmts, &mut out);
    out
}

struct Builder<'i, 's> {
    cfg: Cfg<'s>,
    shared_or_local_arrays: Vec<&'s str>,
    pointer_params: &'i [String],
}

impl<'s> Builder<'_, 's> {
    fn node(&mut self, line: usize, guard: Option<usize>, kind: NodeKind<'s>) -> usize {
        self.cfg.nodes.push(Node { line, guard, kind });
        self.cfg.succs.push(Vec::new());
        self.cfg.preds.push(Vec::new());
        self.cfg.nodes.len() - 1
    }

    fn edge(&mut self, from: usize, to: usize) {
        if !self.cfg.succs[from].contains(&to) {
            self.cfg.succs[from].push(to);
            self.cfg.preds[to].push(from);
        }
    }

    /// Lowers a statement sequence under the innermost guard `guard`;
    /// `preds` flow into the first node, and the returned frontier flows
    /// onward.
    fn seq(
        &mut self,
        stmts: &[Stmt<'s>],
        mut preds: Vec<usize>,
        guard: Option<usize>,
    ) -> Vec<usize> {
        let mut pending_fold: Option<usize> = None;
        for stmt in stmts {
            let fold_here = pending_fold.take();
            match &stmt.kind {
                StmtKind::If {
                    cond,
                    then_branch,
                    else_branch,
                } => {
                    let b = self.node(stmt.line, guard, NodeKind::Branch { cond: cond.clone() });
                    for p in preds {
                        self.edge(p, b);
                    }
                    let mut frontier = self.seq(then_branch, vec![b], Some(b));
                    if else_branch.is_empty() {
                        frontier.push(b); // fall-through edge
                    } else {
                        frontier.extend(self.seq(else_branch, vec![b], Some(b)));
                    }
                    preds = frontier;
                }
                StmtKind::Loop { cond, body } => {
                    let h = self.node(stmt.line, guard, NodeKind::LoopHead { cond: cond.clone() });
                    for p in preds {
                        self.edge(p, h);
                    }
                    let back = self.seq(body, vec![h], Some(h));
                    for p in back {
                        self.edge(p, h); // back edge
                    }
                    preds = vec![h];
                }
                simple => {
                    let kind = self.lower_simple(simple);
                    let is_store = matches!(kind, NodeKind::Store { .. });
                    let n = self.node(stmt.line, guard, kind);
                    for p in preds {
                        self.edge(p, n);
                    }
                    if let (Some(f), true) = (fold_here, is_store) {
                        if let NodeKind::Fold { store, .. } = &mut self.cfg.nodes[f].kind {
                            *store = Some(n);
                        }
                    }
                    if matches!(self.cfg.nodes[n].kind, NodeKind::Fold { .. }) {
                        pending_fold = Some(n);
                    }
                    preds = vec![n];
                }
            }
        }
        preds
    }

    fn lower_simple(&self, kind: &StmtKind<'s>) -> NodeKind<'s> {
        match kind {
            StmtKind::Sync => NodeKind::Sync,
            StmtKind::Fence { scope } => NodeKind::Fence { scope: *scope },
            StmtKind::Call { name, args } => NodeKind::Call {
                name,
                args: args.clone(),
            },
            StmtKind::Fold { table, keys } => NodeKind::Fold {
                table,
                keys: keys.clone(),
                store: None,
            },
            // Arrays never get scalar defs (element writes are opaque), so
            // modelling them as DeclOnly would make LP014 call every read
            // "declared but never assigned". Keep them opaque instead.
            StmtKind::Decl { array: true, .. } => NodeKind::Other,
            StmtKind::Decl {
                name,
                init: Some(init),
                ..
            } => NodeKind::Def {
                var: name,
                expr: init.clone(),
            },
            StmtKind::Decl {
                name, init: None, ..
            } => NodeKind::DeclOnly { var: name },
            StmtKind::Assign { lhs, rhs } => self.lower_assign(lhs, rhs),
            _ => NodeKind::Other,
        }
    }

    /// An assignment is a global store when its root is a pointer
    /// parameter (`p[i] = …`, `*p = …`) not shadowed by a local; a plain
    /// scalar assignment is a definition; anything else (shared-array
    /// stores, member writes) is opaque.
    fn lower_assign(&self, lhs: &Expr<'s>, rhs: &Expr<'s>) -> NodeKind<'s> {
        let store = |ptr: &'s str, index: Expr<'s>| NodeKind::Store {
            ptr,
            index,
            lhs: lhs.clone(),
            rhs: rhs.clone(),
        };
        match lhs.toks.as_slice() {
            [first, rest @ ..] if first.is_punct("*") => match rest {
                [name] if self.is_global_ptr(name.text) => {
                    let zero = Token::synthetic(Kind::Number, "0", name.line);
                    store(name.text, Expr::new(vec![zero]))
                }
                _ => NodeKind::Other,
            },
            [first, second, ..] if second.is_punct("[") => {
                if !self.is_global_ptr(first.text) {
                    return NodeKind::Other;
                }
                // The tokens between the first `[` and its matching `]`.
                let mut depth = 0i64;
                let mut inner = Vec::new();
                for t in &lhs.toks[1..] {
                    match t.text {
                        "[" => {
                            depth += 1;
                            if depth == 1 {
                                continue;
                            }
                        }
                        "]" => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    inner.push(*t);
                }
                store(first.text, Expr::new(inner))
            }
            [only] if only.kind == Kind::Ident => NodeKind::Def {
                var: only.text,
                expr: rhs.clone(),
            },
            _ => NodeKind::Other,
        }
    }

    fn is_global_ptr(&self, name: &str) -> bool {
        self.pointer_params.iter().any(|p| p == name)
            && !self.shared_or_local_arrays.contains(&name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::first_kernel;

    #[test]
    fn straight_line_chains_entry_to_exit() {
        let cfg = first_kernel(
            r#"
__global__ void k(float *out) {
    int i = blockIdx.x;
    out[i] = 1.0f;
}
"#,
        )
        .cfg;
        assert_eq!(cfg.nodes.len(), 4); // entry, def, store, exit
        assert_eq!(cfg.succs[cfg.entry], vec![1]);
        assert_eq!(cfg.succs[1], vec![2]);
        assert_eq!(cfg.succs[2], vec![cfg.exit]);
        assert!(
            matches!(&cfg.nodes[2].kind, NodeKind::Store { ptr, index, .. }
            if *ptr == "out" && index.text == "i")
        );
    }

    #[test]
    fn if_without_else_has_fallthrough_edge() {
        let cfg = first_kernel(
            r#"
__global__ void k(float *p) {
    if (blockIdx.x == 0) {
        p[threadIdx.x] = 1.0f;
    }
    p[blockIdx.x] = 2.0f;
}
"#,
        )
        .cfg;
        let branch = cfg
            .nodes
            .iter()
            .position(|n| matches!(n.kind, NodeKind::Branch { .. }))
            .unwrap();
        assert_eq!(cfg.succs[branch].len(), 2, "then edge + fall-through");
        let guarded = cfg
            .nodes
            .iter()
            .find(
                |n| matches!(&n.kind, NodeKind::Store { index, .. } if index.text == "threadIdx.x"),
            )
            .unwrap();
        let id = cfg
            .nodes
            .iter()
            .position(|n| std::ptr::eq(n, guarded))
            .unwrap();
        let guards: Vec<&str> = cfg.guards(id).map(|(_, g)| g.text.as_str()).collect();
        assert_eq!(guards, vec!["blockIdx.x==0"]);
    }

    #[test]
    fn loop_head_gets_back_edge() {
        let cfg = first_kernel(
            r#"
__global__ void k(float *p, int n) {
    for (int i = 0; i < n; i++) {
        p[blockIdx.x] = 1.0f;
    }
}
"#,
        )
        .cfg;
        let head = cfg
            .nodes
            .iter()
            .position(|n| matches!(n.kind, NodeKind::LoopHead { .. }))
            .unwrap();
        // The step def's successor is the loop head again.
        let step = cfg
            .nodes
            .iter()
            .position(|n| matches!(&n.kind, NodeKind::Def { var, expr } if *var == "i" && expr.text.contains("i + 1")))
            .unwrap();
        assert!(cfg.succs[step].contains(&head));
        // Loop head flows to both body and exit-side.
        assert_eq!(cfg.succs[head].len(), 2);
    }

    #[test]
    fn fold_attaches_to_following_store() {
        let cfg = first_kernel(
            r#"
__global__ void k(float *out) {
    int i = blockIdx.x;
#pragma nvm lpcuda_checksum(+, tab, blockIdx.x)
    out[i] = 3.0f;
    out[i + 1] = 4.0f;
}
"#,
        )
        .cfg;
        let folds: Vec<&Node> = cfg
            .nodes
            .iter()
            .filter(|n| matches!(n.kind, NodeKind::Fold { .. }))
            .collect();
        assert_eq!(folds.len(), 1);
        let NodeKind::Fold { store, .. } = &folds[0].kind else {
            unreachable!()
        };
        let store = store.expect("fold must attach to the next store");
        assert!(
            matches!(&cfg.nodes[store].kind, NodeKind::Store { rhs, .. } if rhs.text == "3.0f")
        );
        // The second store has no fold attached.
        let stores = cfg
            .nodes
            .iter()
            .filter(|n| matches!(n.kind, NodeKind::Store { .. }))
            .count();
        assert_eq!(stores, 2);
    }

    #[test]
    fn fences_and_calls_lower_to_their_own_nodes() {
        let cfg = first_kernel(
            r#"
__global__ void k(float *p) {
    p[blockIdx.x] = 1.0f;
    __threadfence();
    publish(p, blockIdx.x);
}
"#,
        )
        .cfg;
        assert!(cfg
            .nodes
            .iter()
            .any(|n| matches!(n.kind, NodeKind::Fence { scope } if scope == FenceScope::Device)));
        assert!(cfg.nodes.iter().any(
            |n| matches!(&n.kind, NodeKind::Call { name, args } if *name == "publish"
                && args.len() == 2)
        ));
    }

    #[test]
    fn shared_array_stores_are_not_global_stores() {
        let cfg = first_kernel(
            r#"
__global__ void k(float *p) {
    __shared__ float tile[32];
    tile[threadIdx.x] = p[threadIdx.x];
    p[blockIdx.x] = tile[0];
}
"#,
        )
        .cfg;
        let stores: Vec<&Node> = cfg
            .nodes
            .iter()
            .filter(|n| matches!(n.kind, NodeKind::Store { .. }))
            .collect();
        assert_eq!(stores.len(), 1);
        assert!(matches!(&stores[0].kind, NodeKind::Store { ptr, .. } if *ptr == "p"));
    }
}
