//! Per-kernel symbolic store footprints.
//!
//! Built on the affine domain of [`super::symbolic`], this module computes
//! a byte-level footprint for every global store and checksum fold of a
//! kernel: *which* elements of *which* pointer parameter the store can
//! touch, as an affine form over `blockIdx.*` / `threadIdx.*` / loop
//! induction symbols with interval bounds. The rules layer uses the result
//! to make fold-coverage byte-precise (LP011/LP024), to prove cross-block
//! disjointness outright instead of approximating it with taint (LP013),
//! and to detect out-of-bounds persistent stores against a declared region
//! (LP022) and same-address multi-thread stores (LP023). The facts also
//! export to `lp-fault`'s crash-site pruner (a block-partitioned, fully
//! folded kernel makes same-sign block-boundary crash sites equivalent)
//! and to the sanitizer differential, which checks every static byte-claim
//! against the dynamic observer.
//!
//! Soundness: every query returns a *proof or nothing*. Stores whose index
//! leaves the affine domain get `index: None` and are excluded from every
//! claim; interval bounds come only from modelled loops (`i = init;
//! i < bound; i += step` with a launch-uniform trip count) and the builtin
//! coordinate ranges. A store under a guard the loop model does not
//! explain is marked inexact and never grounds an out-of-bounds claim.

use super::cfg::{Cfg, NodeKind};
use super::dom::BitSet;
use super::ir::{KernelIr, Stmt, StmtKind};
use super::symbolic::{eval_expr, Affine, Lin};
use super::SourceAnalysis;
use crate::lexer::{value_identifiers, Expr, Kind, Token};
use serde::Serialize;
use std::collections::{BTreeMap, BTreeSet};

/// The footprint of one global store.
#[derive(Debug, Clone, Serialize)]
pub struct StoreFootprint {
    /// 1-based source line.
    pub line: usize,
    /// Pointer parameter written through.
    pub ptr: String,
    /// Left-hand side, verbatim (for diagnostics).
    pub lhs: String,
    /// Element size in bytes, from the parameter's declared type.
    pub elem_size: u64,
    /// The element index as an affine form; `None` when it leaves the
    /// domain (division, loads, data-dependent loops, …).
    pub index: Option<Affine>,
    /// Whether a checksum fold attaches directly to this store.
    pub folded: bool,
    /// Whether the store's final bytes are folded: either directly, or a
    /// post-dominating folded store provably rewrites the same elements.
    pub covered: bool,
    /// Whether the footprint is exact: every enclosing guard is the
    /// condition of a modelled loop, so each element in range really is
    /// written. Inexact footprints are still sound upper bounds.
    pub exact: bool,
    /// CFG node id (analysis-internal).
    pub node: usize,
}

/// The footprint summary of one kernel.
#[derive(Debug, Clone, Serialize)]
pub struct KernelFootprint {
    /// Kernel name.
    pub kernel: String,
    /// Per-store footprints, in CFG (source) order.
    pub stores: Vec<StoreFootprint>,
    /// Inclusive value ranges of the loop induction symbols appearing in
    /// the stores' affine forms (builtin coordinate ranges are implicit).
    pub ranges: BTreeMap<String, (Lin, Lin)>,
    /// Every store's index is affine and provably cross-block disjoint —
    /// distinct blocks write distinct elements.
    pub block_partitioned: bool,
    /// Every store's final bytes are folded into a checksum.
    pub fully_folded: bool,
}

impl KernelFootprint {
    /// The inclusive element-index range `[lo, hi]` of a store, when every
    /// coefficient/range product stays linear.
    pub fn elem_range(&self, store: &StoreFootprint) -> Option<(Lin, Lin)> {
        elem_range(store.index.as_ref()?, &self.ranges)
    }

    /// Concretises a store's element set under concrete uniform-symbol
    /// values (kernel params, `blockDim.*`, `gridDim.*`). Enumerates the
    /// full launch — all blocks, all threads, all iterations. `None` when
    /// the index is opaque, a bound is unevaluable, or the space exceeds
    /// `cap` points.
    pub fn concrete_elements(
        &self,
        store: &StoreFootprint,
        values: &BTreeMap<String, i64>,
        cap: usize,
    ) -> Option<BTreeSet<i64>> {
        let affine = store.index.as_ref()?;
        let syms: Vec<&String> = affine.coef.keys().collect();
        let mut spans = Vec::with_capacity(syms.len());
        let mut points = 1usize;
        for s in &syms {
            let (lo, hi) = range_of(s, &self.ranges)?;
            let (lo, hi) = (lo.eval(values)?, hi.eval(values)?);
            let n = (hi - lo + 1).max(0) as usize;
            points = points.checked_mul(n)?;
            if points > cap {
                return None;
            }
            spans.push((lo, hi));
        }
        let mut out = BTreeSet::new();
        let mut cursor: Vec<i64> = spans.iter().map(|(lo, _)| *lo).collect();
        if spans.iter().any(|(lo, hi)| lo > hi) {
            return Some(out); // an empty loop: no elements written
        }
        loop {
            let mut env = values.clone();
            for (s, v) in syms.iter().zip(&cursor) {
                env.insert((*s).clone(), *v);
            }
            out.insert(affine.eval(&env)?);
            // Odometer increment over the index space.
            let mut dim = 0;
            loop {
                if dim == cursor.len() {
                    return Some(out);
                }
                cursor[dim] += 1;
                if cursor[dim] <= spans[dim].1 {
                    break;
                }
                cursor[dim] = spans[dim].0;
                dim += 1;
            }
        }
    }
}

/// The inclusive range of an index symbol: a modelled loop symbol from
/// `ranges`, or a builtin coordinate (`threadIdx.d` ∈ [0, blockDim.d−1],
/// `blockIdx.d` ∈ [0, gridDim.d−1]).
fn range_of(sym: &str, ranges: &BTreeMap<String, (Lin, Lin)>) -> Option<(Lin, Lin)> {
    if let Some(r) = ranges.get(sym) {
        return Some(r.clone());
    }
    for (idx, dim) in [("threadIdx.", "blockDim."), ("blockIdx.", "gridDim.")] {
        if let Some(d) = sym.strip_prefix(idx) {
            let hi = Lin::sym(&format!("{dim}{d}")).sub(&Lin::constant(1));
            return Some((Lin::constant(0), hi));
        }
    }
    None
}

/// The inclusive element-index range of an affine form, when every
/// coefficient×range product stays linear. Constant coefficients multiply
/// either range endpoint; a symbolic non-negative coefficient works only
/// against constant endpoints (so `blockDim.x·blockIdx.x` over a symbolic
/// grid stays out — quadratic).
pub fn elem_range(affine: &Affine, ranges: &BTreeMap<String, (Lin, Lin)>) -> Option<(Lin, Lin)> {
    let mut lo = affine.base.clone();
    let mut hi = affine.base.clone();
    for (sym, c) in &affine.coef {
        let (rlo, rhi) = range_of(sym, ranges)?;
        if let Some(cv) = c.as_const() {
            let (dlo, dhi) = if cv >= 0 {
                (rlo.scale(cv), rhi.scale(cv))
            } else {
                (rhi.scale(cv), rlo.scale(cv))
            };
            lo = lo.add(&dlo);
            hi = hi.add(&dhi);
        } else if c.provably_nonneg() {
            lo = lo.add(&c.mul(&rlo)?);
            hi = hi.add(&c.mul(&rhi)?);
        } else {
            return None;
        }
    }
    Some((lo, hi))
}

/// Proves that two distinct blocks write disjoint element sets: the index
/// depends on exactly one `blockIdx` dimension, and that dimension's
/// stride covers the whole width the remaining symbols can span. The
/// canonical `blockIdx.x * n + i` with `i < n` proves with zero slack.
pub fn cross_block_disjoint(affine: &Affine, ranges: &BTreeMap<String, (Lin, Lin)>) -> bool {
    let block_dims: Vec<&String> = affine
        .coef
        .keys()
        .filter(|s| s.starts_with("blockIdx."))
        .collect();
    let [dim] = block_dims.as_slice() else {
        return false; // zero dims is overlap; 2+ dims is beyond the prover
    };
    let stride = affine.coef_of(dim);
    let mut rest = affine.clone();
    rest.coef.remove(*dim);
    let Some((lo, hi)) = elem_range(&rest, ranges) else {
        return false;
    };
    let width = hi.sub(&lo).add(&Lin::constant(1));
    stride.sub(&width).provably_nonneg() || stride.scale(-1).sub(&width).provably_nonneg()
}

/// Whether two stores provably write the same element set: same pointer,
/// same element size, and identical affine forms (loop symbols are shared
/// within one kernel, so same-loop stores compare exactly).
pub fn same_elements(a: &StoreFootprint, b: &StoreFootprint) -> bool {
    a.ptr == b.ptr
        && a.elem_size == b.elem_size
        && matches!((&a.index, &b.index), (Some(x), Some(y)) if x == y)
}

/// Footprints of every kernel in `source`, in declaration order. A source
/// that does not scan yields no footprints (LP000 is the lint's to
/// report).
pub fn source_footprints(source: &str) -> Vec<KernelFootprint> {
    SourceAnalysis::new(source)
        .map(|a| a.kernels().map(|k| k.footprint).collect())
        .unwrap_or_default()
}

/// Computes the footprint of one kernel from its IR, CFG and
/// post-dominator sets.
pub(super) fn kernel_footprint(
    ir: &KernelIr<'_>,
    cfg: &Cfg<'_>,
    pdom: &[BitSet],
) -> KernelFootprint {
    let mut env = EnvBuilder::collect(&ir.body);
    let param_sizes: Vec<u64> = ir.param_types.iter().map(|t| elem_size(&t.toks)).collect();
    let directly_folded: Vec<usize> = cfg
        .nodes
        .iter()
        .filter_map(|n| match &n.kind {
            NodeKind::Fold { store, .. } => *store,
            _ => None,
        })
        .collect();
    let mut stores = Vec::new();
    for (id, node) in cfg.nodes.iter().enumerate() {
        let NodeKind::Store {
            ptr, index, lhs, ..
        } = &node.kind
        else {
            continue;
        };
        let affine = env.eval(&index.toks);
        let exact = cfg
            .guards(id)
            .all(|(_, g)| env.modelled_conds.contains(g.text.as_str()));
        let elem_size = ir
            .param_names
            .iter()
            .position(|p| p == ptr)
            .and_then(|i| param_sizes.get(i).copied());
        stores.push(StoreFootprint {
            line: node.line,
            ptr: ptr.to_string(),
            lhs: lhs.text.clone(),
            elem_size: elem_size.unwrap_or(4),
            index: affine,
            folded: directly_folded.contains(&id),
            covered: false,
            exact,
            node: id,
        });
    }
    // Coverage: a store's final bytes are folded when the store itself is
    // folded, or a *post-dominating* folded store rewrites the same
    // elements (the overwrite is what persists, and it is folded).
    for i in 0..stores.len() {
        stores[i].covered = stores[i].folded
            || stores.iter().any(|later| {
                later.folded
                    && later.node != stores[i].node
                    && pdom[stores[i].node].contains(later.node)
                    && same_elements(later, &stores[i])
            });
    }
    let block_partitioned = !stores.is_empty()
        && stores.iter().all(|s| {
            s.index
                .as_ref()
                .is_some_and(|a| cross_block_disjoint(a, &env.ranges))
        });
    let fully_folded = stores.iter().all(|s| s.covered);
    KernelFootprint {
        kernel: ir.name.clone(),
        stores,
        ranges: env.ranges,
        block_partitioned,
        fully_folded,
    }
}

/// Element size in bytes for a parameter's declared type, defaulting to 4
/// (the `float`/`int` workhorse width) when no keyword matches.
pub fn elem_size(ty: &[Token<'_>]) -> u64 {
    let has = |kw: &&str| ty.iter().any(|t| t.is_ident(kw));
    if ["double", "long", "int64_t", "uint64_t", "size_t"]
        .iter()
        .any(has)
    {
        8
    } else if ["short", "half", "int16_t", "uint16_t"].iter().any(has) {
        2
    } else if ["char", "int8_t", "uint8_t", "bool"].iter().any(has) {
        1
    } else {
        4
    }
}

/// A loop whose induction variable the engine models.
#[derive(Debug, Clone, Copy)]
struct Induction<'e> {
    init: &'e [Token<'e>],
    bound: &'e [Token<'e>],
    /// Constant positive step.
    step: i64,
    /// `i <= bound` instead of `i < bound`.
    inclusive: bool,
    /// The loop's condition text, for guard-exactness matching.
    cond: &'e str,
}

/// Lazily resolves body variables to affine forms: single-definition
/// variables substitute their defining expression; induction variables of
/// modelled loops bind to `init + step·t` with `t` a fresh range symbol;
/// everything else (multiple defs, never-assigned decls) is opaque. It
/// reads the IR's expressions in place (`'e`).
struct EnvBuilder<'e> {
    defs: BTreeMap<&'e str, Vec<&'e [Token<'e>]>>,
    decls: BTreeSet<&'e str>,
    inductions: BTreeMap<&'e str, Induction<'e>>,
    cache: BTreeMap<&'e str, Option<Affine>>,
    resolving: Vec<&'e str>,
    ranges: BTreeMap<String, (Lin, Lin)>,
    /// Conditions of loops whose trip space the ranges fully model — a
    /// guard matching one of these does not make a footprint inexact.
    modelled_conds: BTreeSet<&'e str>,
}

impl<'e> EnvBuilder<'e> {
    fn collect(body: &'e [Stmt<'e>]) -> Self {
        let mut b = EnvBuilder {
            defs: BTreeMap::new(),
            decls: BTreeSet::new(),
            inductions: BTreeMap::new(),
            cache: BTreeMap::new(),
            resolving: Vec::new(),
            ranges: BTreeMap::new(),
            modelled_conds: BTreeSet::new(),
        };
        b.walk(body);
        // An induction candidate stays modelled only while its variable
        // has exactly the init definition plus the step (two in total).
        let defs = &b.defs;
        b.inductions
            .retain(|v, _| defs.get(v).is_some_and(|d| d.len() == 2));
        b
    }

    fn walk(&mut self, stmts: &'e [Stmt<'e>]) {
        for s in stmts {
            match &s.kind {
                StmtKind::Decl {
                    name,
                    init,
                    array: false,
                    shared: false,
                } => {
                    match init {
                        Some(e) => self.defs.entry(name).or_default().push(&e.toks),
                        None => {
                            self.decls.insert(name);
                        }
                    };
                }
                StmtKind::Assign { lhs, rhs } if is_plain_ident(&lhs.text) => {
                    self.defs.entry(&lhs.text).or_default().push(&rhs.toks);
                }
                StmtKind::If {
                    then_branch,
                    else_branch,
                    ..
                } => {
                    self.walk(then_branch);
                    self.walk(else_branch);
                }
                StmtKind::Loop { cond, body } => {
                    self.candidate_induction(cond, body);
                    self.walk(body);
                }
                _ => {}
            }
        }
    }

    /// Registers `var` as an induction candidate when the loop has the
    /// shape `cond: var </<= bound` with a top-level `var = var + c` step
    /// in its body (the `for` desugaring appends exactly that).
    fn candidate_induction(&mut self, cond: &'e Expr<'e>, body: &'e [Stmt<'e>]) {
        let Some((var, inclusive, bound)) = parse_loop_cond(&cond.toks) else {
            return;
        };
        let step = body.iter().find_map(|s| match &s.kind {
            StmtKind::Assign { lhs, rhs } if lhs.text == var => parse_step(var, &rhs.toks),
            _ => None,
        });
        let Some(step) = step.filter(|c| *c >= 1) else {
            return;
        };
        // Two loops driving the same variable: model neither.
        if self.inductions.remove(var).is_some() {
            return;
        }
        // The init is whichever definition is not the step itself; demand
        // exactly one such definition (checked again after the walk).
        let Some(init) = self
            .defs
            .get(var)
            .and_then(|d| d.iter().find(|e| parse_step(var, e) != Some(step)))
            .copied()
        else {
            return;
        };
        self.inductions.insert(
            var,
            Induction {
                init,
                bound,
                step,
                inclusive,
                cond: &cond.text,
            },
        );
    }

    /// Evaluates an expression, resolving body variables recursively.
    fn eval(&mut self, toks: &'e [Token<'e>]) -> Option<Affine> {
        let mut env = BTreeMap::new();
        for id in value_identifiers(toks) {
            if self.defs.contains_key(id) || self.decls.contains(id) {
                let bound = self.resolve(id);
                env.insert(id, bound);
            }
        }
        eval_expr(toks, &env)
    }

    fn resolve(&mut self, var: &'e str) -> Option<Affine> {
        if let Some(c) = self.cache.get(var) {
            return c.clone();
        }
        if self.resolving.contains(&var) {
            return None; // cycle through mutually-defined variables
        }
        self.resolving.push(var);
        let r = self.resolve_inner(var);
        self.resolving.pop();
        self.cache.insert(var, r.clone());
        r
    }

    fn resolve_inner(&mut self, var: &'e str) -> Option<Affine> {
        if let Some(ind) = self.inductions.get(var).copied() {
            let init = self.eval(ind.init)?;
            let bound = self.eval(ind.bound)?;
            let mut trip_span = bound.sub(&init);
            if ind.inclusive {
                trip_span = trip_span.add(&Affine::uniform(Lin::constant(1)));
            }
            if !trip_span.coef.is_empty() {
                return None; // trip count varies per thread — out of domain
            }
            let mut trips = trip_span.base;
            if ind.step > 1 {
                let d = trips.as_const()?;
                trips = Lin::constant((d + ind.step - 1).div_euclid(ind.step));
            }
            let sym = self.fresh_sym(var);
            self.ranges.insert(
                sym.clone(),
                (Lin::constant(0), trips.sub(&Lin::constant(1))),
            );
            self.modelled_conds.insert(ind.cond);
            let mut stride = Affine::index(&sym);
            stride.coef.insert(sym, Lin::constant(ind.step));
            return Some(init.add(&stride));
        }
        match self.defs.get(var).map(Vec::as_slice) {
            Some(&[only]) => self.eval(only),
            _ => None, // never assigned, or multiply assigned outside a modelled loop
        }
    }

    /// A range symbol for `var`, suffixed on collision so two loops named
    /// `i` in sibling scopes stay distinct.
    fn fresh_sym(&self, var: &str) -> String {
        if !self.ranges.contains_key(var) {
            return var.to_string();
        }
        let mut n = 2;
        loop {
            let s = format!("{var}#{n}");
            if !self.ranges.contains_key(&s) {
                return s;
            }
            n += 1;
        }
    }
}

/// Whether an assignment target is a plain identifier (a scalar def).
fn is_plain_ident(lhs: &str) -> bool {
    !lhs.is_empty()
        && lhs.chars().all(|c| c.is_alphanumeric() || c == '_')
        && !lhs.starts_with(|c: char| c.is_ascii_digit())
}

/// Splits a loop condition of the shape `var < bound` / `var <= bound`.
fn parse_loop_cond<'e>(cond: &'e [Token<'e>]) -> Option<(&'e str, bool, &'e [Token<'e>])> {
    let [var, op, bound @ ..] = cond else {
        return None;
    };
    if var.kind != Kind::Ident || bound.is_empty() {
        return None;
    }
    let inclusive = match op.text {
        "<" if op.kind == Kind::Punct => false,
        "<=" if op.kind == Kind::Punct => true,
        _ => return None,
    };
    Some((var.text, inclusive, bound))
}

/// Reads a self-step `var + c` / `var + (c)` (the normalised forms of
/// `var++`, `var += c`), returning the constant step.
fn parse_step(var: &str, rhs: &[Token<'_>]) -> Option<i64> {
    let [v, plus, rest @ ..] = rhs else {
        return None;
    };
    if !v.is_ident(var) || !plus.is_punct("+") {
        return None;
    }
    let inner = match rest {
        [open, mid @ .., close] if open.is_punct("(") && close.is_punct(")") => mid,
        other => other,
    };
    match inner {
        [n] if n.kind == Kind::Number => n.text.parse().ok(),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::first_kernel;

    #[test]
    fn grid_stride_store_is_block_partitioned() {
        let fp = first_kernel(
            r#"
__global__ void k(float *out) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    out[i] = 1.0f;
}
"#,
        )
        .footprint;
        assert_eq!(fp.stores.len(), 1);
        let s = &fp.stores[0];
        assert_eq!(s.ptr, "out");
        assert_eq!(s.elem_size, 4);
        assert!(s.exact);
        let a = s.index.as_ref().unwrap();
        assert!(cross_block_disjoint(a, &fp.ranges));
        assert!(fp.block_partitioned);
    }

    #[test]
    fn per_block_loop_partition_proves_with_zero_slack() {
        // blockIdx.x * n + j with j < n: stride n exactly covers width n.
        let fp = first_kernel(
            r#"
__global__ void k(float *out, int n) {
    for (int j = 0; j < n; j++) {
        out[blockIdx.x * n + j] = 1.0f;
    }
}
"#,
        )
        .footprint;
        let s = &fp.stores[0];
        assert!(s.exact, "the loop guard is modelled");
        assert!(fp.block_partitioned);
        // The full range is quadratic (n · (gridDim.x − 1)) and stays out
        // of the linear domain; the per-block width is what disjointness
        // reasons over.
        assert!(fp.elem_range(s).is_none());
        let mut rest = s.index.clone().unwrap();
        rest.coef.remove("blockIdx.x");
        let (lo, hi) = elem_range(&rest, &fp.ranges).unwrap();
        assert_eq!(lo.to_string(), "0");
        assert_eq!(hi.to_string(), "n - 1");
    }

    #[test]
    fn same_address_store_is_not_partitioned() {
        let fp = first_kernel(
            r#"
__global__ void k(int *flag) {
    flag[0] = 1;
}
"#,
        )
        .footprint;
        let s = &fp.stores[0];
        let a = s.index.as_ref().unwrap();
        assert!(a.coef.is_empty(), "constant index");
        assert!(!cross_block_disjoint(a, &fp.ranges));
        assert!(!fp.block_partitioned);
    }

    #[test]
    fn data_dependent_index_is_opaque() {
        let fp = first_kernel(
            r#"
__global__ void k(float *dst, const int *ptr) {
    int row = blockIdx.x;
    for (int j = ptr[row]; j < ptr[row + 1]; j++) {
        dst[j] = 1.0f;
    }
}
"#,
        )
        .footprint;
        assert!(fp.stores[0].index.is_none());
        assert!(!fp.block_partitioned);
    }

    #[test]
    fn post_dominating_rewrite_covers_the_earlier_store() {
        let fp = first_kernel(
            r#"
__global__ void k(float *out) {
    int i = blockIdx.x;
    out[i] = 1.0f;
#pragma nvm lpcuda_checksum(+, tab, blockIdx.x)
    out[i] = 2.0f;
}
"#,
        )
        .footprint;
        assert_eq!(fp.stores.len(), 2);
        assert!(!fp.stores[0].folded && fp.stores[0].covered);
        assert!(fp.stores[1].folded && fp.stores[1].covered);
        assert!(fp.fully_folded);
    }

    #[test]
    fn divergent_rewrite_does_not_cover() {
        let fp = first_kernel(
            r#"
__global__ void k(float *out, int n) {
    int i = blockIdx.x;
    out[i] = 1.0f;
    if (n > 0) {
#pragma nvm lpcuda_checksum(+, tab, blockIdx.x)
        out[i] = 2.0f;
    }
}
"#,
        )
        .footprint;
        assert!(
            !fp.stores[0].covered,
            "the rewrite does not post-dominate the first store"
        );
        assert!(!fp.stores[1].exact, "guarded by an unmodelled condition");
    }

    #[test]
    fn element_sizes_follow_declared_types() {
        let fp = first_kernel(
            r#"
__global__ void k(double *d, unsigned char *c, short *s, float *f) {
    d[blockIdx.x] = 1.0;
    c[blockIdx.x] = 1;
    s[blockIdx.x] = 1;
    f[blockIdx.x] = 1.0f;
}
"#,
        )
        .footprint;
        let sizes: Vec<u64> = fp.stores.iter().map(|s| s.elem_size).collect();
        assert_eq!(sizes, vec![8, 1, 2, 4]);
    }

    #[test]
    fn concretisation_enumerates_the_launch() {
        let fp = first_kernel(
            r#"
__global__ void k(float *out, int n) {
    for (int j = 0; j < n; j++) {
        out[blockIdx.x * n + j] = 1.0f;
    }
}
"#,
        )
        .footprint;
        let mut vals = BTreeMap::new();
        vals.insert("n".to_string(), 3);
        vals.insert("gridDim.x".to_string(), 2);
        vals.insert("blockDim.x".to_string(), 4);
        let got = fp.concrete_elements(&fp.stores[0], &vals, 1 << 20).unwrap();
        assert_eq!(got, (0..6).collect::<BTreeSet<i64>>());
    }

    #[test]
    fn stepped_loops_model_strided_elements() {
        let fp = first_kernel(
            r#"
__global__ void k(float *out) {
    for (int j = 0; j < 8; j += 2) {
        out[blockIdx.x * 8 + j] = 1.0f;
    }
}
"#,
        )
        .footprint;
        let mut vals = BTreeMap::new();
        vals.insert("gridDim.x".to_string(), 1);
        vals.insert("blockDim.x".to_string(), 1);
        let got = fp.concrete_elements(&fp.stores[0], &vals, 1 << 20).unwrap();
        assert_eq!(got, [0i64, 2, 4, 6].into_iter().collect());
    }

    #[test]
    fn multiply_assigned_variables_are_opaque() {
        let fp = first_kernel(
            r#"
__global__ void k(float *out, int n) {
    int i = blockIdx.x;
    if (n > 0) {
        i = 0;
    }
    out[i] = 1.0f;
}
"#,
        )
        .footprint;
        assert!(fp.stores[0].index.is_none());
    }
}
