//! Interprocedural call graph and effect summaries over `__device__`
//! helpers.
//!
//! The intra-kernel rules (LP010–LP014) see one `__global__` body at a
//! time, so a store buried in a `__device__` helper is invisible to them —
//! the classic escape hatch for a persist-order bug. The source analysis
//! lowers each `__device__` function definition through the same
//! mini-IR/CFG pipeline as the kernels, and this module computes a
//! **context-insensitive effect summary** per function:
//!
//! * which *parameters* the function stores through (directly or via its
//!   own callees),
//! * whether a checksum fold or a fence executes inside it, and at what
//!   scope,
//! * which helpers it calls.
//!
//! Summaries close transitively over the call graph by fixpoint, so a
//! store three helpers deep still surfaces at the kernel's call site. The
//! contract rules (LP016–LP021) consume the result: a call argument whose
//! root identifier is a kernel pointer parameter, passed into a stored-to
//! parameter slot, is an interprocedural persistent store.

use super::cfg::{Cfg, NodeKind};
use super::ir::{FenceScope, KernelIr};
use crate::lexer::{value_identifiers, Expr, Token};
use std::collections::BTreeMap;

/// One call site recorded in a summary.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// Callee name.
    pub callee: String,
    /// The root identifier of each argument ([`arg_root`]).
    pub arg_roots: Vec<Option<String>>,
}

/// The transitive effect summary of one `__device__` function.
#[derive(Debug, Clone, Default)]
pub struct FnSummary {
    /// Parameter names, in declaration order.
    pub params: Vec<String>,
    /// Indices into `params` the function stores through, directly or via
    /// any callee (context-insensitive: any call marks the slot).
    pub stores_to: Vec<usize>,
    /// Whether an `lpcuda_checksum` fold executes inside the function or
    /// any callee.
    pub has_fold: bool,
    /// The strongest fence scope executed inside the function or any
    /// callee, when one exists.
    pub max_fence: Option<FenceScope>,
    /// Direct call sites inside the function body.
    pub calls: Vec<CallSite>,
}

/// Builds the transitively-closed summary map over the lowered
/// `__device__` functions of one source.
pub(super) fn summarize_device_fns(fns: &[(KernelIr<'_>, Cfg<'_>)]) -> BTreeMap<String, FnSummary> {
    let mut out: BTreeMap<String, FnSummary> = BTreeMap::new();
    for (ir, cfg) in fns {
        let mut s = FnSummary {
            params: ir.param_names.clone(),
            ..FnSummary::default()
        };
        for node in &cfg.nodes {
            match &node.kind {
                NodeKind::Store { ptr, .. } => {
                    if let Some(idx) = s.params.iter().position(|p| p == ptr) {
                        if !s.stores_to.contains(&idx) {
                            s.stores_to.push(idx);
                        }
                    }
                }
                NodeKind::Fold { .. } => s.has_fold = true,
                NodeKind::Fence { scope } => {
                    s.max_fence = Some(s.max_fence.map_or(*scope, |m| m.max(*scope)));
                }
                NodeKind::Call { name, args } => s.calls.push(CallSite {
                    callee: name.to_string(),
                    arg_roots: args
                        .iter()
                        .map(|a| arg_root(&a.toks).map(str::to_string))
                        .collect(),
                }),
                _ => {}
            }
        }
        s.stores_to.sort_unstable();
        out.insert(ir.name.clone(), s);
    }
    close_summaries(&mut out);
    out
}

/// Fixpoint: propagates callee effects (stored-to slots, folds, fences)
/// up through callers until nothing changes.
fn close_summaries(fns: &mut BTreeMap<String, FnSummary>) {
    let names: Vec<String> = fns.keys().cloned().collect();
    let mut changed = true;
    while changed {
        changed = false;
        for name in &names {
            let caller = fns.get(name).cloned().expect("caller present");
            let mut stores_to = caller.stores_to.clone();
            let mut has_fold = caller.has_fold;
            let mut max_fence = caller.max_fence;
            for call in &caller.calls {
                let Some(callee) = fns.get(&call.callee) else {
                    continue;
                };
                has_fold |= callee.has_fold;
                if let Some(f) = callee.max_fence {
                    max_fence = Some(max_fence.map_or(f, |m| m.max(f)));
                }
                for &slot in &callee.stores_to {
                    let Some(Some(root)) = call.arg_roots.get(slot) else {
                        continue;
                    };
                    if let Some(idx) = caller.params.iter().position(|p| p == root) {
                        if !stores_to.contains(&idx) {
                            stores_to.push(idx);
                        }
                    }
                }
            }
            stores_to.sort_unstable();
            let entry = fns.get_mut(name).expect("caller present");
            if stores_to != entry.stores_to
                || has_fold != entry.has_fold
                || max_fence != entry.max_fence
            {
                entry.stores_to = stores_to;
                entry.has_fold = has_fold;
                entry.max_fence = max_fence;
                changed = true;
            }
        }
    }
}

/// The root identifier of an argument expression: the first value
/// identifier (`out` for `&out[i]`, `out + 4`, `out`). `None` for
/// literal-only arguments.
pub fn arg_root<'a>(arg: &[Token<'a>]) -> Option<&'a str> {
    value_identifiers(arg).first().copied()
}

/// The stores a call makes through the *caller's* pointer parameters:
/// for each stored-to slot of `callee`, the caller parameter the matching
/// argument is rooted at. Returns `(caller_param, callee_param)` pairs.
pub fn escaping_stores(
    callee: &FnSummary,
    args: &[Expr<'_>],
    caller_pointer_params: &[String],
) -> Vec<(String, String)> {
    let mut out = Vec::new();
    for &slot in &callee.stores_to {
        let Some(arg) = args.get(slot) else { continue };
        let Some(root) = arg_root(&arg.toks) else {
            continue;
        };
        if caller_pointer_params.iter().any(|p| p == root) {
            let callee_param = callee
                .params
                .get(slot)
                .cloned()
                .unwrap_or_else(|| format!("#{slot}"));
            out.push((root.to_string(), callee_param));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::SourceAnalysis;
    use crate::kernel_scan::scan;
    use crate::lexer::tokenize;

    fn summaries(src: &str) -> BTreeMap<String, FnSummary> {
        SourceAnalysis::new(src).unwrap().fns
    }

    const HELPERS: &str = r#"
__device__ void sink(float *dst, int i, float v) {
    dst[i] = v;
}

__device__ void relay(float *buf, int i) {
    sink(buf, i, 1.0f);
}

__device__ float pure_read(const float *src, int i) {
    return src[i];
}

__device__ void fenced(float *dst, int i) {
    dst[i] = 2.0f;
    __threadfence();
}

__global__ void k(float *out, float *in, int n) {
    relay(out, threadIdx.x);
}
"#;

    #[test]
    fn finds_device_functions_not_kernels_or_prototypes() {
        let fns = scan(HELPERS).unwrap().device_fns;
        let names: Vec<&str> = fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["sink", "relay", "pure_read", "fenced"]);
    }

    #[test]
    fn prototypes_and_device_variables_are_skipped() {
        let src = r#"
__device__ int counter;
__device__ void proto(float *p, int i);
__device__ void real(float *p) {
    p[0] = 1.0f;
}
"#;
        let fns = scan(src).unwrap().device_fns;
        assert_eq!(fns.len(), 1);
        assert_eq!(fns[0].name, "real");
    }

    #[test]
    fn direct_store_summary() {
        let fns = summaries(HELPERS);
        let sink = &fns["sink"];
        assert_eq!(sink.params, vec!["dst", "i", "v"]);
        assert_eq!(sink.stores_to, vec![0]);
        assert!(!sink.has_fold);
        assert!(fns["pure_read"].stores_to.is_empty());
    }

    #[test]
    fn stores_propagate_transitively_through_the_call_graph() {
        let fns = summaries(HELPERS);
        let relay = &fns["relay"];
        assert_eq!(relay.stores_to, vec![0], "sink's store surfaces in relay");
    }

    #[test]
    fn fence_scope_propagates_to_callers() {
        let fns = summaries(
            r#"
__device__ void leaf(float *p) {
    p[0] = 1.0f;
    __threadfence_block();
}
__device__ void mid(float *p) {
    leaf(p);
    __threadfence();
}
__device__ void top(float *p) {
    mid(p);
}
"#,
        );
        assert_eq!(fns["leaf"].max_fence, Some(FenceScope::Block));
        assert_eq!(fns["mid"].max_fence, Some(FenceScope::Device));
        assert_eq!(fns["top"].max_fence, Some(FenceScope::Device));
        assert_eq!(fns["top"].stores_to, vec![0]);
    }

    #[test]
    fn recursion_terminates() {
        let fns = summaries(
            r#"
__device__ void ping(float *p, int i) {
    pong(p, i);
}
__device__ void pong(float *p, int i) {
    if (i > 0) {
        p[i] = 1.0f;
        ping(p, i - 1);
    }
}
"#,
        );
        assert_eq!(fns["ping"].stores_to, vec![0]);
        assert_eq!(fns["pong"].stores_to, vec![0]);
    }

    #[test]
    fn escaping_stores_maps_arguments_to_caller_params() {
        let fns = summaries(HELPERS);
        let esc = escaping_stores(
            &fns["relay"],
            &[Expr::lex("out", 1), Expr::lex("threadIdx.x", 1)],
            &["out".to_string(), "in".to_string()],
        );
        assert_eq!(esc, vec![("out".to_string(), "buf".to_string())]);
        // A literal or local argument escapes nothing.
        let esc = escaping_stores(
            &fns["relay"],
            &[Expr::lex("tmp", 1), Expr::lex("0", 1)],
            &["out".to_string()],
        );
        assert!(esc.is_empty());
    }

    #[test]
    fn arg_roots() {
        assert_eq!(arg_root(&tokenize("&out[i]")), Some("out"));
        assert_eq!(arg_root(&tokenize("out + 4")), Some("out"));
        assert_eq!(arg_root(&tokenize("42")), None);
    }

    #[test]
    fn device_mentions_inside_comments_are_not_definitions() {
        let src = r#"
/* This helper calls a __device__ function that validates (spans
 * multiple lines). */
// another __device__ mention(here)
__device__ void real(float *p, int i) {
    p[i] = 1.0f;
}
"#;
        let fns = summaries(src);
        assert_eq!(fns.len(), 1, "got: {fns:#?}");
        assert_eq!(fns["real"].stores_to, vec![0]);
    }
}
