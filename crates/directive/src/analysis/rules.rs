//! The flow-sensitive LP-safety rules, LP010–LP014 and LP022–LP024.
//!
//! Each rule reads one kernel's facts (CFG, dominators/post-dominators,
//! taint, footprint) and proves a *structural* property — no inputs, no
//! execution. The static rules deliberately mirror the dynamic sanitizer's
//! passes where a structural proof exists (LP011 ↔ coverage, LP013/LP023 ↔
//! global-conflict, LP022 ↔ bounds) and cover the divergence/ordering
//! hazards the sanitizer can only witness on inputs that happen to trigger
//! them (LP010, LP012, LP014). See `DESIGN.md` §3.6 for the coverage
//! table and the footprint engine the byte-precise rules (LP011, LP013,
//! LP022–LP024) are built on.

use super::cfg::NodeKind;
use super::footprint::{self, StoreFootprint};
use super::symbolic::Lin;
use super::{contract, span_at, KernelFacts};
use crate::error::{Diagnostic, Edit, Suggestion};
use crate::lexer::{value_identifiers, Token};
use std::collections::BTreeMap;

/// Built-in index variables — uniform or defined by the launch, never a
/// local definition the dominance rules should demand.
const BUILTINS: [&str; 5] = ["threadIdx", "blockIdx", "blockDim", "gridDim", "warpSize"];

/// Runs the flow-sensitive rules over one kernel.
pub(crate) fn analyze_kernel(lines: &[&str], k: &KernelFacts, out: &mut Vec<Diagnostic>) {
    lp010_barrier_divergence(k, lines, out);
    if k.is_protected() {
        lp011_uncovered_store(k, lines, out);
        lp012_divergent_fold(k, lines, out);
        lp014_fold_before_store(k, lines, out);
        lp024_fold_mismatch(k, lines, out);
    }
    lp013_cross_block_conflict(k, lines, out);
    lp022_out_of_bounds(k, lines, out);
    lp023_same_address_threads(k, lines, out);
}

/// LP010: `__syncthreads()` under a thread-dependent condition. Threads
/// that take the other arm never reach the barrier — deadlock or undefined
/// behaviour on real hardware.
fn lp010_barrier_divergence(k: &KernelFacts, lines: &[&str], out: &mut Vec<Diagnostic>) {
    let (cfg, thread) = (&k.cfg, k.thread());
    for (id, node) in cfg.nodes.iter().enumerate() {
        if !matches!(node.kind, NodeKind::Sync) {
            continue;
        }
        if let Some(guard) = thread.tainted_guard(cfg, id) {
            out.push(Diagnostic {
                code: "LP010",
                span: span_at(lines, node.line, "__syncthreads"),
                message: format!(
                    "__syncthreads() under the thread-dependent condition `{guard}`; \
                     threads that skip the branch never reach the barrier — \
                     hoist the barrier out of the divergent branch or make the \
                     condition uniform across the block"
                ),
                suggestion: None,
            });
        }
    }
}

/// LP011: a global store in an LP-protected kernel whose *final bytes* no
/// checksum fold covers. A crash that loses the store's line still
/// validates, so recovery silently returns wrong data — the exact false
/// negative the dynamic coverage pass hunts, proven from structure alone.
///
/// Byte-precision comes from the footprint engine: a store is covered not
/// only when a fold attaches to it directly, but also when a
/// post-dominating folded store provably rewrites the same elements (the
/// overwrite is what persists, and *it* is folded). Only genuinely
/// unfolded final bytes are flagged.
fn lp011_uncovered_store(k: &KernelFacts, lines: &[&str], out: &mut Vec<Diagnostic>) {
    let (cfg, fp, pdom) = (&k.cfg, &k.footprint, &k.pdom);
    let folds: Vec<(usize, &str)> = cfg
        .nodes
        .iter()
        .enumerate()
        .filter_map(|(id, n)| match &n.kind {
            NodeKind::Fold { table, .. } => Some((id, *table)),
            _ => None,
        })
        .collect();
    for store in &fp.stores {
        if store.covered {
            continue;
        }
        let node = &cfg.nodes[store.node];
        let NodeKind::Store { ptr, lhs, .. } = &node.kind else {
            continue;
        };
        let table = folds.first().map(|(_, t)| *t).unwrap_or("tab");
        let fix_pragma = format!("#pragma nvm lpcuda_checksum(\"+\", {table}, blockIdx.x)");
        let mut message = format!(
            "global store `{lhs}` in LP-protected kernel `{}` is never folded \
             into a checksum: a crash that loses it still validates and \
             recovery silently drops the value; protect it with \
             `{fix_pragma}` immediately before the store",
            k.ir.name
        );
        if let Some((fid, _)) = folds
            .iter()
            .find(|(fid, _)| pdom[store.node].contains(*fid))
        {
            let fold_line = cfg.nodes[*fid].line;
            message.push_str(&format!(
                " (the fold on line {fold_line} runs after this store on \
                 every path, but folds different bytes)"
            ));
        }
        out.push(Diagnostic {
            code: "LP011",
            span: span_at(lines, node.line, ptr),
            message,
            suggestion: Some(Suggestion {
                message: format!("insert a checksum fold before the store of `{lhs}`"),
                edits: vec![Edit::InsertBefore {
                    line: node.line,
                    text: fix_pragma,
                }],
            }),
        });
    }
}

/// LP012: a checksum fold under thread-dependent control. Threads that
/// skip the fold leave their stores out of the block reduction, so the
/// table entry is persistently wrong even without a crash.
fn lp012_divergent_fold(k: &KernelFacts, lines: &[&str], out: &mut Vec<Diagnostic>) {
    let (cfg, thread) = (&k.cfg, k.thread());
    for (id, node) in cfg.nodes.iter().enumerate() {
        let NodeKind::Fold { table, .. } = &node.kind else {
            continue;
        };
        if let Some(guard) = thread.tainted_guard(cfg, id) {
            out.push(Diagnostic {
                code: "LP012",
                span: span_at(lines, node.line, "lpcuda_checksum"),
                message: format!(
                    "checksum fold into `{table}` under the thread-dependent \
                     condition `{guard}`: threads that skip it contribute \
                     nothing to the block reduction and the table entry never \
                     matches recomputation; restructure so every thread \
                     reaches the fold, or make the condition uniform"
                ),
                suggestion: None,
            });
        }
    }
}

/// LP013: a plain global store that every block provably writes at the
/// same addresses — the unsynchronised cross-block conflict the
/// sanitizer's global-conflict pass detects dynamically.
///
/// The proof runs in three tiers. A `blockIdx`-dependent enclosing guard
/// (e.g. `if (blockIdx.x == 0)`) restricts the writers and exempts the
/// store outright. Otherwise, when the footprint engine knows the store's
/// affine form, the answer is exact: a zero `blockIdx` coefficient *is*
/// full overlap (flag), a stride that provably clears the per-block width
/// is disjointness (quiet), and an unprovable stride stays quiet — no
/// claim without a proof. Only opaque indexes fall back to the old taint
/// approximation.
fn lp013_cross_block_conflict(k: &KernelFacts, lines: &[&str], out: &mut Vec<Diagnostic>) {
    let (cfg, block, fp) = (&k.cfg, k.block(), &k.footprint);
    for store in &fp.stores {
        let node = &cfg.nodes[store.node];
        let NodeKind::Store {
            ptr, index, lhs, ..
        } = &node.kind
        else {
            continue;
        };
        if block.tainted_guard(cfg, store.node).is_some() {
            continue; // a blockIdx-dependent guard restricts the writers
        }
        let overlaps = match &store.index {
            // The affine form is known: exact answer. Flag only the
            // provable full overlap (no blockIdx dependence at all).
            Some(a) => a.coef.keys().all(|s| !s.starts_with("blockIdx.")),
            // Opaque index: the conservative taint approximation.
            None => !block.expr_tainted(&index.toks),
        };
        if !overlaps {
            continue;
        }
        let detail = if let Some(affine) = &store.index {
            format!(
                "its footprint `{affine}` has no blockIdx term, so the element set \
                 is identical in every block"
            )
        } else {
            format!("the index `{index}` does not depend on blockIdx and no enclosing condition does either")
        };
        out.push(Diagnostic {
            code: "LP013",
            span: span_at(lines, node.line, ptr),
            message: format!(
                "store `{lhs}` in kernel `{}` writes the same address in \
                 every block: {detail}, so concurrent blocks race on the \
                 location; partition the buffer by blockIdx or guard the \
                 store with `if (blockIdx.x == 0)`",
                k.ir.name
            ),
            suggestion: None,
        });
    }
}

/// LP014: a checksum fold whose folded value has no definition dominating
/// the fold site. On the paths that skip the definition, the checksum
/// accumulates an indeterminate value, so validation can neither pass nor
/// fail meaningfully.
fn lp014_fold_before_store(k: &KernelFacts, lines: &[&str], out: &mut Vec<Diagnostic>) {
    let (cfg, dom) = (&k.cfg, k.dom());
    let declared: Vec<&str> = cfg
        .nodes
        .iter()
        .filter_map(|n| match &n.kind {
            NodeKind::DeclOnly { var } => Some(*var),
            _ => None,
        })
        .collect();
    for node in &cfg.nodes {
        let NodeKind::Fold {
            store: Some(sid), ..
        } = &node.kind
        else {
            continue;
        };
        let NodeKind::Store { rhs, .. } = &cfg.nodes[*sid].kind else {
            continue;
        };
        let store_line = cfg.nodes[*sid].line;
        for var in value_identifiers(&rhs.toks) {
            if BUILTINS.contains(&var) || k.ir.param_names.iter().any(|p| p == var) {
                continue;
            }
            let defs: Vec<usize> = cfg
                .nodes
                .iter()
                .enumerate()
                .filter_map(|(id, n)| match &n.kind {
                    NodeKind::Def { var: v, .. } if *v == var => Some(id),
                    _ => None,
                })
                .collect();
            if defs.is_empty() && !declared.contains(&var) {
                continue; // an external constant or macro, not a local
            }
            if defs.iter().any(|d| dom[*sid].contains(*d)) {
                continue; // some definition reaches the fold on every path
            }
            let detail = if defs.is_empty() {
                "it is declared but never assigned".to_string()
            } else {
                let def_lines: Vec<String> = defs
                    .iter()
                    .map(|d| cfg.nodes[*d].line.to_string())
                    .collect();
                format!(
                    "its only definitions (line {}) are conditional",
                    def_lines.join(", line ")
                )
            };
            out.push(Diagnostic {
                code: "LP014",
                span: span_at(lines, store_line, var),
                message: format!(
                    "checksum folds `{var}` but no definition of `{var}` \
                     dominates the fold — {detail}; on the paths that skip \
                     the definition the checksum accumulates an indeterminate \
                     value, so define `{var}` unconditionally before the \
                     protected store"
                ),
                suggestion: None,
            });
        }
    }
}

/// LP022: a store through a declared persist region provably lands outside
/// the region's bounds — the GPU memory-safety class GPUArmor reports
/// dominating real-world kernels, caught before any execution.
///
/// The proof needs an exact footprint (every guard is a modelled loop
/// condition), an affine index, and a launch-uniform region bound; the
/// maximum reachable element index is then compared symbolically against
/// the bound. Under-declared regions are the common case — the fix widens
/// the declaration to cover the proven maximum.
fn lp022_out_of_bounds(k: &KernelFacts, lines: &[&str], out: &mut Vec<Diagnostic>) {
    let fp = &k.footprint;
    for (rline, ptr, nelems) in &k.ir.regions {
        let Some(bound) = pure_uniform(&nelems.toks) else {
            continue; // a bound the engine cannot compare against
        };
        for store in fp.stores.iter().filter(|s| s.ptr == *ptr) {
            if !store.exact {
                continue; // an unmodelled guard may exclude the extreme index
            }
            let Some((_, hi)) = fp.elem_range(store) else {
                continue;
            };
            // 0-based indices: any reachable index ≥ nelems is out of
            // bounds (for every launch that reaches the store at all).
            if !hi.sub(&bound).provably_nonneg() {
                continue;
            }
            let widened = hi.add(&Lin::constant(1));
            let node_line = store.line;
            let region_text = lines.get(rline.wrapping_sub(1)).copied().unwrap_or("");
            let fixed_region = format!(
                "{}#pragma nvm lpcuda_region({ptr}, {widened})",
                &region_text[..region_text.len() - region_text.trim_start().len()]
            );
            out.push(Diagnostic {
                code: "LP022",
                span: span_at(lines, node_line, &store.lhs),
                message: format!(
                    "store `{}` reaches element index `{hi}` but the region \
                     declared on line {rline} spans only `{nelems}` elements \
                     of `{ptr}`: the store lands outside the persist region, \
                     so it is never covered by recovery and may corrupt an \
                     adjacent allocation; widen the region to `{widened}` \
                     elements or shrink the store's index range",
                    store.lhs
                ),
                suggestion: Some(Suggestion {
                    message: format!("widen the `{ptr}` region to `{widened}` elements"),
                    edits: vec![Edit::ReplaceLine {
                        line: *rline,
                        text: fixed_region,
                    }],
                }),
            });
        }
    }
}

/// LP023: distinct threads of one block provably store to the same
/// address with thread-varying values — a static data-race / torn-line
/// proof. The footprint shows the element index is identical for every
/// thread (no `threadIdx` term, no thread-dependent guard filtering the
/// writers down to one), while the stored value differs per thread, so
/// the final bytes depend on warp scheduling.
fn lp023_same_address_threads(k: &KernelFacts, lines: &[&str], out: &mut Vec<Diagnostic>) {
    let (cfg, thread, fp) = (&k.cfg, k.thread(), &k.footprint);
    for store in &fp.stores {
        let Some(a) = &store.index else { continue };
        if a.depends_on_thread() {
            continue; // threads write distinct elements
        }
        let node = &cfg.nodes[store.node];
        let NodeKind::Store { ptr, lhs, rhs, .. } = &node.kind else {
            continue;
        };
        if thread.tainted_guard(cfg, store.node).is_some() {
            continue; // a thread-dependent guard restricts the writers
        }
        if !thread.expr_tainted(&rhs.toks) {
            continue; // every thread writes the same value — benign
        }
        out.push(Diagnostic {
            code: "LP023",
            span: span_at(lines, node.line, ptr),
            message: format!(
                "store `{lhs}` in kernel `{}` writes the thread-dependent \
                 value `{rhs}` to the same element (footprint `{a}` has no \
                 threadIdx term) from every thread of the block: the final \
                 bytes depend on warp scheduling and a crash can persist a \
                 torn line; index the store by threadIdx or restrict the \
                 writer with `if (threadIdx.x == 0)`",
                k.ir.name
            ),
            suggestion: None,
        });
    }
}

/// LP024: a checksum fold whose byte-claim does not match the bytes'
/// final values — the fold footprint is not contained in the *final*
/// store footprint. Two shapes: a dangling fold that attaches to no
/// store at all (it claims bytes nothing writes), and a fold whose
/// store's elements are provably rewritten later (folded value ≠ final
/// value, so recovery validation false-fails even without a crash).
fn lp024_fold_mismatch(k: &KernelFacts, lines: &[&str], out: &mut Vec<Diagnostic>) {
    let (cfg, fp) = (&k.cfg, &k.footprint);
    let by_node: BTreeMap<usize, &StoreFootprint> = fp.stores.iter().map(|s| (s.node, s)).collect();
    for node in &cfg.nodes {
        let NodeKind::Fold { table, store, .. } = &node.kind else {
            continue;
        };
        let Some(sid) = store else {
            out.push(Diagnostic {
                code: "LP024",
                span: span_at(lines, node.line, "lpcuda_checksum"),
                message: format!(
                    "checksum fold into `{table}` attaches to no global \
                     store: the next statement is not a store, so the fold \
                     claims bytes nothing writes and the table entry never \
                     matches recomputation; move the pragma immediately \
                     before the store it protects"
                ),
                suggestion: Some(Suggestion {
                    message: "remove the dangling fold".into(),
                    edits: vec![Edit::DeleteLine { line: node.line }],
                }),
            });
            continue;
        };
        let Some(folded) = by_node.get(sid) else {
            continue;
        };
        // A later store that provably rewrites the folded elements makes
        // the folded value stale: validation recomputes from the final
        // bytes and can never match the accumulated checksum.
        let reach = contract::reachable_from(cfg, *sid);
        let rewrite = fp.stores.iter().find(|later| {
            later.node != *sid && reach[later.node] && footprint::same_elements(later, folded)
        });
        if let Some(rw) = rewrite {
            let verb = if rw.folded {
                "and is folded again — the checksum accumulates both values \
                 while recomputation sees only the last"
            } else {
                "without a fold — the checksum keeps the stale value"
            };
            // The fix moves the fold to the final store: delete here and,
            // when the rewrite is unfolded, re-insert before it.
            let mut edits = vec![Edit::DeleteLine { line: node.line }];
            if !rw.folded {
                let pragma_text = lines
                    .get(node.line.wrapping_sub(1))
                    .map(|l| l.trim().to_string())
                    .unwrap_or_default();
                edits.push(Edit::InsertBefore {
                    line: rw.line,
                    text: pragma_text,
                });
            }
            out.push(Diagnostic {
                code: "LP024",
                span: span_at(lines, node.line, "lpcuda_checksum"),
                message: format!(
                    "checksum fold into `{table}` covers bytes that the \
                     store on line {} provably rewrites {verb}; recovery \
                     validation false-fails even without a crash: fold only \
                     the final store of each element",
                    rw.line
                ),
                suggestion: Some(Suggestion {
                    message: "fold the final store instead of this one".into(),
                    edits,
                }),
            });
        }
    }
}

/// Evaluates an expression as a pure launch-uniform linear form (no
/// `threadIdx`/`blockIdx`/loop terms) — region bounds must be uniform.
fn pure_uniform(expr: &[Token<'_>]) -> Option<Lin> {
    let a = super::symbolic::eval_expr(expr, &BTreeMap::new())?;
    a.coef.is_empty().then_some(a.base)
}
