//! Contract-aware persist-order rules LP016–LP021.
//!
//! PR 5 generalised the paper's single durability story into per-backend
//! [`DurabilityContract`]s; this module statically checks, per kernel and
//! per contract, that every persistent store is ordered before the
//! backend's *durability point* — the checksum fold for LP, the
//! epoch-closing fence for epoch, the release-scope drain for SBRP, the
//! commit-token publication for eager. The backend is resolved from an
//! `lpcuda_mode` pin inside the kernel body, or defaults to LP when the
//! kernel carries `lpcuda_checksum` folds.
//!
//! The analysis is flow-sensitive over the kernel CFG and interprocedural
//! through the `__device__` summaries of [`super::interproc`]: a call to a
//! helper that stores through a pointer argument *is* a persistent store,
//! and a call to a helper that fences *is* a fence of that scope.
//!
//! | code  | finding                                                       |
//! |-------|---------------------------------------------------------------|
//! | LP016 | store escapes the checksum fold via a helper call             |
//! | LP017 | fence/release scope too narrow for the addressed buffer level |
//! | LP018 | commit token published before a reachable store drains        |
//! | LP019 | epoch left open across a loop back edge                       |
//! | LP020 | fold reachable from two divergent store paths                 |
//! | LP021 | `lpcuda_mode` pin the kernel body provably cannot satisfy     |

use super::cfg::{Cfg, NodeKind};
use super::interproc::{escaping_stores, FnSummary};
use super::ir::{FenceScope, KernelIr};
use super::taint::Taint;
use super::{span_at, KernelFacts};
use crate::error::Diagnostic;
use gpu_lp::{BackendKind, DurabilityContract};
use std::collections::BTreeMap;

/// Maps a pinned mode name to the backend whose contract the persist-order
/// rules check. `checkpoint` and `adaptive` resolve to `None`: checkpoint
/// durability is a host-side interval policy and adaptive defers the choice
/// to the runtime, so neither yields a static per-store obligation.
pub fn mode_backend(mode: &str) -> Option<BackendKind> {
    match mode {
        "lp" => Some(BackendKind::LpChecksum),
        "epoch" => Some(BackendKind::Epoch),
        "eager" => Some(BackendKind::Eager),
        "sbrp" => Some(BackendKind::Sbrp),
        _ => None,
    }
}

/// Runs LP016–LP021 for one kernel.
pub(crate) fn analyze_kernel(
    lines: &[&str],
    k: &KernelFacts,
    fns: &BTreeMap<String, FnSummary>,
    out: &mut Vec<Diagnostic>,
) {
    let cfg = &k.cfg;
    let backend = match &k.pin {
        Some((_, mode)) => mode_backend(mode),
        None if k.is_protected() => Some(BackendKind::LpChecksum),
        None => None,
    };
    if let Some((pin_line, mode)) = &k.pin {
        lp021_unsatisfiable_pin(k, fns, lines, *pin_line, mode, out);
    }
    let Some(backend) = backend else { return };
    match backend {
        BackendKind::LpChecksum => {
            if k.is_protected() {
                lp016_store_escapes_fold(cfg, &k.ir, fns, lines, out);
                lp020_divergent_fold_paths(cfg, k.thread(), lines, out);
            }
        }
        BackendKind::Epoch | BackendKind::Sbrp => {
            lp017_fence_scope_too_narrow(cfg, fns, lines, backend, out);
            lp019_epoch_open_across_back_edge(cfg, fns, lines, backend, out);
        }
        BackendKind::Eager => {
            lp018_token_before_drain(cfg, fns, lines, out);
        }
        BackendKind::Adaptive => {}
    }
}

/// Fence rank of a node: 0 = none, 1 = block, 2 = device, 3 = system.
/// Calls carry their callee's (transitive) strongest fence.
fn fence_rank(node: &NodeKind, fns: &BTreeMap<String, FnSummary>) -> u8 {
    match node {
        NodeKind::Fence { scope } => scope_rank(*scope),
        NodeKind::Call { name, .. } => fns
            .get(*name)
            .and_then(|s| s.max_fence)
            .map_or(0, scope_rank),
        _ => 0,
    }
}

fn scope_rank(scope: FenceScope) -> u8 {
    match scope {
        FenceScope::Block => 1,
        FenceScope::Device => 2,
        FenceScope::System => 3,
    }
}

/// The persist-order lattice: for every node, the *weakest-path* fence
/// strength — `min` over paths to exit of the strongest fence on that
/// path (node inclusive). A store with value `< 2` has some execution
/// where nothing stronger than a block-scope fence runs after it, so its
/// line never leaves the volatile buffers before the kernel ends.
fn weakest_path_fence(cfg: &Cfg, fns: &BTreeMap<String, FnSummary>) -> Vec<u8> {
    let mut wp = vec![3u8; cfg.nodes.len()];
    wp[cfg.exit] = 0;
    let mut changed = true;
    while changed {
        changed = false;
        for id in (0..cfg.nodes.len()).rev() {
            if id == cfg.exit {
                continue;
            }
            let meet = cfg.succs[id].iter().map(|s| wp[*s]).min().unwrap_or(0);
            let val = fence_rank(&cfg.nodes[id].kind, fns).max(meet);
            if val != wp[id] {
                wp[id] = val;
                changed = true;
            }
        }
    }
    wp
}

/// Forward reachability from `from` (exclusive of `from` itself unless it
/// sits on a cycle).
pub(crate) fn reachable_from(cfg: &Cfg, from: usize) -> Vec<bool> {
    let mut seen = vec![false; cfg.nodes.len()];
    let mut stack: Vec<usize> = cfg.succs[from].clone();
    while let Some(n) = stack.pop() {
        if seen[n] {
            continue;
        }
        seen[n] = true;
        stack.extend(cfg.succs[n].iter().copied());
    }
    seen
}

/// LP016: in an LP-protected kernel, a helper call that (transitively)
/// stores through a pointer argument rooted at a kernel buffer. The
/// `lpcuda_checksum` pragma only covers the store lexically following it
/// in the kernel body, so the helper's store can never be folded — a crash
/// that loses it validates anyway, exactly the LP011 hazard with the store
/// hidden one call deep.
fn lp016_store_escapes_fold(
    cfg: &Cfg,
    ir: &KernelIr,
    fns: &BTreeMap<String, FnSummary>,
    lines: &[&str],
    out: &mut Vec<Diagnostic>,
) {
    for node in &cfg.nodes {
        let NodeKind::Call { name, args } = &node.kind else {
            continue;
        };
        let Some(callee) = fns.get(*name) else {
            continue;
        };
        for (caller_param, callee_param) in escaping_stores(callee, args, &ir.pointer_params) {
            out.push(Diagnostic {
                code: "LP016",
                span: span_at(lines, node.line, name),
                message: format!(
                    "store to `{caller_param}` escapes the checksum fold: helper \
                     `{name}` writes through its parameter `{callee_param}`, and \
                     `lpcuda_checksum` only covers the store lexically following \
                     the pragma in the kernel body; a crash that loses the \
                     helper's store still validates — inline the store into \
                     kernel `{}` or fold the written value there",
                    ir.name
                ),
                suggestion: None,
            });
        }
    }
}

/// LP017: under an epoch/SBRP pin, a persistent store whose only
/// subsequent fence on some path is block-scoped. A block-scope release
/// only drains the SM-local persist buffer into the L2-level one — still
/// volatile — so the store's line never reaches the ADR domain on that
/// path. Anchored to the narrow fence (the fix site).
fn lp017_fence_scope_too_narrow(
    cfg: &Cfg,
    fns: &BTreeMap<String, FnSummary>,
    lines: &[&str],
    backend: BackendKind,
    out: &mut Vec<Diagnostic>,
) {
    let wp = weakest_path_fence(cfg, fns);
    let mut flagged: Vec<usize> = Vec::new();
    for (id, node) in cfg.nodes.iter().enumerate() {
        let NodeKind::Store { lhs, .. } = &node.kind else {
            continue;
        };
        // The store's own rank is 0, so wp[id] == 1 means: on the weakest
        // path from here, the strongest fence after the store is block
        // scope.
        if wp[id] != 1 {
            continue;
        }
        let reach = reachable_from(cfg, id);
        let narrow = cfg
            .nodes
            .iter()
            .enumerate()
            .filter(|(fid, n)| reach[*fid] && fence_rank(&n.kind, fns) == 1)
            .map(|(fid, _)| fid)
            .next();
        let Some(fid) = narrow else { continue };
        if flagged.contains(&fid) {
            continue;
        }
        flagged.push(fid);
        let fence = &cfg.nodes[fid];
        let needle = match &fence.kind {
            NodeKind::Call { name, .. } => *name,
            _ => "__threadfence_block",
        };
        let point = DurabilityContract::of(backend).durability_point();
        out.push(Diagnostic {
            code: "LP017",
            span: span_at(lines, fence.line, needle),
            message: format!(
                "fence scope too narrow for the {} contract: store `{lhs}` \
                 (line {}) is only ordered by a block-scope fence on some \
                 path, which drains the SM-local persist buffer into the \
                 still-volatile L2 buffer and never reaches the ADR domain; \
                 the {point} needs device scope — use `__threadfence()`",
                backend.name(),
                node.line,
            ),
            suggestion: None,
        });
    }
}

/// LP018: under an eager pin, a commit-token publication (a store whose
/// target names a commit/token buffer) reachable from a data store with no
/// device-scope fence in between. The token's whole job is to *prove* the
/// data persisted first; publishing it before the drain inverts the
/// contract's ordering and a crash between the two leaves a token that
/// testifies to data the NVM never received.
fn lp018_token_before_drain(
    cfg: &Cfg,
    fns: &BTreeMap<String, FnSummary>,
    lines: &[&str],
    out: &mut Vec<Diagnostic>,
) {
    for (tid, tnode) in cfg.nodes.iter().enumerate() {
        let NodeKind::Store { ptr, lhs, .. } = &tnode.kind else {
            continue;
        };
        if !is_token_name(ptr) {
            continue;
        }
        // Walk backwards from the token store; a device-scope fence kills
        // the path, a plain data store condemns it.
        let mut stack: Vec<usize> = cfg.preds[tid].clone();
        let mut seen = vec![false; cfg.nodes.len()];
        let mut witness: Option<usize> = None;
        while let Some(n) = stack.pop() {
            if seen[n] {
                continue;
            }
            seen[n] = true;
            if fence_rank(&cfg.nodes[n].kind, fns) >= 2 {
                continue; // drained before the token on this path
            }
            if let NodeKind::Store { ptr: p, .. } = &cfg.nodes[n].kind {
                if !is_token_name(p) {
                    witness = Some(match witness {
                        Some(w) if cfg.nodes[w].line <= cfg.nodes[n].line => w,
                        _ => n,
                    });
                }
            }
            stack.extend(cfg.preds[n].iter().copied());
        }
        let Some(w) = witness else { continue };
        let NodeKind::Store { lhs: wlhs, .. } = &cfg.nodes[w].kind else {
            unreachable!("witness is a store");
        };
        out.push(Diagnostic {
            code: "LP018",
            span: span_at(lines, tnode.line, ptr),
            message: format!(
                "commit token `{lhs}` is published before the data it covers \
                 drains: store `{wlhs}` (line {}) has no device-scope fence \
                 between it and the token, so a crash after the token lands \
                 but before the write queue drains leaves a token that \
                 vouches for lost data; issue `__threadfence()` before \
                 publishing the token",
                cfg.nodes[w].line
            ),
            suggestion: None,
        });
    }
}

/// A store target that names the commit-token side of the eager protocol.
/// The heuristic is lexical by design — the verifier has no type system —
/// and documented in DESIGN §3.6: a pointer parameter whose name contains
/// `commit` or `token` (case-insensitive) publishes tokens.
pub fn is_token_name(name: &str) -> bool {
    let lower = name.to_ascii_lowercase();
    lower.contains("commit") || lower.contains("token")
}

/// LP019: under an epoch/SBRP pin, a store inside a loop with no fence
/// between it and the loop's back edge. Every iteration re-dirties lines
/// into the same never-closed epoch, so the epoch grows without bound and
/// a crash in iteration *n* loses all *n* iterations — the amortisation
/// the epoch model promises comes from closing epochs, not from skipping
/// them.
fn lp019_epoch_open_across_back_edge(
    cfg: &Cfg,
    fns: &BTreeMap<String, FnSummary>,
    lines: &[&str],
    backend: BackendKind,
    out: &mut Vec<Diagnostic>,
) {
    let mut flagged: Vec<usize> = Vec::new();
    for (hid, hnode) in cfg.nodes.iter().enumerate() {
        if !matches!(hnode.kind, NodeKind::LoopHead { .. }) {
            continue;
        }
        // The builder creates the loop head before its body, so a back
        // edge is precisely a predecessor with a larger node id.
        for &src in cfg.preds[hid].iter().filter(|p| **p > hid) {
            // Walk backwards from the back-edge source, staying inside the
            // body (ids > hid); fences close the epoch and end the walk.
            let mut stack = vec![src];
            let mut seen = vec![false; cfg.nodes.len()];
            while let Some(n) = stack.pop() {
                if n <= hid || seen[n] {
                    continue;
                }
                seen[n] = true;
                if fence_rank(&cfg.nodes[n].kind, fns) >= 1 {
                    continue;
                }
                if let NodeKind::Store { ptr, lhs, .. } = &cfg.nodes[n].kind {
                    if !flagged.contains(&n) {
                        flagged.push(n);
                        out.push(Diagnostic {
                            code: "LP019",
                            span: span_at(lines, cfg.nodes[n].line, ptr),
                            message: format!(
                                "epoch left open across the loop back edge \
                                 (line {}): store `{lhs}` reaches the next \
                                 iteration with no intervening fence, so under \
                                 the {} contract every iteration joins one \
                                 ever-growing epoch and a crash loses all of \
                                 them; close the epoch with `__threadfence()` \
                                 at the bottom of the loop body",
                                hnode.line,
                                backend.name(),
                            ),
                            suggestion: None,
                        });
                    }
                }
                stack.extend(cfg.preds[n].iter().copied());
            }
        }
    }
}

/// LP020: a checksum fold reachable from two *divergent* stores — stores
/// under thread-dependent guards with no path between them. Which value
/// the fold's table entry covers then depends on the branch each thread
/// took, so recovery's recomputation (which follows one path) can neither
/// confirm nor refute the entry.
fn lp020_divergent_fold_paths(
    cfg: &Cfg,
    thread: &Taint,
    lines: &[&str],
    out: &mut Vec<Diagnostic>,
) {
    let divergent_stores: Vec<usize> = cfg
        .nodes
        .iter()
        .enumerate()
        .filter(|(id, n)| {
            matches!(n.kind, NodeKind::Store { .. }) && thread.tainted_guard(cfg, *id).is_some()
        })
        .map(|(id, _)| id)
        .collect();
    if divergent_stores.len() < 2 {
        return;
    }
    let reach: BTreeMap<usize, Vec<bool>> = divergent_stores
        .iter()
        .map(|&s| (s, reachable_from(cfg, s)))
        .collect();
    for (fid, fnode) in cfg.nodes.iter().enumerate() {
        let NodeKind::Fold { table, .. } = &fnode.kind else {
            continue;
        };
        let feeding: Vec<usize> = divergent_stores
            .iter()
            .copied()
            .filter(|s| reach[s][fid])
            .collect();
        let pair = feeding.iter().enumerate().find_map(|(i, &a)| {
            feeding[i + 1..]
                .iter()
                .find(|&&b| !reach[&a][b] && !reach[&b][a])
                .map(|&b| (a, b))
        });
        let Some((a, b)) = pair else { continue };
        out.push(Diagnostic {
            code: "LP020",
            span: span_at(lines, fnode.line, "lpcuda_checksum"),
            message: format!(
                "checksum fold into `{table}` is reachable from divergent \
                 stores on lines {} and {} (each under a thread-dependent \
                 condition, on paths that exclude each other): the table \
                 entry covers whichever store the executing branch made, so \
                 recovery's single-path recomputation cannot validate it; \
                 give each branch its own fold or make the branch uniform",
                cfg.nodes[a].line, cfg.nodes[b].line
            ),
            suggestion: None,
        });
    }
}

/// LP021: an `lpcuda_mode` pin whose contract the kernel body provably
/// cannot satisfy — LP pinned with no reachable fold, or epoch/SBRP
/// pinned with no fence anywhere (in the body or any callee). The pin is
/// not merely slow (LP015's complaint); it is *unsound*, because the
/// contract's durability point never executes.
fn lp021_unsatisfiable_pin(
    k: &KernelFacts,
    fns: &BTreeMap<String, FnSummary>,
    lines: &[&str],
    pin_line: usize,
    mode: &str,
    out: &mut Vec<Diagnostic>,
) {
    let Some(backend) = mode_backend(mode) else {
        return;
    };
    let (cfg, ir) = (&k.cfg, &k.ir);
    let stores = cfg
        .nodes
        .iter()
        .any(|n| matches!(n.kind, NodeKind::Store { .. }))
        || cfg.nodes.iter().any(|n| match &n.kind {
            NodeKind::Call { name, args } => fns.get(*name).is_some_and(|callee| {
                !escaping_stores(callee, args, &ir.pointer_params).is_empty()
            }),
            _ => false,
        });
    if !stores {
        return; // nothing persistent to order — any contract holds vacuously
    }
    let has_fold = k.is_protected()
        || cfg.nodes.iter().any(|n| match &n.kind {
            NodeKind::Call { name, .. } => fns.get(*name).is_some_and(|s| s.has_fold),
            _ => false,
        });
    let has_fence = cfg.nodes.iter().any(|n| fence_rank(&n.kind, fns) >= 1);
    let contract = DurabilityContract::of(backend);
    let missing = match backend {
        BackendKind::LpChecksum if !has_fold => Some(
            "no `lpcuda_checksum` fold executes anywhere in the kernel or its \
             helpers, so post-crash validation has nothing to recompute against",
        ),
        BackendKind::Epoch | BackendKind::Sbrp if !has_fence => Some(
            "no fence executes anywhere in the kernel or its helpers, so every \
             store sits in an epoch/persist buffer that never closes",
        ),
        _ => None,
    };
    let Some(missing) = missing else { return };
    out.push(Diagnostic {
        code: "LP021",
        span: span_at(lines, pin_line, mode),
        message: format!(
            "kernel `{}` pins persist mode `{mode}` but cannot satisfy its \
             contract ({}): {missing}; remove the pin or add the contract's \
             durability point ({})",
            ir.name,
            contract
                .summary
                .split(';')
                .next()
                .unwrap_or(contract.summary),
            contract.durability_point(),
        ),
        suggestion: None,
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::SourceAnalysis;

    /// The contract findings alone, over every kernel of `src`.
    fn diags(src: &str) -> Vec<Diagnostic> {
        let a = SourceAnalysis::new(src).unwrap();
        let mut out = Vec::new();
        for k in a.kernels() {
            analyze_kernel(&a.scan.lines, &k, &a.fns, &mut out);
        }
        out.sort_by_key(|d| (d.span, d.code));
        out
    }

    fn codes(src: &str) -> Vec<&'static str> {
        diags(src).iter().map(|d| d.code).collect()
    }

    #[test]
    fn lp016_helper_store_escapes_the_fold() {
        let src = r#"
__device__ void spill(float *dst, int i, float v) {
    dst[i] = v;
}

__global__ void k(float *out, int n) {
    int i = blockIdx.x;
#pragma nvm lpcuda_checksum("+", tab, blockIdx.x)
    out[i] = 1.0f;
    spill(out, i + n, 2.0f);
}
"#;
        let ds = diags(src);
        let lp016: Vec<_> = ds.iter().filter(|d| d.code == "LP016").collect();
        assert_eq!(lp016.len(), 1, "got:\n{ds:?}");
        assert_eq!(lp016[0].span.line, 10);
        assert!(lp016[0].message.contains("helper `spill`"));
        assert!(lp016[0].message.contains("`out`"));
    }

    #[test]
    fn lp016_quiet_when_helper_only_reads() {
        let src = r#"
__device__ float peek(const float *src, int i) {
    return src[i];
}

__global__ void k(float *out, int n) {
    int i = blockIdx.x;
    peek(out, i);
#pragma nvm lpcuda_checksum("+", tab, blockIdx.x)
    out[i] = 1.0f;
}
"#;
        assert!(codes(src).iter().all(|c| *c != "LP016"));
    }

    #[test]
    fn lp017_block_fence_is_too_narrow_for_epoch() {
        let src = r#"
__global__ void k(float *out) {
#pragma nvm lpcuda_mode(epoch)
    int i = blockIdx.x;
    out[i] = 1.0f;
    __threadfence_block();
}
"#;
        let ds = diags(src);
        assert_eq!(ds.len(), 1, "got:\n{ds:?}");
        assert_eq!(ds[0].code, "LP017");
        assert_eq!(ds[0].span.line, 6);
        assert!(ds[0].message.contains("device scope"));
    }

    #[test]
    fn lp017_quiet_when_a_device_fence_closes_every_path() {
        let src = r#"
__global__ void k(float *out) {
#pragma nvm lpcuda_mode(epoch)
    int i = blockIdx.x;
    out[i] = 1.0f;
    __threadfence();
}
"#;
        assert_eq!(codes(src), Vec::<&str>::new());
    }

    #[test]
    fn lp018_token_published_before_the_drain() {
        let src = r#"
__global__ void k(float *data, int *commit_flags) {
#pragma nvm lpcuda_mode(eager)
    int i = blockIdx.x;
    data[i] = 1.0f;
    commit_flags[i] = 1;
    __threadfence();
}
"#;
        let ds = diags(src);
        assert_eq!(ds.len(), 1, "got:\n{ds:?}");
        assert_eq!(ds[0].code, "LP018");
        assert_eq!(ds[0].span.line, 6);
        assert!(ds[0].message.contains("commit token"));
        assert!(ds[0].message.contains("line 5"));
    }

    #[test]
    fn lp018_quiet_when_the_fence_precedes_the_token() {
        let src = r#"
__global__ void k(float *data, int *commit_flags) {
#pragma nvm lpcuda_mode(eager)
    int i = blockIdx.x;
    data[i] = 1.0f;
    __threadfence();
    commit_flags[i] = 1;
}
"#;
        assert_eq!(codes(src), Vec::<&str>::new());
    }

    #[test]
    fn lp019_store_loops_without_closing_the_epoch() {
        let src = r#"
__global__ void k(float *out, int n) {
#pragma nvm lpcuda_mode(epoch)
    for (int i = 0; i < n; i++) {
        out[blockIdx.x * n + i] = 1.0f;
    }
    __threadfence();
}
"#;
        let ds = diags(src);
        let lp019: Vec<_> = ds.iter().filter(|d| d.code == "LP019").collect();
        assert_eq!(lp019.len(), 1, "got:\n{ds:?}");
        assert_eq!(lp019[0].span.line, 5);
        assert!(lp019[0].message.contains("back edge"));
    }

    #[test]
    fn lp019_quiet_with_a_fence_at_the_bottom_of_the_body() {
        let src = r#"
__global__ void k(float *out, int n) {
#pragma nvm lpcuda_mode(epoch)
    for (int i = 0; i < n; i++) {
        out[blockIdx.x * n + i] = 1.0f;
        __threadfence();
    }
}
"#;
        assert_eq!(codes(src), Vec::<&str>::new());
    }

    #[test]
    fn lp020_divergent_stores_reach_one_fold() {
        let src = r#"
__global__ void k(float *out, float *sum) {
    int i = blockIdx.x;
    if (threadIdx.x < 16) {
        out[i] = 1.0f;
    } else {
        out[i + 1] = 2.0f;
    }
#pragma nvm lpcuda_checksum("+", tab, blockIdx.x)
    sum[i] = 3.0f;
}
"#;
        let ds = diags(src);
        let lp020: Vec<_> = ds.iter().filter(|d| d.code == "LP020").collect();
        assert_eq!(lp020.len(), 1, "got:\n{ds:?}");
        assert_eq!(lp020[0].span.line, 9);
        assert!(lp020[0].message.contains("lines 5 and 7"));
    }

    #[test]
    fn lp020_quiet_for_sequential_or_uniform_stores() {
        // Sequential stores (one reaches the other) are ordinary LP011
        // territory, not divergence.
        let sequential = r#"
__global__ void k(float *out, float *sum) {
    int i = blockIdx.x;
    if (threadIdx.x < 16) {
        out[i] = 1.0f;
        out[i + 1] = 2.0f;
    }
#pragma nvm lpcuda_checksum("+", tab, blockIdx.x)
    sum[i] = 3.0f;
}
"#;
        assert!(codes(sequential).iter().all(|c| *c != "LP020"));
        // Uniform branches do not diverge.
        let uniform = r#"
__global__ void k(float *out, float *sum, int n) {
    int i = blockIdx.x;
    if (n > 0) {
        out[i] = 1.0f;
    } else {
        out[i + 1] = 2.0f;
    }
#pragma nvm lpcuda_checksum("+", tab, blockIdx.x)
    sum[i] = 3.0f;
}
"#;
        assert!(codes(uniform).iter().all(|c| *c != "LP020"));
    }

    #[test]
    fn lp021_lp_pin_without_a_fold_is_unsatisfiable() {
        let src = r#"
__global__ void k(float *out) {
#pragma nvm lpcuda_mode(lp)
    out[blockIdx.x] = 1.0f;
}
"#;
        let ds = diags(src);
        assert_eq!(ds.len(), 1, "got:\n{ds:?}");
        assert_eq!(ds[0].code, "LP021");
        assert_eq!(ds[0].span.line, 3);
        assert!(ds[0].message.contains("cannot satisfy"));
        assert!(ds[0].message.contains("checksum fold"));
    }

    #[test]
    fn lp021_epoch_pin_without_any_fence() {
        let src = r#"
__global__ void k(float *out) {
#pragma nvm lpcuda_mode(epoch)
    out[blockIdx.x] = 1.0f;
}
"#;
        let ds = diags(src);
        let lp021: Vec<_> = ds.iter().filter(|d| d.code == "LP021").collect();
        assert_eq!(lp021.len(), 1, "got:\n{ds:?}");
        assert!(lp021[0].message.contains("never closes"));
    }

    #[test]
    fn lp021_satisfied_pins_and_storeless_kernels_are_quiet() {
        // A fence inside a helper satisfies the epoch pin.
        let helper_fence = r#"
__device__ void close_epoch(void) {
    __threadfence();
}

__global__ void k(float *out) {
#pragma nvm lpcuda_mode(epoch)
    out[blockIdx.x] = 1.0f;
    close_epoch();
}
"#;
        assert!(codes(helper_fence).iter().all(|c| *c != "LP021"));
        // No stores: any pin holds vacuously.
        let storeless = r#"
__global__ void k(float *out) {
#pragma nvm lpcuda_mode(lp)
    float v = out[blockIdx.x];
}
"#;
        assert!(codes(storeless).iter().all(|c| *c != "LP021"));
    }
}
