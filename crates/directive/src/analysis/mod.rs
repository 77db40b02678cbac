//! Static control-flow and dataflow analysis of annotated kernels.
//!
//! The dynamic sanitizer (`lp-sanitizer`) can only certify the inputs it
//! executes; this module proves LP-region safety properties from kernel
//! *structure*, at compile time, with zero simulation cost.
//!
//! [`SourceAnalysis`] is the whole front half, run once per source; every
//! rule family and every export reads what it yields and computes no fact
//! of its own. The stages, in order:
//!
//! 1. **scan** ([`crate::kernel_scan::scan`]) — the source lexed once into
//!    one token stream, in which every `__global__` and `__device__`
//!    definition is found; every `#pragma nvm` line outside a block comment
//!    is parsed into the pragma table;
//! 2. **IR and CFG** ([`ir`], [`cfg`](mod@cfg)) — each function body's
//!    tokens, taken from the stream, become a statement-level mini-IR with real
//!    control flow (`if`/`else`, `for`/`while`, barriers, fences, global
//!    stores, fold sites taken from the pragma table), lowered to a
//!    control-flow graph with guard stacks. Every expression carries its
//!    tokens, and no later stage lexes text again;
//! 3. **helper summaries** ([`interproc`]) — the `__device__` call graph
//!    closed to context-insensitive effect summaries (stored-to parameter
//!    slots, folds, strongest fence);
//! 4. **per-kernel facts** ([`KernelFacts`], one kernel at a time from
//!    [`SourceAnalysis::kernels`]) — up front the `lpcuda_mode` pin,
//!    post-dominators ([`dom`]) and the symbolic store footprint
//!    ([`symbolic`] + [`footprint`]: element sets as affine forms over
//!    `blockIdx`/`threadIdx`/loop symbols); on a rule's first request
//!    dominators and thread/block dependence ([`taint`]: opaque guards
//!    with implicit flows, which the affine engine cannot answer).
//!
//! The readers: [`crate::lint()`] (pragma rules LP001–LP005, LP015),
//! [`rules`] (LP010–LP014, LP022–LP024), [`contract`] (LP016–LP021, each
//! kernel against its backend's `lp_persist::DurabilityContract`),
//! [`relevance::kernel_relevance`] and [`footprint::source_footprints`]
//! (what `lp-fault`'s pruner and `lpcuda-lint --json` export).

pub mod cfg;
pub mod contract;
pub mod dom;
pub mod footprint;
pub mod interproc;
pub mod ir;
pub mod relevance;
pub mod rules;
pub mod symbolic;
pub mod taint;

use crate::error::Span;
use crate::kernel_scan::{scan, KernelSpan, SourceScan, Unbalanced};
use crate::pragma::Pragma;
use cfg::{Cfg, NodeKind};
use dom::BitSet;
use footprint::KernelFootprint;
use interproc::FnSummary;
use ir::KernelIr;
use std::cell::OnceCell;
use std::collections::BTreeMap;
use taint::Taint;

/// Everything the verifier knows about one `__global__` kernel, each fact
/// computed at most once: the flow facts only the rules ask for wait for
/// the first rule that does. Its expressions' tokens borrow the
/// [`SourceAnalysis`] it came from (`'s`).
#[derive(Debug)]
pub struct KernelFacts<'s> {
    /// The body as a statement tree.
    pub ir: KernelIr<'s>,
    /// The body's control-flow graph.
    pub cfg: Cfg<'s>,
    /// The `lpcuda_mode` pin inside the body, as `(1-based line, mode)`.
    pub pin: Option<(usize, String)>,
    /// Post-dominator sets, indexed by CFG node.
    pub pdom: Vec<BitSet>,
    /// The symbolic footprint of every global store.
    pub footprint: KernelFootprint,
    thread: OnceCell<Taint<'s>>,
    block: OnceCell<Taint<'s>>,
    dom: OnceCell<Vec<BitSet>>,
}

impl<'s> KernelFacts<'s> {
    /// Whether the kernel contains at least one `lpcuda_checksum` fold —
    /// i.e. it is an LP-protected kernel.
    pub fn is_protected(&self) -> bool {
        let is_fold = |n: &cfg::Node| matches!(n.kind, NodeKind::Fold { .. });
        self.cfg.nodes.iter().any(is_fold)
    }

    /// Which values differ between the threads of a block.
    pub fn thread(&self) -> &Taint<'s> {
        let solve = || taint::analyze(&self.cfg, taint::THREAD);
        self.thread.get_or_init(solve)
    }

    /// Which values differ between blocks.
    pub fn block(&self) -> &Taint<'s> {
        let solve = || taint::analyze(&self.cfg, taint::BLOCK);
        self.block.get_or_init(solve)
    }

    /// Dominator sets, indexed by CFG node.
    pub fn dom(&self) -> &[BitSet] {
        self.dom.get_or_init(|| dom::dominators(&self.cfg))
    }
}

/// One source, scanned once, with the per-kernel facts behind
/// [`kernels`](Self::kernels).
#[derive(Debug)]
pub struct SourceAnalysis<'a> {
    /// The lines, the pragma table and the function extents.
    pub scan: SourceScan<'a>,
    /// Transitive effect summaries of the `__device__` helpers, by name.
    pub fns: BTreeMap<String, FnSummary>,
}

impl<'a> SourceAnalysis<'a> {
    /// Scans `source` and summarises its `__device__` helpers.
    ///
    /// # Errors
    ///
    /// Returns [`Unbalanced`] when a kernel body never opens or closes:
    /// with no kernel extents every body-sensitive rule would misfire.
    pub fn new(source: &'a str) -> Result<Self, Unbalanced> {
        let scan = scan(source)?;
        let fns = {
            let helpers: Vec<_> = scan.device_fns.iter().map(|f| lower(&scan, f)).collect();
            interproc::summarize_device_fns(&helpers)
        };
        Ok(SourceAnalysis { scan, fns })
    }

    /// The facts of every `__global__` kernel, in source order (parallel to
    /// `scan.kernels`). Kernels are independent, so each one's facts are
    /// computed as the iterator reaches it and freed when the reader drops
    /// them: a reader makes one pass, and a long source never holds more
    /// than one kernel's IR, CFG and bit sets.
    pub fn kernels(&self) -> impl Iterator<Item = KernelFacts<'_>> + '_ {
        self.scan.kernels.iter().enumerate().map(|(idx, span)| {
            let (ir, cfg) = lower(&self.scan, span);
            let pin = self.scan.pragmas.iter().find_map(|p| match &p.parsed {
                Ok(Pragma::Mode { mode, .. }) if p.kernel == Some(idx) => {
                    Some((p.line, mode.clone()))
                }
                _ => None,
            });
            let pdom = dom::post_dominators(&cfg);
            KernelFacts {
                pin,
                footprint: footprint::kernel_footprint(&ir, &cfg, &pdom),
                pdom,
                ir,
                cfg,
                thread: OnceCell::new(),
                block: OnceCell::new(),
                dom: OnceCell::new(),
            }
        })
    }
}

/// The IR and CFG of one function body, kernel or helper.
fn lower<'s>(scan: &'s SourceScan<'_>, span: &'s KernelSpan) -> (KernelIr<'s>, Cfg<'s>) {
    let ir = ir::parse_kernel(scan, span);
    let cfg = cfg::build(&ir);
    (ir, cfg)
}

/// The span of `needle` on 1-based `line` of `lines`.
fn span_at(lines: &[&str], line: usize, needle: &str) -> Span {
    let text = lines.get(line.wrapping_sub(1)).copied().unwrap_or("");
    Span::of(line, text, needle)
}

/// The facts of the first kernel in `src` — the constructor every unit
/// test of a single stage shares. The analysis they borrow lives as long
/// as the test process.
#[cfg(test)]
pub(crate) fn first_kernel(src: &'static str) -> KernelFacts<'static> {
    let analysis = SourceAnalysis::new(src).expect("test source scans");
    let first = Box::leak(Box::new(analysis)).kernels().next();
    first.expect("test source has a kernel")
}
