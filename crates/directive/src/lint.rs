//! Static lint pass over annotated CUDA sources.
//!
//! `compile` rejects programs it cannot lower; the lints here catch the
//! mistakes that still *compile* but defeat Lazy Persistency at run time —
//! a checksum table initialised twice, a table initialised but never fed by
//! any `lpcuda_checksum` (a region with no persistent stores), a checksum
//! writing into a table the host never sized, a misspelled directive that
//! the CUDA compiler would silently ignore (unknown pragmas don't warn,
//! which is exactly how these bugs ship).
//!
//! This module is the driver and the pragma rules (LP001–LP005 over the
//! pragma table, LP015 over a kernel's pin and CFG). One
//! [`SourceAnalysis`] per source feeds everything: the flow-sensitive
//! rules (LP010–LP014, LP022–LP024, `analysis::rules`) and the
//! interprocedural contract rules (LP016–LP021, `analysis::contract`) read
//! each kernel's facts from it and compute none of their own.
//!
//! [`RULES`] lists every rule code with its summary and description;
//! README.md's rule table mirrors it, one anchored row per code (the SARIF
//! `helpUri` targets), and `lp-bench`'s `lint_cli` tests hold the two equal.
//!
//! LP011, LP013 and LP022–LP024 are byte-precise: they run on the
//! symbolic store-footprint engine (`analysis::footprint`), which proves
//! per-store element sets as affine forms over `blockIdx`/`threadIdx`/
//! loop induction symbols. Several rules attach machine-applicable fixes
//! (`Diagnostic::suggestion`) that `lpcuda-lint --fix` applies.
//!
//! Diagnostics are ordered by source position, then rule code.

use crate::analysis::cfg::{Node, NodeKind};
use crate::analysis::{contract, rules, KernelFacts, SourceAnalysis};
use crate::error::{CompileError, Diagnostic, Span};
use crate::kernel_scan::Unbalanced;
use crate::pragma::Pragma;

/// The two directives §VI of the paper defines, plus the persist-mode pin
/// and the persist-region bound declaration this runtime adds on top of
/// them.
const KNOWN: [&str; 4] = [
    "lpcuda_init",
    "lpcuda_checksum",
    "lpcuda_mode",
    "lpcuda_region",
];

/// Static metadata for one lint rule — the single source the CLI's SARIF
/// `rules` array and the docs draw from.
pub struct RuleMeta {
    /// Rule code, e.g. `"LP011"`.
    pub code: &'static str,
    /// One-line summary (SARIF `shortDescription`).
    pub summary: &'static str,
    /// Full description: what goes wrong at run time and why it matters
    /// (SARIF `fullDescription`).
    pub detail: &'static str,
}

/// Every rule the lint pass can emit, ordered by code. `helpUri`s are
/// derived as `README.md#<code-lowercased>`.
pub const RULES: &[RuleMeta] = &[
    RuleMeta {
        code: "LP000",
        summary: "source does not scan",
        detail: "A kernel body has unbalanced braces, so no body-sensitive rule can \
                 see kernel extents; the scan failure is reported alone.",
    },
    RuleMeta {
        code: "LP001",
        summary: "unknown lpcuda_* directive",
        detail: "A misspelled directive is silently ignored by the CUDA compiler, so \
                 the store it was meant to protect persists without a checksum.",
    },
    RuleMeta {
        code: "LP002",
        summary: "directive outside any __global__ kernel",
        detail: "lpcuda_checksum and lpcuda_region only act on stores inside a kernel \
                 body; placed outside one they protect or bound nothing.",
    },
    RuleMeta {
        code: "LP003",
        summary: "duplicate lpcuda_init for one table",
        detail: "The second init discards the first table's checksums, so recovery \
                 validates against a table that lost half its folds.",
    },
    RuleMeta {
        code: "LP004",
        summary: "table initialised but never folded into",
        detail: "An lpcuda_init with no lpcuda_checksum referencing it declares a \
                 Lazy Persistency region that protects no persistent stores.",
    },
    RuleMeta {
        code: "LP005",
        summary: "checksum into an undeclared table",
        detail: "The host never sizes the table the fold writes into, so the fold \
                 scribbles through an unallocated pointer at run time.",
    },
    RuleMeta {
        code: "LP010",
        summary: "__syncthreads under a thread-dependent branch",
        detail: "Threads that skip the branch never reach the barrier; the block \
                 deadlocks or (on newer hardware) silently desynchronises the epoch.",
    },
    RuleMeta {
        code: "LP011",
        summary: "global store covered by no checksum fold",
        detail: "A persistent store in a protected kernel whose bytes no fold \
                 accumulates: a crash after the store persists data that recovery \
                 can neither validate nor recompute.",
    },
    RuleMeta {
        code: "LP012",
        summary: "checksum fold under thread-dependent control",
        detail: "Threads that skip the fold leave the table entry short, so \
                 validation false-fails on every recovery, crash or not.",
    },
    RuleMeta {
        code: "LP013",
        summary: "store footprint independent of blockIdx",
        detail: "Every block writes the same element set, so cross-block scheduling \
                 races decide the final bytes and per-block checksums cannot \
                 attribute them.",
    },
    RuleMeta {
        code: "LP014",
        summary: "fold on a value with no dominating definition",
        detail: "On paths that skip the definition the fold accumulates garbage, \
                 poisoning the table entry for the whole region.",
    },
    RuleMeta {
        code: "LP015",
        summary: "eager persist pin dominated by the write profile",
        detail: "A store inside a loop pays one synchronous flush per iteration \
                 under an eager pin; lazy checksums amortise the same durability to \
                 one table write per region.",
    },
    RuleMeta {
        code: "LP016",
        summary: "store escapes the fold via a __device__ helper",
        detail: "A helper called after the fold writes protected bytes the fold \
                 never saw; interprocedural summaries prove the escape.",
    },
    RuleMeta {
        code: "LP017",
        summary: "fence scope too narrow for the epoch",
        detail: "The weakest path to the epoch close crosses a fence that does not \
                 order the persistent stores it must drain.",
    },
    RuleMeta {
        code: "LP018",
        summary: "commit token stored before the data drain",
        detail: "Under an eager pin the commit marker can persist before the data it \
                 commits, so a crash between them validates garbage.",
    },
    RuleMeta {
        code: "LP019",
        summary: "epoch left open across a loop back edge",
        detail: "The next iteration's stores mix into the previous epoch's checksum, \
                 so a crash mid-loop validates a torn region.",
    },
    RuleMeta {
        code: "LP020",
        summary: "fold reachable from divergent store paths",
        detail: "One fold post-dominates stores on only some divergent paths; the \
                 others persist bytes the checksum never accumulated.",
    },
    RuleMeta {
        code: "LP021",
        summary: "pinned persist mode's contract unsatisfiable",
        detail: "The kernel cannot meet the ordering contract of the backend it \
                 pins (e.g. epoch mode with no barrier on some path).",
    },
    RuleMeta {
        code: "LP022",
        summary: "store provably outside its declared region",
        detail: "The footprint engine proves the store's maximum element index \
                 reaches or exceeds the lpcuda_region bound, so the store persists \
                 bytes outside the recoverable region.",
    },
    RuleMeta {
        code: "LP023",
        summary: "distinct threads store to one element",
        detail: "The store's affine footprint has no threadIdx term while the stored \
                 value is thread-dependent, so warp scheduling decides the final \
                 bytes and a crash can persist a torn line.",
    },
    RuleMeta {
        code: "LP024",
        summary: "fold byte-claim mismatches final values",
        detail: "A checksum folds a value that is provably rewritten afterwards (or \
                 folds no store at all), so recovery recomputes different bytes than \
                 the table recorded and validation false-fails.",
    },
];

/// Lints `source` and returns every finding, ordered by source position.
/// A clean program — including a pragma-free one — yields an empty vector.
pub fn lint(source: &str) -> Vec<Diagnostic> {
    lint_with(source, |_, _| {})
}

/// [`lint`], handing each kernel's facts to `each_kernel` once its rules
/// have run, so a tool can report on the kernels from the same analysis.
///
/// A source that does not scan gets exactly one LP000 finding: with no
/// kernel extents, every body-sensitive rule would misfire, so reporting
/// the scan failure alone is the only honest output.
pub fn lint_with(
    source: &str,
    mut each_kernel: impl FnMut(&SourceAnalysis<'_>, KernelFacts<'_>),
) -> Vec<Diagnostic> {
    let a = match SourceAnalysis::new(source) {
        Ok(a) => a,
        Err(e) => return vec![lp000(&e)],
    };
    let mut out = Vec::new();
    pragma_rules(&a, &mut out);
    for k in a.kernels() {
        lp015_dominated_pin(&k, &a.scan.lines, &mut out);
        rules::analyze_kernel(&a.scan.lines, &k, &mut out);
        contract::analyze_kernel(&a.scan.lines, &k, &a.fns, &mut out);
        each_kernel(&a, k);
    }
    out.sort_by_key(|d| (d.span, d.code));
    out
}

/// LP001–LP005: the rules over the pragma table alone.
fn pragma_rules(a: &SourceAnalysis<'_>, out: &mut Vec<Diagnostic>) {
    // (table, line) of every first `lpcuda_init`.
    let mut inits: Vec<(&str, usize)> = Vec::new();
    // (table, line) of every `lpcuda_checksum`.
    let mut checksums: Vec<(&str, usize)> = Vec::new();

    for p in &a.scan.pragmas {
        let line_no = p.line;
        let raw = a.scan.lines[line_no - 1];
        let name = directive_name(raw);
        if !KNOWN.contains(&name.as_str()) {
            let mut message = format!("unknown directive `{name}`");
            if let Some(meant) = crate::suggest::nearest(&name, &KNOWN) {
                message.push_str(&format!("; did you mean `{meant}`?"));
            }
            out.push(Diagnostic {
                code: "LP001",
                span: Span::of(line_no, raw, &name),
                message,
                suggestion: None,
            });
            continue;
        }
        let Ok(pragma) = &p.parsed else {
            // Malformed arity/operator errors are `compile`'s to report;
            // the lint pass only reasons about well-formed directives.
            continue;
        };
        match pragma {
            Pragma::Init { table, .. } => {
                if let Some((_, first)) = inits.iter().find(|(t, _)| t == table) {
                    out.push(Diagnostic {
                        code: "LP003",
                        span: Span::of(line_no, raw, table),
                        message: format!(
                            "duplicate lpcuda_init for table `{table}` \
                             (first initialised on line {first}); \
                             the second init discards the first table's checksums"
                        ),
                        suggestion: None,
                    });
                } else {
                    inits.push((table, line_no));
                }
            }
            Pragma::Checksum { table, .. } => {
                if p.kernel.is_none() {
                    out.push(Diagnostic {
                        code: "LP002",
                        span: Span::of(line_no, raw, "lpcuda_checksum"),
                        message: "lpcuda_checksum outside a __global__ kernel; \
                                  the directive only protects stores inside a kernel body"
                            .into(),
                        suggestion: None,
                    });
                }
                checksums.push((table, line_no));
            }
            Pragma::Region { ptr, .. } => {
                if p.kernel.is_none() {
                    out.push(Diagnostic {
                        code: "LP002",
                        span: Span::of(line_no, raw, "lpcuda_region"),
                        message: format!(
                            "lpcuda_region({ptr}, …) outside a __global__ kernel; \
                             the declaration only bounds stores inside a kernel body"
                        ),
                        suggestion: None,
                    });
                }
            }
            Pragma::Mode { .. } => {} // LP015 needs the kernel's facts
        }
    }

    for (table, line_no) in &inits {
        if !checksums.iter().any(|(t, _)| t == table) {
            out.push(Diagnostic {
                code: "LP004",
                span: Span::of(*line_no, a.scan.lines[line_no - 1], table),
                message: format!(
                    "table `{table}` is initialised but no lpcuda_checksum references it; \
                     the LP region protects no persistent stores"
                ),
                suggestion: None,
            });
        }
    }
    let mut flagged: Vec<&str> = Vec::new();
    for (table, line_no) in &checksums {
        if !inits.iter().any(|(t, _)| t == table) && !flagged.contains(table) {
            out.push(Diagnostic {
                code: "LP005",
                span: Span::of(*line_no, a.scan.lines[line_no - 1], table),
                message: format!(
                    "lpcuda_checksum writes into table `{table}` \
                     but no lpcuda_init declares it; the host never sizes the table"
                ),
                suggestion: None,
            });
            flagged.push(table);
        }
    }
}

/// LP015: eager pinned on a write-dense kernel. A store inside a loop pays
/// one synchronous flush per iteration under `eager`; the lazy-checksum
/// modes amortise the same durability to one table write per region, so
/// the pin is dominated on every execution, not just unlucky ones.
fn lp015_dominated_pin(k: &KernelFacts, lines: &[&str], out: &mut Vec<Diagnostic>) {
    let Some((line, "eager")) = k.pin.as_ref().map(|(l, m)| (*l, m.as_str())) else {
        return;
    };
    // The static write-density profile: a store node that reaches itself
    // sits in a loop and repeats per iteration, so per-store persist costs
    // multiply where per-region costs do not.
    let is_store = |n: &Node| matches!(n.kind, NodeKind::Store { .. });
    let looped = (0..k.cfg.nodes.len())
        .filter(|id| is_store(&k.cfg.nodes[*id]))
        .filter(|id| contract::reachable_from(&k.cfg, *id)[*id])
        .count();
    if looped > 0 {
        out.push(Diagnostic {
            code: "LP015",
            span: Span::of(line, lines[line - 1], "eager"),
            message: format!(
                "kernel `{}` pins persist mode `eager` but makes {looped} global \
                 store(s) inside loops; a synchronous flush per iteration is \
                 provably dominated by lazy checksums on this write profile; \
                 did you mean `lpcuda_mode(adaptive)`?",
                k.ir.name
            ),
            suggestion: None,
        });
    }
}

/// The LP000 diagnostic for a source the scan rejects, anchored to the
/// offending kernel's name on its `__global__` line.
fn lp000(err: &Unbalanced) -> Diagnostic {
    Diagnostic {
        code: "LP000",
        span: err.span,
        message: format!(
            "{}; the lint pass cannot see kernel bodies until the source scans",
            CompileError::from(err.clone())
        ),
        suggestion: None,
    }
}

/// The identifier after `#pragma nvm`, or an empty string.
fn directive_name(raw: &str) -> String {
    raw.trim_start()
        .strip_prefix("#pragma")
        .map(str::trim_start)
        .and_then(|s| s.strip_prefix("nvm"))
        .map(str::trim_start)
        .unwrap_or("")
        .chars()
        .take_while(|c| c.is_alphanumeric() || *c == '_')
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Listing 5/6-shaped program with every directive used correctly.
    const CLEAN: &str = r#"
int main() {
#pragma nvm lpcuda_init(checksumMM, grid.x*grid.y, 1)
    kernel<<<grid, block>>>(C, A, B);
}

__global__ void MatrixMulCUDA(float *C, float *A, float *B) {
    int c = blockIdx.x;
#pragma nvm lpcuda_checksum("+", checksumMM, blockIdx.x)
    C[c] = 1.0f;
}
"#;

    #[test]
    fn clean_program_has_zero_lints() {
        assert_eq!(lint(CLEAN), Vec::new());
        assert_eq!(lint("int main() { return 0; }"), Vec::new());
    }

    #[test]
    fn lp001_unknown_directive_with_suggestion() {
        let src = "#pragma nvm lpcuda_chekcsum(\"+\", tab, k)\n";
        let ds = lint(src);
        assert_eq!(ds.len(), 1);
        let d = &ds[0];
        assert_eq!(d.code, "LP001");
        assert_eq!(
            d.message,
            "unknown directive `lpcuda_chekcsum`; did you mean `lpcuda_checksum`?"
        );
        assert_eq!(d.span, Span::of(1, src, "lpcuda_chekcsum"));
        assert_eq!((d.span.line, d.span.col, d.span.end_col), (1, 13, 28));
    }

    #[test]
    fn lp001_distant_name_gets_no_suggestion() {
        let ds = lint("#pragma nvm lpcuda_frobnicate(x)\n");
        assert_eq!(ds.len(), 1);
        assert_eq!(ds[0].code, "LP001");
        assert!(!ds[0].message.contains("did you mean"));
    }

    #[test]
    fn lp002_checksum_outside_kernel() {
        let src = r#"
#pragma nvm lpcuda_init(tab, n, 1)
#pragma nvm lpcuda_checksum("+", tab, k)
int host_fn(void) { return 0; }
"#;
        let ds = lint(src);
        assert_eq!(ds.len(), 1);
        let d = &ds[0];
        assert_eq!(d.code, "LP002");
        assert!(d.message.contains("outside a __global__ kernel"));
        assert_eq!((d.span.line, d.span.col, d.span.end_col), (3, 13, 28));
    }

    #[test]
    fn lp003_duplicate_init() {
        let src = r#"
#pragma nvm lpcuda_init(tab, n, 1)
#pragma nvm lpcuda_init(tab, n, 1)
__global__ void k(float *p) {
#pragma nvm lpcuda_checksum("+", tab, i)
    p[blockIdx.x] = 1.0f;
}
"#;
        let ds = lint(src);
        assert_eq!(ds.len(), 1);
        let d = &ds[0];
        assert_eq!(d.code, "LP003");
        assert!(d.message.contains("duplicate lpcuda_init for table `tab`"));
        assert!(d.message.contains("line 2"));
        // Span anchors to the table name on the *second* init.
        assert_eq!((d.span.line, d.span.col, d.span.end_col), (3, 25, 28));
    }

    #[test]
    fn lp004_init_never_referenced() {
        let src = "#pragma nvm lpcuda_init(orphan, n, 1)\n";
        let ds = lint(src);
        assert_eq!(ds.len(), 1);
        let d = &ds[0];
        assert_eq!(d.code, "LP004");
        assert!(d.message.contains("no lpcuda_checksum references it"));
        assert!(d.message.contains("protects no persistent stores"));
        assert_eq!((d.span.line, d.span.col, d.span.end_col), (1, 25, 31));
    }

    #[test]
    fn lp005_checksum_into_undeclared_table() {
        let src = r#"__global__ void k(float *p) {
#pragma nvm lpcuda_checksum("+", ghost, i)
    p[blockIdx.x] = 1.0f;
}
"#;
        let ds = lint(src);
        assert_eq!(ds.len(), 1);
        let d = &ds[0];
        assert_eq!(d.code, "LP005");
        assert!(d.message.contains("no lpcuda_init declares it"));
        assert_eq!((d.span.line, d.span.col, d.span.end_col), (2, 34, 39));
    }

    #[test]
    fn lp000_unbalanced_braces_surface_instead_of_silence() {
        let src = "__global__ void broken(float *p) {\n    p[blockIdx.x] = 1.0f;\n";
        let ds = lint(src);
        assert_eq!(ds.len(), 1, "got:\n{ds:?}");
        let d = &ds[0];
        assert_eq!(d.code, "LP000");
        assert!(d.message.contains("unbalanced braces"));
        assert!(d.message.contains("broken"));
        // Anchored to the kernel name on the `__global__` line.
        assert_eq!(d.span, Span::of(1, src.lines().next().unwrap(), "broken"));
    }

    #[test]
    fn lp010_sync_under_thread_dependent_branch() {
        let src = r#"__global__ void k(float *p) {
    if (threadIdx.x < 16) {
        __syncthreads();
    }
    p[blockIdx.x] = 1.0f;
}
"#;
        let ds = lint(src);
        assert_eq!(ds.len(), 1, "got:\n{ds:?}");
        assert_eq!(ds[0].code, "LP010");
        assert_eq!(ds[0].span.line, 3);
        assert!(ds[0].message.contains("threadIdx.x<16"));
        assert!(ds[0].message.contains("hoist the barrier"));
    }

    #[test]
    fn lp010_uniform_sync_is_clean() {
        let src = r#"__global__ void k(float *p, int n) {
    for (int t = 0; t < n; t++) {
        __syncthreads();
    }
    if (blockIdx.x == 0) {
        __syncthreads();
    }
    p[blockIdx.x] = 1.0f;
}
"#;
        assert_eq!(lint(src), Vec::new());
    }

    #[test]
    fn lp011_uncovered_store_in_protected_kernel() {
        let src = r#"#pragma nvm lpcuda_init(tab, n, 1)
__global__ void k(float *out, float *log) {
    int i = blockIdx.x;
#pragma nvm lpcuda_checksum("+", tab, blockIdx.x)
    out[i] = 1.0f;
    log[i] = 2.0f;
}
"#;
        let ds = lint(src);
        assert_eq!(ds.len(), 1, "got:\n{ds:?}");
        assert_eq!(ds[0].code, "LP011");
        assert_eq!(ds[0].span.line, 6);
        assert!(ds[0].message.contains("log[i]"));
        assert!(ds[0].message.contains("lpcuda_checksum(\"+\", tab"));
    }

    #[test]
    fn lp011_notes_a_post_dominating_fold_of_another_value() {
        let src = r#"#pragma nvm lpcuda_init(tab, n, 1)
__global__ void k(float *out, float *log) {
    int i = blockIdx.x;
    log[i] = 2.0f;
#pragma nvm lpcuda_checksum("+", tab, blockIdx.x)
    out[i] = 1.0f;
}
"#;
        let ds = lint(src);
        let lp011: Vec<_> = ds.iter().filter(|d| d.code == "LP011").collect();
        assert_eq!(lp011.len(), 1, "got:\n{ds:?}");
        assert!(lp011[0].message.contains("folds different bytes"));
        assert!(lp011[0].message.contains("line 5"));
    }

    #[test]
    fn lp012_fold_under_thread_dependent_branch() {
        let src = r#"#pragma nvm lpcuda_init(tab, n, 1)
__global__ void k(float *out) {
    int i = blockIdx.x;
    if (threadIdx.x == 0) {
#pragma nvm lpcuda_checksum("+", tab, blockIdx.x)
        out[i] = 1.0f;
    }
}
"#;
        let ds = lint(src);
        assert_eq!(ds.len(), 1, "got:\n{ds:?}");
        assert_eq!(ds[0].code, "LP012");
        assert_eq!(ds[0].span.line, 5);
        assert!(ds[0].message.contains("threadIdx.x==0"));
    }

    #[test]
    fn lp013_store_index_independent_of_blockidx() {
        let src = r#"#pragma nvm lpcuda_init(tab, n, 1)
__global__ void k(float *out) {
#pragma nvm lpcuda_checksum("+", tab, blockIdx.x)
    out[threadIdx.x] = 1.0f;
}
"#;
        let ds = lint(src);
        assert_eq!(ds.len(), 1, "got:\n{ds:?}");
        assert_eq!(ds[0].code, "LP013");
        assert!(ds[0].message.contains("has no blockIdx term"));
    }

    #[test]
    fn lp013_blockidx_guard_exempts_the_store() {
        let src = r#"#pragma nvm lpcuda_init(tab, n, 1)
__global__ void k(float *out, float *sum) {
    int i = blockIdx.x;
#pragma nvm lpcuda_checksum("+", tab, blockIdx.x)
    out[i] = 1.0f;
    if (blockIdx.x == 0) {
        sum[threadIdx.x] = 2.0f;
    }
}
"#;
        let ds = lint(src);
        // The guarded store still shows up as uncovered (LP011) but must
        // not be a cross-block conflict.
        assert!(ds.iter().any(|d| d.code == "LP011"), "got:\n{ds:?}");
        assert!(ds.iter().all(|d| d.code != "LP013"), "got:\n{ds:?}");
    }

    #[test]
    fn lp014_fold_on_conditionally_defined_value() {
        let src = r#"#pragma nvm lpcuda_init(tab, n, 1)
__global__ void k(float *out, int n) {
    int i = blockIdx.x;
    float v;
    if (n > 0) {
        v = 1.0f;
    }
#pragma nvm lpcuda_checksum("+", tab, blockIdx.x)
    out[i] = v;
}
"#;
        let ds = lint(src);
        assert_eq!(ds.len(), 1, "got:\n{ds:?}");
        assert_eq!(ds[0].code, "LP014");
        assert!(ds[0].message.contains("no definition of `v` dominates"));
        assert!(ds[0].message.contains("line 6"));
        assert_eq!(ds[0].span.line, 9);
    }

    #[test]
    fn lp014_unconditional_definition_is_clean() {
        let src = r#"#pragma nvm lpcuda_init(tab, n, 1)
__global__ void k(float *out, int n) {
    int i = blockIdx.x;
    float v = 0.0f;
    if (n > 0) {
        v = 1.0f;
    }
#pragma nvm lpcuda_checksum("+", tab, blockIdx.x)
    out[i] = v;
}
"#;
        assert_eq!(lint(src), Vec::new());
    }

    #[test]
    fn lp015_eager_pin_on_looped_stores() {
        let src = r#"#pragma nvm lpcuda_init(tab, n, 1)
__global__ void hot(float *out) {
    int i = blockIdx.x;
#pragma nvm lpcuda_mode(eager)
#pragma nvm lpcuda_checksum("+", tab, blockIdx.x)
    out[i] = 0.0f;
    for (int j = 0; j < 64; j++) {
        out[i] = out[i] + 1.0f;
    }
}
"#;
        let ds = lint(src);
        let lp015: Vec<_> = ds.iter().filter(|d| d.code == "LP015").collect();
        assert_eq!(lp015.len(), 1, "got:\n{ds:?}");
        let d = lp015[0];
        assert_eq!(d.span.line, 4);
        assert!(d.message.contains("kernel `hot` pins persist mode `eager`"));
        assert!(d.message.contains("1 global store(s) inside loops"));
        assert!(d.message.contains("did you mean `lpcuda_mode(adaptive)`?"));
        // The profile counts the CFG's store nodes, so a store through a
        // plain dereference in the loop is one more.
        let deref = src.replace("1.0f;\n", "1.0f;\n        *out = 2.0f;\n");
        let ds = lint(&deref);
        let lp015 = ds.iter().find(|d| d.code == "LP015").expect("LP015");
        assert!(lp015.message.contains("2 global store(s) inside loops"));
    }

    #[test]
    fn lp015_quiet_for_sparse_writes_or_unpinned_modes() {
        // Eager over a single straight-line store: not dominated, the
        // kernel persists once either way.
        let sparse = r#"#pragma nvm lpcuda_init(tab, n, 1)
__global__ void once(float *out) {
    int i = blockIdx.x;
#pragma nvm lpcuda_mode(eager)
#pragma nvm lpcuda_checksum("+", tab, blockIdx.x)
    out[i] = 1.0f;
}
"#;
        assert_eq!(lint(sparse), Vec::new());
        // Adaptive over the dense loop: the pin LP015 suggests.
        let adaptive = r#"#pragma nvm lpcuda_init(tab, n, 1)
__global__ void hot(float *out) {
    int i = blockIdx.x;
#pragma nvm lpcuda_mode(adaptive)
#pragma nvm lpcuda_checksum("+", tab, blockIdx.x)
    out[i] = 0.0f;
    for (int j = 0; j < 64; j++) {
        out[i] = out[i] + 1.0f;
    }
}
"#;
        // (The uncovered loop store still draws LP011 — that is a different
        // mistake; the *pin* is the one LP015 suggests, so no LP015.)
        assert!(lint(adaptive).iter().all(|d| d.code != "LP015"));
        // A loop that only writes locals is not write-dense.
        let local = r#"#pragma nvm lpcuda_init(tab, n, 1)
__global__ void cool(float *out) {
    int i = blockIdx.x;
    float acc = 0.0f;
#pragma nvm lpcuda_mode(eager)
#pragma nvm lpcuda_checksum("+", tab, blockIdx.x)
    out[i] = 0.0f;
    for (int j = 0; j < 64; j++) {
        acc = acc + 1.0f;
    }
}
"#;
        assert_eq!(lint(local), Vec::new());
    }

    #[test]
    fn findings_are_ordered_by_position() {
        let src = r#"
#pragma nvm lpcuda_init(a, n, 1)
#pragma nvm lpcuda_init(a, n, 1)
#pragma nvm lpcuda_typo(x)
"#;
        let codes: Vec<&str> = lint(src).iter().map(|d| d.code).collect();
        assert_eq!(codes, vec!["LP004", "LP003", "LP001"]);
    }

    #[test]
    fn lp005_reported_once_per_table() {
        let src = r#"__global__ void k(float *p) {
#pragma nvm lpcuda_checksum("+", ghost, i)
    p[blockIdx.x] = 1.0f;
#pragma nvm lpcuda_checksum("+", ghost, j)
    p[blockIdx.x + 1] = 2.0f;
}
"#;
        let ds = lint(src);
        assert_eq!(ds.iter().filter(|d| d.code == "LP005").count(), 1);
    }
}
