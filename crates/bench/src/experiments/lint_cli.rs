//! `lpcuda-lint` — the CLI surface of the static LP-safety analysis.
//!
//! Runs `lp_directive::lint` (pragma rules LP001–LP005, the CFG/dataflow
//! rules LP000, LP010–LP015, the interprocedural persist-order contract
//! rules LP016–LP021, and the byte-precise footprint rules LP022–LP024)
//! over CUDA sources and prints rustc-style diagnostics with source spans,
//! caret underlines and `help:` fix suggestions, or a machine-readable
//! report for CI:
//!
//! ```text
//! lpcuda-lint kernel.cu               # human-readable diagnostics
//! lpcuda-lint --fix kernel.cu         # apply machine-applicable fixes
//! lpcuda-lint --json src/*.cu         # JSON report on stdout
//! lpcuda-lint --sarif src/*.cu        # SARIF 2.1.0 on stdout (CI upload)
//! lpcuda-lint --fixtures              # self-check over the embedded
//!                                     # clean corpus (CI smoke)
//! lpcuda-lint --fixtures --fix        # fix self-check: every seeded
//!                                     # fixture converges, stays
//!                                     # parseable, second pass is a no-op
//! ```
//!
//! Both machine formats are deterministic: findings are sorted by
//! (file, line, column, rule) regardless of input order, and the JSON
//! report carries a `schema_version` so CI consumers can pin the shape.
//! Schema version 2 adds per-finding `suggestion` objects (the concrete
//! edits `--fix` applies) and the per-kernel symbolic store `footprints`
//! the byte-precise rules are proved on, alongside the per-kernel
//! `relevance` summary the fault campaign's static crash-site pruner is
//! built on.
//!
//! Exit status: 0 when every file lints clean, 1 when any finding is
//! reported (for `--fix`: any finding *remains* after fixing), 2 on usage
//! or I/O errors.

use crate::{Args, Failure};
use lp_directive::analysis::footprint::KernelFootprint;
use lp_directive::analysis::relevance::{kernel_relevance, KernelRelevance};
use lp_directive::fixtures::{CLEAN, SEEDED};
use lp_directive::lint::{lint_with, RULES};
use lp_directive::{apply_fixes, lint, Diagnostic, Edit};
use serde_json::json;

/// Version of the `--json` report shape. Bump on any breaking change to
/// the emitted keys; CI consumers assert on it. Version 2 added
/// `suggestion` per finding and `footprints` per file.
const SCHEMA_VERSION: u32 = 2;

/// `--fix` re-lints and re-applies until no fix applies; a seeded source
/// that still applies fixes after this many passes is oscillating, which
/// the fixture self-check reports as a bug.
const FIX_PASS_CAP: usize = 8;

/// One input's display name and what the verifier saw in each of its
/// kernels (none, for a source that does not scan).
type Kernels<'a> = (&'a str, Vec<(KernelRelevance, KernelFootprint)>);

pub(crate) fn run(args: &Args) -> Result<(), Failure> {
    let usage = |msg: &str| Err(Failure::Usage(msg.to_string()));
    if args.json && args.sarif {
        return usage("--json and --sarif are mutually exclusive");
    }
    if args.fix && args.fixtures {
        // The fix self-check is its own mode: it fixes the embedded seeded
        // corpus to a fixpoint and asserts convergence + idempotence.
        if !args.files.is_empty() || args.json || args.sarif {
            return usage("--fixtures --fix takes no other inputs");
        }
        return fix_selfcheck();
    }
    if !args.fixtures && args.files.is_empty() {
        return usage("nothing to lint: name source files or pass --fixtures");
    }

    // (display name, source) for every input.
    let mut inputs: Vec<(String, String)> = Vec::new();
    if args.fixtures {
        for &(name, src) in CLEAN {
            inputs.push((name.to_string(), src.to_string()));
        }
    }
    for path in &args.files {
        match std::fs::read_to_string(path) {
            Ok(src) => inputs.push((path.clone(), src)),
            Err(e) => return Err(Failure::Usage(format!("cannot read {path}: {e}"))),
        }
    }

    // `--fix`: rewrite each real file to its fix fixpoint before reporting,
    // so the findings below are what *remains* after fixing.
    if args.fix {
        for (name, src) in &mut inputs {
            let (fixed, passes, applied) = fix_to_fixpoint(src);
            if applied == 0 {
                continue;
            }
            if passes >= FIX_PASS_CAP {
                eprintln!("lpcuda-lint: {name}: --fix did not converge; leaving file unchanged");
                continue;
            }
            if let Err(e) = std::fs::write(name.as_str(), &fixed) {
                return Err(Failure::Usage(format!("cannot write {name}: {e}")));
            }
            eprintln!(
                "lpcuda-lint: {name}: applied {applied} fix{}",
                if applied == 1 { "" } else { "es" }
            );
            *src = fixed;
        }
    }

    // One analysis per input: the findings, and the JSON report's
    // `relevance` and `footprints`, all come from it. Collect everything
    // first so machine output can be sorted deterministically, independent
    // of CLI argument order.
    let mut kernels: Vec<Kernels<'_>> = Vec::new();
    let mut findings: Vec<(String, Diagnostic)> = Vec::new();
    for (name, src) in &inputs {
        let mut seen = Vec::new();
        for d in lint_with(src, |a, k| {
            seen.push((kernel_relevance(&k, &a.fns), k.footprint))
        }) {
            findings.push((name.clone(), d));
        }
        kernels.push((name, seen));
    }
    findings.sort_by(|(fa, da), (fb, db)| {
        (fa, da.span.line, da.span.col, da.code).cmp(&(fb, db.span.line, db.span.col, db.code))
    });
    let total = findings.len();

    if args.json {
        println!("{}", json_report(kernels, &findings));
    } else if args.sarif {
        println!("{}", sarif_report(&findings));
    } else {
        for (name, d) in &findings {
            let src = &inputs.iter().find(|(n, _)| n == name).expect("input").1;
            print!("{}", render(name, src, d));
        }
        if total == 0 {
            println!(
                "lpcuda-lint: {} file{} clean",
                inputs.len(),
                if inputs.len() == 1 { "" } else { "s" }
            );
        } else {
            println!(
                "lpcuda-lint: {total} finding{} in {} file{}",
                if total == 1 { "" } else { "s" },
                inputs.len(),
                if inputs.len() == 1 { "" } else { "s" }
            );
        }
    }
    // The findings above are the report; a non-empty one fails the run.
    if total > 0 {
        return Err(Failure::Gate);
    }
    Ok(())
}

/// Re-lints and re-applies fixes until a pass applies none. Returns the
/// fixed source, how many passes ran, and the total fixes applied.
fn fix_to_fixpoint(source: &str) -> (String, usize, usize) {
    let mut cur = source.to_string();
    let mut total = 0usize;
    for pass in 0..FIX_PASS_CAP {
        let ds = lint(&cur);
        let (next, applied) = apply_fixes(&cur, &ds);
        if applied == 0 {
            return (cur, pass, total);
        }
        total += applied;
        cur = next;
    }
    (cur, FIX_PASS_CAP, total)
}

/// The `--fixtures --fix` self-check: the clean corpus has nothing to fix,
/// and every seeded fixture (a) reaches a fix fixpoint within the pass
/// cap, (b) still scans afterwards if it scanned before, (c) carries no
/// residual machine-applicable finding, and (d) a second `--fix` pass is a
/// byte-for-byte no-op.
fn fix_selfcheck() -> Result<(), Failure> {
    let mut bad = 0usize;
    for &(name, src) in CLEAN {
        let ds = lint(src);
        let (out, applied) = apply_fixes(src, &ds);
        if !ds.is_empty() || applied != 0 || out != src {
            eprintln!("{name}: clean fixture has findings or fixes ({})", ds.len());
            bad += 1;
        } else {
            println!("{name}: clean, nothing to fix");
        }
    }
    for &(name, src) in SEEDED {
        let (fixed, passes, applied) = fix_to_fixpoint(src);
        if passes >= FIX_PASS_CAP {
            eprintln!("{name}: --fix oscillates (still applying after {FIX_PASS_CAP} passes)");
            bad += 1;
            continue;
        }
        let residual = lint(&fixed);
        let scanned_before = lint(src).iter().all(|d| d.code != "LP000");
        if scanned_before && residual.iter().any(|d| d.code == "LP000") {
            eprintln!("{name}: source no longer scans after --fix");
            bad += 1;
        }
        if residual.iter().any(|d| d.suggestion.is_some()) {
            eprintln!("{name}: residual machine-applicable finding after --fix");
            bad += 1;
        }
        let (again, reapplied) = apply_fixes(&fixed, &residual);
        if reapplied != 0 || again != fixed {
            eprintln!("{name}: second --fix pass is not a no-op");
            bad += 1;
        }
        println!(
            "{name}: {applied} fix{} in {passes} pass{}, {} residual finding{}",
            if applied == 1 { "" } else { "es" },
            if passes == 1 { "" } else { "es" },
            residual.len(),
            if residual.len() == 1 { "" } else { "s" }
        );
    }
    if bad == 0 {
        println!(
            "lpcuda-lint: fix self-check passed ({} clean + {} seeded fixtures)",
            CLEAN.len(),
            SEEDED.len()
        );
        Ok(())
    } else {
        eprintln!("lpcuda-lint: fix self-check failed ({bad} problem(s))");
        Err(Failure::Gate)
    }
}

/// JSON shape of one machine-applicable edit.
fn edit_json(e: &Edit) -> serde_json::Value {
    match e {
        Edit::InsertBefore { line, text } => json!({
            "kind": "insert_before",
            "line": line,
            "text": text,
        }),
        Edit::ReplaceLine { line, text } => json!({
            "kind": "replace_line",
            "line": line,
            "text": text,
        }),
        Edit::DeleteLine { line } => json!({
            "kind": "delete_line",
            "line": line,
        }),
    }
}

/// The `--json` report (schema version 2): sorted findings with their fix
/// suggestions, the per-kernel static `relevance` summary (what the
/// campaign pruner sees), and the per-kernel symbolic store `footprints`
/// the byte-precise rules are proved on.
fn json_report(mut kernels: Vec<Kernels<'_>>, findings: &[(String, Diagnostic)]) -> String {
    let findings_json: Vec<_> = findings
        .iter()
        .map(|(file, d)| {
            let suggestion = d.suggestion.as_ref().map(|s| {
                json!({
                    "message": s.message,
                    "edits": s.edits.iter().map(edit_json).collect::<Vec<_>>(),
                })
            });
            json!({
                "file": file,
                "code": d.code,
                "line": d.span.line,
                "col": d.span.col,
                "end_col": d.span.end_col,
                "message": d.message,
                "suggestion": suggestion,
            })
        })
        .collect();

    kernels.sort_by_key(|(name, _)| *name);
    // Relevance is listed by kernel name, footprints in declaration order.
    let relevance: Vec<_> = kernels
        .iter()
        .map(|(name, seen)| {
            let mut by_name: Vec<_> = seen.iter().map(|(rel, _)| rel).collect();
            by_name.sort_by(|a, b| a.kernel.cmp(&b.kernel));
            json!({ "file": name, "kernels": by_name })
        })
        .collect();
    let footprints: Vec<_> = kernels
        .iter()
        .map(|(name, seen)| {
            let kernels: Vec<_> = seen
                .iter()
                .map(|(_, fp)| {
                    let stores: Vec<_> = fp
                        .stores
                        .iter()
                        .map(|s| {
                            json!({
                                "line": s.line,
                                "lhs": s.lhs,
                                "ptr": s.ptr,
                                "elem_size": s.elem_size,
                                "index": s.index.as_ref().map(|a| a.to_string()),
                                "elements": fp
                                    .elem_range(s)
                                    .map(|(lo, hi)| format!("[{lo}, {hi}]")),
                                "folded": s.folded,
                                "covered": s.covered,
                                "exact": s.exact,
                            })
                        })
                        .collect();
                    json!({
                        "kernel": fp.kernel,
                        "block_partitioned": fp.block_partitioned,
                        "fully_folded": fp.fully_folded,
                        "stores": stores,
                    })
                })
                .collect();
            json!({ "file": name, "kernels": kernels })
        })
        .collect();

    let report = json!({
        "schema_version": SCHEMA_VERSION,
        "files": kernels.len(),
        "total": findings.len(),
        "findings": findings_json,
        "relevance": relevance,
        "footprints": footprints,
    });
    serde_json::to_string_pretty(&report).expect("report serialises")
}

/// The `--sarif` report: SARIF 2.1.0, one run, one result per finding,
/// rule metadata (short/full descriptions and a `helpUri` into the rule
/// table in README.md) deduplicated from the findings actually reported.
fn sarif_report(findings: &[(String, Diagnostic)]) -> String {
    let mut rule_ids: Vec<&str> = findings.iter().map(|(_, d)| d.code).collect();
    rule_ids.sort_unstable();
    rule_ids.dedup();
    let rules: Vec<_> = rule_ids
        .iter()
        .map(|id| {
            let meta = RULES.iter().find(|r| r.code == *id);
            let summary = meta.map(|r| r.summary).unwrap_or(*id);
            let detail = meta.map(|r| r.detail).unwrap_or("");
            json!({
                "id": id,
                "name": id,
                "shortDescription": json!({ "text": summary }),
                "fullDescription": json!({ "text": detail }),
                "helpUri": format!("README.md#{}", id.to_lowercase()),
                "defaultConfiguration": json!({ "level": "error" }),
            })
        })
        .collect();
    let results: Vec<_> = findings
        .iter()
        .map(|(file, d)| {
            json!({
                "ruleId": d.code,
                "level": "error",
                "message": json!({ "text": d.message }),
                "locations": json!([json!({
                    "physicalLocation": json!({
                        "artifactLocation": json!({ "uri": file }),
                        "region": json!({
                            "startLine": d.span.line,
                            "startColumn": d.span.col,
                            "endColumn": d.span.end_col,
                        }),
                    }),
                })]),
            })
        })
        .collect();
    let doc = json!({
        "$schema": "https://json.schemastore.org/sarif-2.1.0.json",
        "version": "2.1.0",
        "runs": json!([json!({
            "tool": json!({
                "driver": json!({
                    "name": "lpcuda-lint",
                    "rules": rules,
                }),
            }),
            "results": results,
        })]),
    });
    serde_json::to_string_pretty(&doc).expect("sarif serialises")
}

/// Renders one diagnostic rustc-style: code + message, file:line:col
/// anchor, the offending source line, a caret underline spanning the
/// diagnostic's column range, and — when the finding carries a
/// machine-applicable fix — a `help:` line describing it.
fn render(file: &str, src: &str, d: &Diagnostic) -> String {
    let text = src.lines().nth(d.span.line.saturating_sub(1)).unwrap_or("");
    let num = d.span.line.to_string();
    let pad = " ".repeat(num.len());
    let indent: String = text
        .chars()
        .take(d.span.col.saturating_sub(1))
        .map(|c| if c == '\t' { '\t' } else { ' ' })
        .collect();
    let carets = "^".repeat(d.span.end_col.saturating_sub(d.span.col).max(1));
    let mut out = format!(
        "error[{code}]: {msg}\n\
         {pad}--> {file}:{line}:{col}\n\
         {pad} |\n\
         {num} | {text}\n\
         {pad} | {indent}{carets}\n",
        code = d.code,
        msg = d.message,
        line = d.span.line,
        col = d.span.col,
    );
    if let Some(s) = &d.suggestion {
        out.push_str(&format!(
            "{pad} = help: {} (machine-applicable, `--fix`)\n",
            s.message
        ));
    }
    out
}
