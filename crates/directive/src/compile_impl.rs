//! The compilation driver: pragmas → plans → rewritten source.

use crate::codegen;
use crate::error::CompileError;
use crate::kernel_scan::{body_statements, scan, KernelSpan};
use crate::lexer::{tokenize, used_identifiers};
use crate::plan::{InitPlan, LpPlan};
use crate::pragma::Pragma;
use crate::slice::backward_slice;

/// A generated check-and-recovery kernel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryKernel {
    /// Name (`cr` + original kernel name).
    pub name: String,
    /// Full generated source.
    pub source: String,
}

/// Everything the directive compiler produces.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledLp {
    /// One plan per `lpcuda_checksum` directive.
    pub plans: Vec<LpPlan>,
    /// One per `lpcuda_init` directive.
    pub init_plans: Vec<InitPlan>,
    /// The instrumented translation of the input source.
    pub instrumented: String,
    /// Generated check-and-recovery kernels (one per protected kernel).
    pub recovery_kernels: Vec<RecoveryKernel>,
    /// The host initialisation calls that replaced `lpcuda_init` pragmas.
    pub host_init_calls: Vec<String>,
}

/// Splits an assignment statement into (lhs, rhs) at the top-level `=`.
fn split_assignment(stmt: &str) -> Option<(String, String)> {
    let chars: Vec<char> = stmt.chars().collect();
    let mut depth = 0i64;
    for i in 0..chars.len() {
        match chars[i] {
            '(' | '[' => depth += 1,
            ')' | ']' => depth -= 1,
            '=' if depth == 0 => {
                let prev = if i > 0 { chars[i - 1] } else { ' ' };
                let next = chars.get(i + 1).copied().unwrap_or(' ');
                if prev != '=' && next != '=' && !"<>!+-*/&|^%".contains(prev) {
                    let lhs = chars[..i].iter().collect::<String>().trim().to_string();
                    let rhs = chars[i + 1..]
                        .iter()
                        .collect::<String>()
                        .trim()
                        .trim_end_matches(';')
                        .trim()
                        .to_string();
                    return Some((lhs, rhs));
                }
            }
            _ => {}
        }
    }
    None
}

/// Collects the full statement starting at 0-based `start` (joining lines
/// until one ends with `;`). Returns `(text, last_line)`.
fn statement_at(lines: &[&str], start: usize) -> Option<(String, usize)> {
    let mut text = String::new();
    let mut i = start;
    while i < lines.len() {
        let l = lines[i].trim();
        if l.is_empty() || l.starts_with('#') {
            if text.is_empty() {
                i += 1;
                continue;
            }
            return None; // statement interrupted
        }
        text.push_str(l);
        text.push(' ');
        if l.ends_with(';') {
            return Some((text.trim().to_string(), i));
        }
        i += 1;
    }
    None
}

/// Compiles LP directives in `source` (see the crate docs for the output
/// pieces). A source with no `#pragma nvm` lines passes through unchanged.
///
/// # Errors
///
/// Propagates the [`CompileError`] variants raised by pragma parsing,
/// kernel scanning, and store-statement analysis.
pub fn compile(source: &str) -> Result<CompiledLp, CompileError> {
    let found = scan(source)?;
    let (lines, kernels) = (found.lines, found.kernels);

    let mut plans = Vec::new();
    let mut init_plans = Vec::new();
    let mut host_init_calls = Vec::new();
    // Per-line rewrite actions.
    let mut replace: Vec<Option<String>> = vec![None; lines.len()];
    let mut insert_after: Vec<Vec<String>> = vec![Vec::new(); lines.len()];
    // Kernels that need the prologue/epilogue, by kernel index.
    let mut instrumented_kernels: Vec<(usize, LpPlan)> = Vec::new();

    for pragma in found.pragmas {
        let (line, idx) = (pragma.line, pragma.line - 1);
        let raw = lines[idx];
        match pragma.parsed? {
            Pragma::Init {
                table,
                nelems,
                selem,
                ..
            } => {
                let plan = InitPlan {
                    table,
                    nelems,
                    selem,
                };
                let call = codegen::host_init_call(&plan);
                replace[idx] = Some(format!("{indent}{call}", indent = indent_of(raw)));
                host_init_calls.push(call);
                init_plans.push(plan);
            }
            Pragma::Checksum {
                ops, table, keys, ..
            } => {
                let kidx = pragma
                    .kernel
                    .ok_or(CompileError::ChecksumOutsideKernel { line })?;
                let kspan = &kernels[kidx];
                let (stmt, stmt_end) = statement_at(&lines, idx + 1)
                    .ok_or(CompileError::MissingProtectedStore { line })?;
                let (lhs, rhs) =
                    split_assignment(&stmt).ok_or(CompileError::MissingProtectedStore { line })?;
                // Backward slice over the statements before the store.
                let stmts_before: Vec<String> =
                    body_statements(&lines, kspan.body_open_line, kspan.body_close_line)
                        .into_iter()
                        .filter(|(l, _)| *l < idx)
                        .map(|(_, s)| s)
                        .collect();
                let targets = used_identifiers(&tokenize(&lhs));
                let slice = backward_slice(&stmts_before, &targets);
                let plan = LpPlan {
                    kernel: kspan.name.clone(),
                    kernel_params: kspan.params.clone(),
                    table,
                    ops,
                    keys,
                    store_lhs: lhs,
                    store_rhs: rhs,
                    slice,
                };
                replace[idx] = Some(format!(
                    "{indent}/* lpcuda_checksum expanded below */",
                    indent = indent_of(raw)
                ));
                insert_after[stmt_end].push(format!(
                    "{indent}{stmt}",
                    indent = indent_of(lines[stmt_end]),
                    stmt = codegen::checksum_update_stmt(&plan)
                ));
                instrumented_kernels.push((kidx, plan.clone()));
                plans.push(plan);
            }
            Pragma::Mode { mode, .. } => {
                // A persist-mode pin is a runtime policy hint, not device
                // code: the host runtime reads it when configuring the
                // kernel's regions. Lower it to a comment so the emitted
                // CUDA carries no unknown pragma.
                replace[idx] = Some(format!(
                    "{indent}/* lpcuda_mode({mode}): runtime persist-mode pin */",
                    indent = indent_of(raw)
                ));
            }
            Pragma::Region { ptr, nelems, .. } => {
                // A region bound declaration is a static-analysis fact
                // (LP022) with no device lowering; comment it out likewise.
                replace[idx] = Some(format!(
                    "{indent}/* lpcuda_region({ptr}, {nelems}): persist-region bound */",
                    indent = indent_of(raw)
                ));
            }
        }
    }

    // Prologue/epilogue once per instrumented kernel, even when several
    // lpcuda_checksum directives share it (multiple protected stores fold
    // into the same region checksum).
    let mut prologued: Vec<usize> = Vec::new();
    for (kidx, plan) in &instrumented_kernels {
        if prologued.contains(kidx) {
            continue;
        }
        prologued.push(*kidx);
        let k: &KernelSpan = &kernels[*kidx];
        insert_after[k.body_open_line].push(format!("    {}", codegen::region_begin_stmt(plan)));
        // Epilogue goes right before the closing brace: model as an insert
        // after the previous line.
        let target = k.body_close_line.saturating_sub(1);
        insert_after[target].push(format!("    {}", codegen::region_end_stmt(plan)));
    }

    // Emit the rewritten source.
    let mut out = String::new();
    for (idx, raw) in lines.iter().enumerate() {
        match &replace[idx] {
            Some(r) => {
                out.push_str(r);
                out.push('\n');
            }
            None => {
                out.push_str(raw);
                out.push('\n');
            }
        }
        for ins in &insert_after[idx] {
            out.push_str(ins);
            out.push('\n');
        }
    }

    let recovery_kernels = plans
        .iter()
        .map(|p| RecoveryKernel {
            name: format!("cr{}", p.kernel),
            source: codegen::recovery_kernel(p),
        })
        .collect();

    Ok(CompiledLp {
        plans,
        init_plans,
        instrumented: out,
        recovery_kernels,
        host_init_calls,
    })
}

fn indent_of(line: &str) -> String {
    line.chars().take_while(|c| c.is_whitespace()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::ChecksumOp;

    /// The paper's Listings 5–6, lightly condensed.
    const PAPER_SRC: &str = r#"
void host(dim3 grid, dim3 threads) {
#pragma nvm lpcuda_init(checksumMM, grid.x*grid.y, 1)
    MatrixMulCUDA<<<grid, threads>>>(d_C, d_A, d_B, dimsA.x, dimsB.x);
}

__global__ void MatrixMulCUDA(float *C, float *A, float *B, int wA, int wB) {
    int bx = blockIdx.x;
    int by = blockIdx.y;
    int tx = threadIdx.x;
    int ty = threadIdx.y;
    float Csub = 0;
    int c = wB * BLOCK_SIZE * by + BLOCK_SIZE * bx;
#pragma nvm lpcuda_checksum(+, checksumMM, blockIdx.x, blockIdx.y)
    C[c + wB * ty + tx] = Csub;
}
"#;

    #[test]
    fn end_to_end_matrix_multiply() {
        let out = compile(PAPER_SRC).unwrap();
        assert_eq!(out.plans.len(), 1);
        assert_eq!(out.init_plans.len(), 1);
        let p = &out.plans[0];
        assert_eq!(p.kernel, "MatrixMulCUDA");
        assert_eq!(p.ops, vec![ChecksumOp::Modular]);
        assert_eq!(p.store_lhs, "C[c + wB * ty + tx]");
        assert_eq!(p.store_rhs, "Csub");
        assert_eq!(p.keys, vec!["blockIdx.x", "blockIdx.y"]);
        // The slice must reconstruct the address: c, tx, ty (and c's deps).
        assert!(p.slice.iter().any(|s| s.contains("int c =")));
        assert!(p.slice.iter().any(|s| s.contains("int bx")));
        assert!(!p.slice.iter().any(|s| s.contains("Csub")));
    }

    #[test]
    fn instrumented_source_has_all_pieces() {
        let out = compile(PAPER_SRC).unwrap();
        let s = &out.instrumented;
        assert!(s.contains("lpcuda_init_runtime(&checksumMM, grid.x*grid.y, 1);"));
        assert!(s.contains("lpcuda_region_begin(checksumMM);"));
        assert!(s.contains("lpcuda_update_checksum(checksumMM, \"+\", Csub);"));
        assert!(s.contains("lpcuda_block_reduce_and_store(checksumMM, blockIdx.x, blockIdx.y);"));
        assert!(!s.contains("#pragma nvm"), "pragmas must be consumed");
        // Update comes after the protected store.
        let store = s.find("C[c + wB * ty + tx] = Csub;").unwrap();
        let update = s.find("lpcuda_update_checksum").unwrap();
        assert!(update > store);
    }

    #[test]
    fn recovery_kernel_generated() {
        let out = compile(PAPER_SRC).unwrap();
        assert_eq!(out.recovery_kernels.len(), 1);
        let rk = &out.recovery_kernels[0];
        assert_eq!(rk.name, "crMatrixMulCUDA");
        assert!(rk
            .source
            .contains("lpcuda_validate(C[c + wB * ty + tx], checksumMM"));
        assert!(rk
            .source
            .contains("recovery_MatrixMulCUDA(C, A, B, wA, wB);"));
    }

    #[test]
    fn pragma_free_source_passes_through() {
        let src = "__global__ void k(int *p) {\n    p[0] = 1;\n}\n";
        let out = compile(src).unwrap();
        assert_eq!(out.instrumented, src);
        assert!(out.plans.is_empty());
        assert!(out.recovery_kernels.is_empty());
    }

    #[test]
    fn checksum_outside_kernel_rejected() {
        let src = "#pragma nvm lpcuda_checksum(+, tab, k)\nint x = 1;\n";
        assert!(matches!(
            compile(src),
            Err(CompileError::ChecksumOutsideKernel { .. })
        ));
    }

    #[test]
    fn checksum_without_store_rejected() {
        let src =
            "__global__ void k(int *p) {\n#pragma nvm lpcuda_checksum(+, tab, blockIdx.x)\n}\n";
        assert!(matches!(
            compile(src),
            Err(CompileError::MissingProtectedStore { .. })
        ));
    }

    #[test]
    fn multiline_store_statement_supported() {
        let src = r#"
__global__ void k(float *out, int n) {
    int i = blockIdx.x;
#pragma nvm lpcuda_checksum(^, tab, blockIdx.x)
    out[i] = 1.0f +
             2.0f;
}
"#;
        let out = compile(src).unwrap();
        assert_eq!(out.plans[0].store_rhs, "1.0f + 2.0f");
        assert_eq!(out.plans[0].ops, vec![ChecksumOp::Parity]);
    }

    #[test]
    fn two_pragmas_in_one_kernel_share_one_region() {
        let src = r#"
__global__ void k(float *a, float *b) {
    int i = blockIdx.x;
#pragma nvm lpcuda_checksum(+, tab, blockIdx.x)
    a[i] = 1.0f;
#pragma nvm lpcuda_checksum(+, tab, blockIdx.x)
    b[i] = 2.0f;
}
"#;
        let out = compile(src).unwrap();
        assert_eq!(out.plans.len(), 2, "one plan per protected store");
        let begins = out.instrumented.matches("lpcuda_region_begin").count();
        let ends = out
            .instrumented
            .matches("lpcuda_block_reduce_and_store")
            .count();
        assert_eq!(begins, 1, "one region prologue per kernel");
        assert_eq!(ends, 1, "one region epilogue per kernel");
        let updates = out.instrumented.matches("lpcuda_update_checksum").count();
        assert_eq!(updates, 2, "one checksum update per protected store");
    }

    #[test]
    fn two_kernels_two_plans() {
        let src = r#"
__global__ void a(float *o) {
    int i = blockIdx.x;
#pragma nvm lpcuda_checksum(+, t1, blockIdx.x)
    o[i] = 1.0f;
}
__global__ void b(float *o) {
    int j = blockIdx.x;
#pragma nvm lpcuda_checksum(+^, t2, blockIdx.x)
    o[j] = 2.0f;
}
"#;
        let out = compile(src).unwrap();
        assert_eq!(out.plans.len(), 2);
        assert_eq!(out.recovery_kernels.len(), 2);
        assert_eq!(out.plans[1].ops.len(), 2);
        assert_eq!(out.recovery_kernels[1].name, "crb");
    }
}
