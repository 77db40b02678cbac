//! Backward program slicing over simple declaration/assignment statements.
//!
//! §VI: *"The compiler exploits a program slice that is used for the
//! pointer calculation"* — the check-and-recovery kernel must recompute
//! the protected store's address, so it needs exactly the statements the
//! address expression (transitively) depends on.

use crate::lexer::{tokenize, used_identifiers, Kind};

/// A statement's def/use summary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DefUse {
    /// Variable defined (for `type x = …;` / `x = …;` forms), if any.
    pub def: Option<String>,
    /// Identifiers used on the right-hand side (or anywhere, if no def).
    pub uses: Vec<String>,
    /// The statement's source text.
    pub text: String,
}

/// Analyses one statement into its def/use summary.
pub fn def_use(stmt: &str) -> DefUse {
    let tokens = tokenize(stmt);
    // Find a top-level `=` that is an assignment (not ==, <=, …; the lexer
    // already merged those).
    let eq = tokens.iter().position(|t| t.is_punct("="));
    match eq {
        Some(pos) => {
            // Defined variable: the last plain identifier before `=` that
            // is not inside an index expression (C[i] = … defines C's
            // element, not a scalar — treat as no scalar def).
            let lhs = &tokens[..pos];
            let indexed = lhs.iter().any(|t| t.is_punct("["));
            let def = if indexed {
                None
            } else {
                lhs.iter()
                    .rev()
                    .find(|t| t.kind == Kind::Ident)
                    .map(|t| t.text.to_string())
                    .filter(|s| !is_type_word(s))
            };
            DefUse {
                def,
                uses: used_identifiers(&tokens[pos + 1..]),
                text: stmt.to_string(),
            }
        }
        None => DefUse {
            def: None,
            uses: used_identifiers(&tokens),
            text: stmt.to_string(),
        },
    }
}

fn is_type_word(s: &str) -> bool {
    matches!(
        s,
        "int" | "float" | "double" | "char" | "void" | "unsigned" | "long" | "short" | "const"
    )
}

/// Computes the backward slice: the subset of `stmts` (in source order)
/// needed to evaluate `targets`.
///
/// Intrinsic CUDA identifiers (`blockIdx`, `threadIdx`, `blockDim`,
/// `gridDim`) and kernel parameters need no defining statement.
pub fn backward_slice(stmts: &[String], targets: &[String]) -> Vec<String> {
    let intrinsics = [
        "blockIdx",
        "threadIdx",
        "blockDim",
        "gridDim",
        "x",
        "y",
        "z",
    ];
    let summaries: Vec<DefUse> = stmts.iter().map(|s| def_use(s)).collect();
    let mut needed: Vec<String> = targets
        .iter()
        .filter(|t| !intrinsics.contains(&t.as_str()))
        .cloned()
        .collect();
    let mut included = vec![false; stmts.len()];
    // Walk backwards so later redefinitions win.
    let mut changed = true;
    while changed {
        changed = false;
        for (i, s) in summaries.iter().enumerate().rev() {
            if included[i] {
                continue;
            }
            if let Some(def) = &s.def {
                if needed.contains(def) {
                    included[i] = true;
                    changed = true;
                    for u in &s.uses {
                        if !intrinsics.contains(&u.as_str()) && !needed.contains(u) {
                            needed.push(u.clone());
                        }
                    }
                }
            }
        }
    }
    summaries
        .iter()
        .zip(&included)
        .filter(|(_, inc)| **inc)
        .map(|(s, _)| s.text.clone())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stmts() -> Vec<String> {
        [
            "int bx = blockIdx.x;",
            "int by = blockIdx.y;",
            "int tx = threadIdx.x;",
            "int ty = threadIdx.y;",
            "float Csub = 0;",
            "int c = wB * BLOCK_SIZE * by + BLOCK_SIZE * bx;",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect()
    }

    #[test]
    fn def_use_of_declaration() {
        let du = def_use("int c = wB * BLOCK_SIZE * by + BLOCK_SIZE * bx;");
        assert_eq!(du.def.as_deref(), Some("c"));
        assert!(du.uses.contains(&"wB".to_string()));
        assert!(du.uses.contains(&"by".to_string()));
    }

    #[test]
    fn indexed_store_defines_nothing_scalar() {
        let du = def_use("C[c + wB * ty + tx] = Csub;");
        assert_eq!(du.def, None);
        assert!(du.uses.contains(&"Csub".to_string()));
    }

    #[test]
    fn slice_pulls_transitive_deps() {
        // The paper's Listing 7 slice: address of C[c + wB*ty + tx] needs
        // c (which needs bx, by), tx, ty — but not Csub.
        let targets = vec![
            "c".to_string(),
            "wB".to_string(),
            "ty".to_string(),
            "tx".to_string(),
        ];
        let slice = backward_slice(&stmts(), &targets);
        assert!(slice.iter().any(|s| s.starts_with("int c")));
        assert!(slice.iter().any(|s| s.starts_with("int bx")));
        assert!(slice.iter().any(|s| s.starts_with("int by")));
        assert!(slice.iter().any(|s| s.starts_with("int tx")));
        assert!(slice.iter().any(|s| s.starts_with("int ty")));
        assert!(
            !slice.iter().any(|s| s.contains("Csub")),
            "value expr not in address slice"
        );
    }

    #[test]
    fn slice_preserves_source_order() {
        let targets = vec!["c".to_string()];
        let slice = backward_slice(&stmts(), &targets);
        let pos_bx = slice.iter().position(|s| s.starts_with("int bx")).unwrap();
        let pos_c = slice.iter().position(|s| s.starts_with("int c")).unwrap();
        assert!(pos_bx < pos_c);
    }

    #[test]
    fn kernel_params_need_no_definition() {
        // `wB` is a parameter: no defining statement exists, slice still
        // terminates and includes only what it can.
        let slice = backward_slice(&stmts(), &["wB".to_string()]);
        assert!(slice.is_empty());
    }
}
