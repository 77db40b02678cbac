//! Parsing of the `#pragma nvm lpcuda_*` directives.

use crate::error::CompileError;
use crate::plan::ChecksumOp;

/// A parsed directive, with its 1-based source line.
#[derive(Debug, Clone, PartialEq)]
pub enum Pragma {
    /// `#pragma nvm lpcuda_init(tab, nelems, selem)` — host side.
    Init {
        /// Source line of the pragma.
        line: usize,
        /// Checksum-table identifier.
        table: String,
        /// Element-count expression (verbatim, e.g. `grid.x*grid.y`).
        nelems: String,
        /// Checksums per element.
        selem: String,
    },
    /// `#pragma nvm lpcuda_checksum(type, tab, key1, ...)` — kernel side.
    Checksum {
        /// Source line of the pragma.
        line: usize,
        /// Checksum operators (`+` and/or `^`).
        ops: Vec<ChecksumOp>,
        /// Checksum-table identifier.
        table: String,
        /// Key expressions used to index the table.
        keys: Vec<String>,
    },
    /// `#pragma nvm lpcuda_mode(mode)` — kernel side. Pins the runtime
    /// persist mode for the enclosing kernel's regions instead of letting
    /// the adaptive policy engine choose. Generates no device code; the
    /// lint pass checks the pin is not provably dominated (LP015).
    Mode {
        /// Source line of the pragma.
        line: usize,
        /// The pinned mode: `lp`, `epoch`, `eager`, `sbrp`, `checkpoint`
        /// or `adaptive`.
        mode: String,
    },
    /// `#pragma nvm lpcuda_region(ptr, nelems)` — kernel side. Declares
    /// the persist region behind pointer parameter `ptr` to span exactly
    /// `nelems` elements, giving the footprint engine a bound to prove
    /// stores against (LP022). Generates no device code.
    Region {
        /// Source line of the pragma.
        line: usize,
        /// The pointer parameter the region sits behind.
        ptr: String,
        /// Element-count expression (verbatim, e.g. `n` or `n*m`).
        nelems: String,
    },
}

/// The persist-mode names `lpcuda_mode` accepts, mirroring the runtime's
/// backend spectrum plus the adaptive meta-policy.
pub const MODE_NAMES: [&str; 6] = ["lp", "epoch", "eager", "sbrp", "checkpoint", "adaptive"];

impl Pragma {
    /// Source line of the pragma.
    pub fn line(&self) -> usize {
        match self {
            Pragma::Init { line, .. }
            | Pragma::Checksum { line, .. }
            | Pragma::Mode { line, .. }
            | Pragma::Region { line, .. } => *line,
        }
    }
}

/// Detects whether a source line is an `nvm` pragma: `nvm` opens the
/// pragma's text, as [`parse_pragma`] expects (a trailing `// … nvm`
/// comment on another pragma does not count).
pub fn is_nvm_pragma(line: &str) -> bool {
    line.trim_start()
        .strip_prefix("#pragma")
        .is_some_and(|rest| rest.trim_start().starts_with("nvm"))
}

/// Splits a top-level comma-separated argument list (no nested-paren
/// commas are split).
fn split_args(s: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut depth = 0usize;
    let mut cur = String::new();
    for c in s.chars() {
        match c {
            '(' | '[' => {
                depth += 1;
                cur.push(c);
            }
            ')' | ']' => {
                depth = depth.saturating_sub(1);
                cur.push(c);
            }
            ',' if depth == 0 => {
                out.push(cur.trim().to_string());
                cur.clear();
            }
            _ => cur.push(c),
        }
    }
    if !cur.trim().is_empty() {
        out.push(cur.trim().to_string());
    }
    out
}

/// Parses one pragma source line.
///
/// # Errors
///
/// Returns [`CompileError::MalformedPragma`] for unknown directives or
/// wrong arity, and [`CompileError::UnknownChecksumOp`] for operators other
/// than `+` / `^`.
pub fn parse_pragma(line_no: usize, line: &str) -> Result<Pragma, CompileError> {
    let t = line.trim();
    let rest = t
        .strip_prefix("#pragma")
        .map(str::trim_start)
        .and_then(|s| s.strip_prefix("nvm"))
        .map(str::trim_start)
        .ok_or_else(|| CompileError::MalformedPragma {
            line: line_no,
            reason: "expected `#pragma nvm …`".into(),
        })?;

    let (name, args) = rest
        .split_once('(')
        .ok_or_else(|| CompileError::MalformedPragma {
            line: line_no,
            reason: "missing argument list".into(),
        })?;
    let args = args
        .rsplit_once(')')
        .ok_or_else(|| CompileError::MalformedPragma {
            line: line_no,
            reason: "unclosed argument list".into(),
        })?
        .0;
    let args = split_args(args);

    match name.trim() {
        "lpcuda_init" => {
            if args.len() != 3 {
                return Err(CompileError::MalformedPragma {
                    line: line_no,
                    reason: format!("lpcuda_init expects 3 arguments, got {}", args.len()),
                });
            }
            Ok(Pragma::Init {
                line: line_no,
                table: args[0].clone(),
                nelems: args[1].clone(),
                selem: args[2].clone(),
            })
        }
        "lpcuda_checksum" => {
            if args.len() < 3 {
                return Err(CompileError::MalformedPragma {
                    line: line_no,
                    reason: format!("lpcuda_checksum expects >= 3 arguments, got {}", args.len()),
                });
            }
            // The first argument names the checksum type(s): "+", "^" or a
            // quoted/compound form like "+^".
            let op_text = args[0].trim_matches('"');
            let mut ops = Vec::new();
            for ch in op_text.chars() {
                ops.push(match ch {
                    '+' => ChecksumOp::Modular,
                    '^' => ChecksumOp::Parity,
                    other => {
                        return Err(CompileError::UnknownChecksumOp {
                            line: line_no,
                            op: other.to_string(),
                        })
                    }
                });
            }
            Ok(Pragma::Checksum {
                line: line_no,
                ops,
                table: args[1].clone(),
                keys: args[2..].to_vec(),
            })
        }
        "lpcuda_mode" => {
            if args.len() != 1 {
                return Err(CompileError::MalformedPragma {
                    line: line_no,
                    reason: format!("lpcuda_mode expects 1 argument, got {}", args.len()),
                });
            }
            let mode = args[0].trim_matches('"').to_ascii_lowercase();
            if !MODE_NAMES.contains(&mode.as_str()) {
                let hint = crate::suggest::nearest(&mode, &MODE_NAMES)
                    .map(|m| format!("; did you mean `{m}`?"))
                    .unwrap_or_default();
                return Err(CompileError::MalformedPragma {
                    line: line_no,
                    reason: format!(
                        "unknown persist mode {:?} (one of {}){hint}",
                        args[0],
                        MODE_NAMES.join(", ")
                    ),
                });
            }
            Ok(Pragma::Mode {
                line: line_no,
                mode,
            })
        }
        "lpcuda_region" => {
            if args.len() != 2 {
                return Err(CompileError::MalformedPragma {
                    line: line_no,
                    reason: format!("lpcuda_region expects 2 arguments, got {}", args.len()),
                });
            }
            Ok(Pragma::Region {
                line: line_no,
                ptr: args[0].clone(),
                nelems: args[1].clone(),
            })
        }
        other => Err(CompileError::MalformedPragma {
            line: line_no,
            reason: format!("unknown directive `{other}`"),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_init_with_expression_args() {
        // Listing 5 of the paper.
        let p = parse_pragma(1, "#pragma nvm lpcuda_init(checksumMM, grid.x*grid.y, 1)").unwrap();
        assert_eq!(
            p,
            Pragma::Init {
                line: 1,
                table: "checksumMM".into(),
                nelems: "grid.x*grid.y".into(),
                selem: "1".into(),
            }
        );
    }

    #[test]
    fn parses_checksum_with_keys() {
        // Listing 6 of the paper.
        let p = parse_pragma(
            9,
            r#"#pragma nvm lpcuda_checksum("+", checksumMM, blockIdx.x, blockIdx.y)"#,
        )
        .unwrap();
        match p {
            Pragma::Checksum {
                ops, table, keys, ..
            } => {
                assert_eq!(ops, vec![ChecksumOp::Modular]);
                assert_eq!(table, "checksumMM");
                assert_eq!(keys, vec!["blockIdx.x", "blockIdx.y"]);
            }
            _ => panic!("wrong variant"),
        }
    }

    #[test]
    fn compound_operator_gives_two_checksums() {
        let p = parse_pragma(1, r#"#pragma nvm lpcuda_checksum("+^", tab, k)"#).unwrap();
        match p {
            Pragma::Checksum { ops, .. } => {
                assert_eq!(ops, vec![ChecksumOp::Modular, ChecksumOp::Parity]);
            }
            _ => panic!(),
        }
    }

    #[test]
    fn parses_mode_pin() {
        let p = parse_pragma(4, "#pragma nvm lpcuda_mode(eager)").unwrap();
        assert_eq!(
            p,
            Pragma::Mode {
                line: 4,
                mode: "eager".into(),
            }
        );
        // Case-insensitive, quotes tolerated like the checksum op.
        let p = parse_pragma(5, r#"#pragma nvm lpcuda_mode("Adaptive")"#).unwrap();
        assert_eq!(
            p,
            Pragma::Mode {
                line: 5,
                mode: "adaptive".into(),
            }
        );
    }

    #[test]
    fn rejects_bad_mode_pins() {
        // Wrong arity.
        assert!(matches!(
            parse_pragma(6, "#pragma nvm lpcuda_mode(eager, epoch)"),
            Err(CompileError::MalformedPragma { line: 6, .. })
        ));
        // A misspelled mode must not silently ship as a no-op pin.
        let err = parse_pragma(7, "#pragma nvm lpcuda_mode(eagre)").unwrap_err();
        assert!(err.to_string().contains("unknown persist mode"));
    }

    #[test]
    fn unknown_modes_get_a_did_you_mean() {
        for (typo, meant) in [
            ("eagre", "eager"),
            ("epcoh", "epoch"),
            ("sbpr", "sbrp"),
            ("adaptve", "adaptive"),
        ] {
            let err = parse_pragma(3, &format!("#pragma nvm lpcuda_mode({typo})")).unwrap_err();
            let msg = err.to_string();
            assert!(
                msg.contains(&format!("did you mean `{meant}`?")),
                "{typo}: {msg}"
            );
        }
        // Nothing close: no suggestion at all.
        let err = parse_pragma(3, "#pragma nvm lpcuda_mode(quantum)").unwrap_err();
        assert!(!err.to_string().contains("did you mean"));
    }

    #[test]
    fn sbrp_is_a_valid_mode_pin() {
        assert!(matches!(
            parse_pragma(4, "#pragma nvm lpcuda_mode(sbrp)"),
            Ok(Pragma::Mode { mode, .. }) if mode == "sbrp"
        ));
    }

    #[test]
    fn parses_region_declaration() {
        let p = parse_pragma(3, "#pragma nvm lpcuda_region(out, n*m)").unwrap();
        assert_eq!(
            p,
            Pragma::Region {
                line: 3,
                ptr: "out".into(),
                nelems: "n*m".into(),
            }
        );
        // Wrong arity is rejected like the other directives.
        assert!(parse_pragma(4, "#pragma nvm lpcuda_region(out)").is_err());
        assert!(parse_pragma(5, "#pragma nvm lpcuda_region(out, n, m)").is_err());
    }

    #[test]
    fn rejects_unknown_directive() {
        assert!(matches!(
            parse_pragma(2, "#pragma nvm lpcuda_frobnicate(x)"),
            Err(CompileError::MalformedPragma { line: 2, .. })
        ));
    }

    #[test]
    fn rejects_unknown_operator() {
        assert!(matches!(
            parse_pragma(3, r#"#pragma nvm lpcuda_checksum("%", tab, k)"#),
            Err(CompileError::UnknownChecksumOp { line: 3, .. })
        ));
    }

    #[test]
    fn rejects_wrong_arity() {
        assert!(parse_pragma(4, "#pragma nvm lpcuda_init(tab)").is_err());
        assert!(parse_pragma(5, r#"#pragma nvm lpcuda_checksum("+", tab)"#).is_err());
    }

    #[test]
    fn detects_pragma_lines() {
        assert!(is_nvm_pragma("  #pragma nvm lpcuda_init(a, b, c)"));
        assert!(!is_nvm_pragma("#pragma unroll"));
        assert!(!is_nvm_pragma("#pragma unroll // tuned for nvm"));
        assert!(!is_nvm_pragma("int x = 1; // nvm"));
    }

    #[test]
    fn nested_parens_in_args_kept_whole() {
        let p = parse_pragma(1, "#pragma nvm lpcuda_init(tab, f(g(x), y), 2)").unwrap();
        match p {
            Pragma::Init { nelems, .. } => assert_eq!(nelems, "f(g(x), y)"),
            _ => panic!(),
        }
    }
}
