//! The one source scan — `__global__` kernels, `__device__` helpers and
//! `#pragma nvm` lines found in a single walk — and the splitting of kernel
//! bodies into statements.

use crate::error::{CompileError, Span};
use crate::pragma::{is_nvm_pragma, parse_pragma, Pragma};

/// A `__global__` or `__device__` function definition found in the source.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KernelSpan {
    /// Function name.
    pub name: String,
    /// Parameter list, verbatim (without parentheses).
    pub params: String,
    /// 0-based source line of the qualifier.
    pub start_line: usize,
    /// 0-based source line of the opening `{`.
    pub body_open_line: usize,
    /// 0-based source line of the matching closing `}`.
    pub body_close_line: usize,
}

impl KernelSpan {
    /// Whether 0-based `line` falls strictly inside the kernel body — after
    /// the opening `{`'s line and before the closing `}`'s line. The brace
    /// lines themselves are outside: nothing on them belongs to the body in
    /// the line-oriented model (`#pragma` lines in particular always stand
    /// alone).
    pub fn contains_line(&self, line: usize) -> bool {
        self.body_open_line < line && line < self.body_close_line
    }
}

/// One `#pragma nvm` line of the source, parsed once.
#[derive(Debug, Clone, PartialEq)]
pub struct PragmaLine {
    /// 1-based source line.
    pub line: usize,
    /// The directive, or the error `compile` reports for it.
    pub parsed: Result<Pragma, CompileError>,
    /// Index into [`SourceScan::kernels`] of the kernel whose body holds
    /// the line.
    pub kernel: Option<usize>,
}

/// A `__global__` kernel whose body never opens or never closes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Unbalanced {
    /// Kernel name.
    pub kernel: String,
    /// The name on the kernel's `__global__` line.
    pub span: Span,
}

impl From<Unbalanced> for CompileError {
    fn from(e: Unbalanced) -> Self {
        CompileError::UnbalancedBraces { kernel: e.kernel }
    }
}

/// What one walk over a source finds: its lines, every `#pragma nvm` line
/// parsed, and the extents of every `__global__` and `__device__`
/// function definition.
#[derive(Debug)]
pub struct SourceScan<'a> {
    /// The source's lines, as written.
    pub lines: Vec<&'a str>,
    /// Every `#pragma nvm` line, in source order.
    pub pragmas: Vec<PragmaLine>,
    /// `__global__` kernel definitions, in source order.
    pub kernels: Vec<KernelSpan>,
    /// `__device__` function definitions, in source order.
    pub device_fns: Vec<KernelSpan>,
}

/// Scans `source` for function definitions and `#pragma nvm` lines.
///
/// Functions are found on a view of the source with comments and literal
/// contents blanked, so a qualifier, brace or parenthesis inside either is
/// never read as code. Prototypes and `__device__` variables (a `;` ahead
/// of the body's `{`) are skipped, and so is a `__device__` body that never
/// closes — the lint front end must not reject what it can still analyse.
/// Pragmas are parsed from the lines as written.
///
/// # Errors
///
/// Returns [`Unbalanced`] when a `__global__` body never opens or closes.
pub fn scan(source: &str) -> Result<SourceScan<'_>, Unbalanced> {
    let lines: Vec<&str> = source.lines().collect();
    let code = blank_comments_and_literals(source);
    let mut qualifiers: Vec<usize> = ["__global__", "__device__"]
        .iter()
        .flat_map(|q| code.match_indices(q).map(|(at, _)| at))
        .collect();
    qualifiers.sort_unstable();
    // The 0-based line of a byte offset. Offsets are asked for in rising
    // order, so each line break is counted once.
    let mut counted = (0, 0);
    let mut line_of = |at: usize| {
        counted.1 += code[counted.0..at].matches('\n').count();
        counted.0 = at;
        counted.1
    };
    let mut kernels = Vec::new();
    let mut device_fns = Vec::new();
    let mut resume = 0;
    for at in qualifiers {
        if at < resume {
            continue; // inside the function just scanned
        }
        let rest = &code[at..];
        // The header runs to the body's `{`; a `;` first makes this a
        // prototype or a qualified variable.
        let stop = rest.find(['{', ';']).unwrap_or(rest.len());
        if rest[stop..].starts_with(';') {
            resume = at + stop + 1;
            continue;
        }
        let header = &rest[..stop];
        let Some((name, params)) = signature(header) else {
            continue; // `__device__ int lut[2] = {1, 2};`
        };
        // `__device__ __global__` qualifies a kernel.
        let is_kernel = header.contains("__global__");
        let start_line = line_of(at);
        let Some(close) = matching_brace(rest, stop) else {
            if is_kernel {
                return Err(Unbalanced {
                    span: Span::of(start_line + 1, lines[start_line], &name),
                    kernel: name,
                });
            }
            continue;
        };
        let span = KernelSpan {
            name,
            params,
            start_line,
            body_open_line: line_of(at + stop),
            body_close_line: line_of(at + close),
        };
        resume = at + close + 1;
        if is_kernel {
            kernels.push(span);
        } else {
            device_fns.push(span);
        }
    }
    let pragmas = lines
        .iter()
        .enumerate()
        .filter(|(_, raw)| is_nvm_pragma(raw))
        .map(|(idx, raw)| PragmaLine {
            line: idx + 1,
            parsed: parse_pragma(idx + 1, raw),
            kernel: kernels.iter().position(|k| k.contains_line(idx)),
        })
        .collect();
    Ok(SourceScan {
        lines,
        pragmas,
        kernels,
        device_fns,
    })
}

/// Copies `source` with every byte of a `//` or `/* … */` comment and of a
/// string or character literal's contents replaced by a space. Line breaks
/// stay, so the copy has the same lines at the same byte offsets. A literal
/// left open ends with its line, and a digit separator (`1'000`) opens none.
fn blank_comments_and_literals(source: &str) -> String {
    #[derive(Clone, Copy)]
    enum State {
        Code,
        Number,
        LineComment,
        BlockComment,
        Literal(u8),
    }
    use State::{BlockComment, Code, LineComment, Literal, Number};
    let mut out = source.as_bytes().to_vec();
    let mut state = Code;
    let mut i = 0;
    while i < out.len() {
        let (c, next) = (out[i], out.get(i + 1).copied());
        // A number runs over letters, digits and `.`s, and over a `'` in
        // front of a letter or digit: a digit separator (`1'000`), not a
        // character literal.
        let separator = c == b'\'' && next.is_some_and(|n| n.is_ascii_alphanumeric());
        if matches!(state, Number) && !(c.is_ascii_alphanumeric() || c == b'.' || separator) {
            state = Code;
        }
        // How many bytes from `i` are comment or literal content, and the
        // state after them.
        let (content, after) = match state {
            Code => match (c, next) {
                (b'/', Some(b'/')) => (2, LineComment),
                (b'/', Some(b'*')) => (2, BlockComment),
                (b'"' | b'\'', _) => (0, Literal(c)),
                (b'0'..=b'9', _) if i == 0 || !is_ident_byte(out[i - 1]) => (0, Number),
                _ => (0, Code),
            },
            Number => (0, Number),
            LineComment | Literal(_) if c == b'\n' => (0, Code),
            LineComment => (1, LineComment),
            BlockComment if c == b'*' && next == Some(b'/') => (2, Code),
            BlockComment => (1, BlockComment),
            Literal(quote) if c == quote => (0, Code),
            Literal(_) if c == b'\\' => (2, state), // an escape, `\"` included
            Literal(_) => (1, state),
        };
        let content_end = out.len().min(i + content);
        for b in &mut out[i..content_end] {
            if !matches!(*b, b'\n' | b'\r') {
                *b = b' ';
            }
        }
        i = content_end.max(i + 1);
        state = after;
    }
    // States change on ASCII bytes alone, so only whole non-ASCII
    // sequences are overwritten, each byte by an ASCII space.
    String::from_utf8(out).expect("blanking keeps the source valid UTF-8")
}

/// Whether `b` continues an identifier, so a digit after it is no number.
fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// The offset in `code` of the `}` closing the `{` at `open`, if the body
/// closes (and `open` is not the end of `code`: the body opened at all).
fn matching_brace(code: &str, open: usize) -> Option<usize> {
    let mut depth = 0usize;
    // The delimiters are ASCII, so bytes suffice.
    for (at, c) in code.bytes().enumerate().skip(open) {
        match c {
            b'{' => depth += 1,
            b'}' if depth == 1 => return Some(at),
            b'}' => depth -= 1,
            _ => {}
        }
    }
    None
}

/// The function name and the verbatim parameter list (without parentheses,
/// lines joined by one space) of a header: the parenthesis group its last
/// `)` closes — attributes such as `__launch_bounds__(256)` come before
/// it — and the word in front of that.
fn signature(header: &str) -> Option<(String, String)> {
    let close = header.rfind(')')?;
    let mut depth = 0usize;
    let open = header[..=close].bytes().rposition(|c| {
        match c {
            b')' => depth += 1,
            b'(' => depth -= 1,
            _ => {}
        }
        depth == 0
    })?;
    let name = header[..open].split_whitespace().last().unwrap_or("");
    let params: Vec<&str> = header[open + 1..close].lines().collect();
    Some((
        name.trim_matches('*').to_string(),
        params.join(" ").trim().to_string(),
    ))
}

/// Splits a kernel body (the given 0-based line range, exclusive of the
/// braces' lines' outer parts) into `;`-terminated statements, tracking the
/// first line of each. Brace-delimited compound statements are kept
/// per-line (good enough for slicing simple declarations).
pub fn body_statements(
    lines: &[&str],
    open_line: usize,
    close_line: usize,
) -> Vec<(usize, String)> {
    let mut out = Vec::new();
    let mut cur = String::new();
    let mut cur_start = None;
    for (idx, raw) in lines
        .iter()
        .enumerate()
        .take(close_line)
        .skip(open_line + 1)
    {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if cur_start.is_none() {
            cur_start = Some(idx);
        }
        cur.push_str(line);
        cur.push(' ');
        if line.ends_with(';') || line.ends_with('{') || line.ends_with('}') {
            out.push((cur_start.take().unwrap(), cur.trim().to_string()));
            cur.clear();
        }
    }
    if !cur.trim().is_empty() {
        out.push((cur_start.unwrap_or(open_line + 1), cur.trim().to_string()));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: &str = r#"
int host_thing(void) { return 1; }

__global__ void MatrixMulCUDA(float *C, float *A,
                              float *B, int wA, int wB) {
    int bx = blockIdx.x;
    int c = wB * BLOCK_SIZE * by + BLOCK_SIZE * bx;
    C[c + wB * ty + tx] = Csub;
}

__global__ void other(int *p) {
    p[0] = 1;
}
"#;

    fn lines() -> Vec<&'static str> {
        SRC.lines().collect()
    }

    #[test]
    fn finds_both_kernels() {
        let ks = scan(SRC).unwrap().kernels;
        assert_eq!(ks.len(), 2);
        assert_eq!(ks[0].name, "MatrixMulCUDA");
        assert_eq!(ks[1].name, "other");
        assert!(ks[0].params.contains("float *C"));
        assert!(ks[0].params.contains("int wB"));
    }

    #[test]
    fn body_range_is_sane() {
        let ks = scan(SRC).unwrap().kernels;
        let k = &ks[0];
        assert!(k.body_close_line > k.body_open_line);
        assert!(k.contains_line(k.body_open_line + 1));
        assert!(!k.contains_line(0));
    }

    #[test]
    fn contains_line_excludes_the_brace_lines() {
        let ks = scan(SRC).unwrap().kernels;
        for k in &ks {
            assert!(!k.contains_line(k.body_open_line), "{}: open brace", k.name);
            assert!(
                !k.contains_line(k.body_close_line),
                "{}: close brace",
                k.name
            );
            for l in k.body_open_line + 1..k.body_close_line {
                assert!(k.contains_line(l), "{}: interior line {l}", k.name);
            }
            assert!(!k.contains_line(k.body_close_line + 1));
        }
    }

    #[test]
    fn pointer_params_extracted() {
        let analysis = crate::analysis::SourceAnalysis::new(SRC).unwrap();
        let ks: Vec<_> = analysis.kernels().collect();
        assert_eq!(
            ks[0].ir.pointer_params,
            vec!["C".to_string(), "A".into(), "B".into()]
        );
        assert_eq!(ks[1].ir.pointer_params, vec!["p".to_string()]);
    }

    #[test]
    fn statements_split_on_semicolons() {
        let ks = scan(SRC).unwrap().kernels;
        let k = &ks[0];
        let stmts = body_statements(&lines(), k.body_open_line, k.body_close_line);
        assert_eq!(stmts.len(), 3);
        assert!(stmts[0].1.starts_with("int bx"));
        assert!(stmts[2].1.starts_with("C["));
    }

    #[test]
    fn unbalanced_braces_error() {
        let err = scan("\n__global__ void bad(int *p) {\n    p[0] = 1;").unwrap_err();
        assert_eq!((err.kernel.as_str(), err.span.line), ("bad", 2));
        assert!(matches!(
            CompileError::from(err),
            CompileError::UnbalancedBraces { .. }
        ));
    }

    #[test]
    fn host_functions_ignored() {
        assert!(scan("int main() {\n  return 0;\n}")
            .unwrap()
            .kernels
            .is_empty());
    }

    #[test]
    fn blanking_keeps_every_byte_offset_and_line_break() {
        let src = "a /* {\r\n } */ b // }\n\"x\\\"}\" '}' '\\'' é /* é */ \"open\n}";
        let blanked = blank_comments_and_literals(src);
        assert_eq!(
            blanked,
            "a     \r\n      b     \n\"    \" ' ' '  ' é          \"    \n}"
        );
        assert_eq!(blanked.len(), src.len());
    }

    #[test]
    fn a_digit_separator_opens_no_literal() {
        let src = "n < 1'000 && m < 0xFF'FF) { x1'{' + u8'}' + 2.5'0 }";
        assert_eq!(
            blank_comments_and_literals(src),
            "n < 1'000 && m < 0xFF'FF) { x1' ' + u8' ' + 2.5'0 }"
        );
    }

    #[test]
    fn pragma_table_records_the_enclosing_kernel() {
        let src = "#pragma nvm lpcuda_init(t, n, 1)\n__global__ void k(int *p) {\n\
                   #pragma nvm lpcuda_checksum(+, t, blockIdx.x)\n    p[0] = 1;\n}\n\
                   #pragma nvm lpcuda_mode(eagre)\n";
        let found = scan(src).unwrap();
        let table: Vec<_> = found
            .pragmas
            .iter()
            .map(|p| (p.line, p.kernel, p.parsed.is_ok()))
            .collect();
        assert_eq!(
            table,
            vec![(1, None, true), (3, Some(0), true), (6, None, false)]
        );
    }
}
