//! Locating `__global__` kernel functions and splitting their bodies into
//! statements.

use crate::error::CompileError;

/// A kernel function found in the source.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KernelSpan {
    /// Kernel name.
    pub name: String,
    /// Parameter list, verbatim (without parentheses).
    pub params: String,
    /// 0-based source line of the `__global__` keyword.
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

    /// Names of the pointer-typed kernel parameters — the persistent
    /// buffers a `__global__` kernel can store to.
    pub fn pointer_params(&self) -> Vec<String> {
        self.params
            .split(',')
            .filter(|p| p.contains('*'))
            .filter_map(|p| {
                p.rsplit(|c: char| !c.is_alphanumeric() && c != '_')
                    .find(|s| !s.is_empty())
                    .map(str::to_string)
            })
            .collect()
    }
}

/// Where [`scan_function`] stopped.
pub(crate) enum FnScan {
    /// A definition with a balanced body.
    Definition(KernelSpan),
    /// A `;` came before the `(` or before the `{`: a qualified variable or
    /// a prototype, ending on `end_line`. Only reported when the scan was
    /// asked to recognise declarations.
    Declaration { end_line: usize },
    /// The body never opens or never closes.
    Unbalanced { name: String },
}

/// Scans the function whose qualifier (`__global__`, `__device__`) sits at
/// `lines[start][pos..]`: gathers the header (which may span lines) for the
/// name and the verbatim parameter list, then matches the body braces line
/// by line. With `declarations` set a `;` ahead of the `(` or the `{` ends
/// the scan as a [`FnScan::Declaration`] instead of being read through.
pub(crate) fn scan_function(
    lines: &[&str],
    start: usize,
    pos: usize,
    declarations: bool,
) -> FnScan {
    /// Appends following lines to `header` until `done` holds.
    fn gather(lines: &[&str], header: &mut String, j: &mut usize, done: impl Fn(&str) -> bool) {
        while !done(header) && *j + 1 < lines.len() {
            *j += 1;
            header.push(' ');
            header.push_str(lines[*j]);
        }
    }
    let mut header = lines[start][pos..].to_string();
    let mut j = start;
    gather(lines, &mut header, &mut j, |h| {
        h.contains('(') || (declarations && h.contains(';'))
    });
    let paren = header.find('(');
    if declarations && (paren.is_none() || header.find(';').is_some_and(|s| Some(s) < paren)) {
        return FnScan::Declaration { end_line: j };
    }
    let name = header
        .split('(')
        .next()
        .unwrap_or("")
        .split_whitespace()
        .last()
        .unwrap_or("")
        .trim_matches('*')
        .to_string();
    gather(lines, &mut header, &mut j, |h| h.contains(')'));
    let params = header
        .split_once('(')
        .map(|(_, rest)| rest)
        .and_then(|r| r.rsplit_once(')').map(|(p, _)| p))
        .unwrap_or("")
        .trim()
        .to_string();
    let mut depth = 0i64;
    let mut open_line = None;
    for (k, line) in lines.iter().enumerate().skip(j) {
        // The three delimiters are ASCII, so bytes suffice.
        for c in line.bytes() {
            match c {
                b';' if declarations && open_line.is_none() => {
                    return FnScan::Declaration { end_line: k };
                }
                b'{' => {
                    open_line.get_or_insert(k);
                    depth += 1;
                }
                b'}' => {
                    depth -= 1;
                    if let (0, Some(open)) = (depth, open_line) {
                        return FnScan::Definition(KernelSpan {
                            name,
                            params,
                            start_line: start,
                            body_open_line: open,
                            body_close_line: k,
                        });
                    }
                }
                _ => {}
            }
        }
    }
    FnScan::Unbalanced { name }
}

/// Scans the source for `__global__ void name(params) { … }` functions.
///
/// # Errors
///
/// Returns [`CompileError::UnbalancedBraces`] when a kernel body never
/// closes.
pub fn find_kernels(lines: &[&str]) -> Result<Vec<KernelSpan>, CompileError> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < lines.len() {
        let Some(pos) = lines[i].find("__global__") else {
            i += 1;
            continue;
        };
        match scan_function(lines, i, pos, false) {
            FnScan::Definition(span) => {
                i = span.body_close_line + 1;
                out.push(span);
            }
            FnScan::Unbalanced { name } => {
                return Err(CompileError::UnbalancedBraces { kernel: name })
            }
            FnScan::Declaration { .. } => unreachable!("declarations were not asked for"),
        }
    }
    Ok(out)
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
        let ks = find_kernels(&lines()).unwrap();
        assert_eq!(ks.len(), 2);
        assert_eq!(ks[0].name, "MatrixMulCUDA");
        assert_eq!(ks[1].name, "other");
        assert!(ks[0].params.contains("float *C"));
        assert!(ks[0].params.contains("int wB"));
    }

    #[test]
    fn body_range_is_sane() {
        let ks = find_kernels(&lines()).unwrap();
        let k = &ks[0];
        assert!(k.body_close_line > k.body_open_line);
        assert!(k.contains_line(k.body_open_line + 1));
        assert!(!k.contains_line(0));
    }

    #[test]
    fn contains_line_excludes_the_brace_lines() {
        let ks = find_kernels(&lines()).unwrap();
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
        let ks = find_kernels(&lines()).unwrap();
        assert_eq!(
            ks[0].pointer_params(),
            vec!["C".to_string(), "A".into(), "B".into()]
        );
        assert_eq!(ks[1].pointer_params(), vec!["p".to_string()]);
    }

    #[test]
    fn statements_split_on_semicolons() {
        let ks = find_kernels(&lines()).unwrap();
        let k = &ks[0];
        let stmts = body_statements(&lines(), k.body_open_line, k.body_close_line);
        assert_eq!(stmts.len(), 3);
        assert!(stmts[0].1.starts_with("int bx"));
        assert!(stmts[2].1.starts_with("C["));
    }

    #[test]
    fn unbalanced_braces_error() {
        let src = ["__global__ void bad(int *p) {", "    p[0] = 1;"];
        assert!(matches!(
            find_kernels(&src),
            Err(CompileError::UnbalancedBraces { .. })
        ));
    }

    #[test]
    fn host_functions_ignored() {
        let src = ["int main() {", "  return 0;", "}"];
        assert!(find_kernels(&src).unwrap().is_empty());
    }
}
