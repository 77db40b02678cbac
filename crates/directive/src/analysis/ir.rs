//! Statement-level mini-IR for `__global__` kernel bodies.
//!
//! The flow-sensitive lint rules (LP010–LP014) need more structure than the
//! flat statement list the slicer uses: *which* statements execute under
//! *which* conditions. This module parses a kernel body into a small
//! statement tree with real control flow — `if`/`else`, `for`/`while`,
//! `__syncthreads()` barriers, `lpcuda_checksum` fold sites, global stores
//! and local assignments — from which [`super::cfg`] builds a per-kernel
//! control-flow graph.
//!
//! The parser is deliberately lenient: this is a lint front end, not a C
//! compiler. Anything it does not recognise becomes an opaque
//! [`StmtKind::Other`] that the dataflow passes treat conservatively
//! (no definitions, no stores); it must never panic on weird input.
//! `for` loops are desugared on the way in — the init clause is hoisted in
//! front of the loop and the step clause appended to the body — so the CFG
//! layer only ever sees one loop shape.

use crate::kernel_scan::{KernelSpan, PragmaLine};
use crate::lexer::{detokenize, tokenize, Token};
use crate::pragma::Pragma;

/// One parsed kernel body plus the signature facts the rules need.
#[derive(Debug, Clone)]
pub struct KernelIr {
    /// Kernel name.
    pub name: String,
    /// Names of every kernel parameter (uniform across the grid).
    pub param_names: Vec<String>,
    /// Declared type text of each parameter, parallel to `param_names`
    /// (e.g. `"const float *"`); empty string when unrecoverable.
    pub param_types: Vec<String>,
    /// Names of the pointer-typed parameters (the global buffers).
    pub pointer_params: Vec<String>,
    /// Declared persist regions from `lpcuda_region(ptr, nelems)` pragmas
    /// in the body, as `(line, pointer_param, element_count_expr)`.
    pub regions: Vec<(usize, String, String)>,
    /// The statement tree of the body.
    pub body: Vec<Stmt>,
}

/// One statement with its 1-based source line.
#[derive(Debug, Clone)]
pub struct Stmt {
    /// 1-based source line of the statement's first token.
    pub line: usize,
    /// What the statement is.
    pub kind: StmtKind,
}

/// The scope of a `__threadfence*` memory fence, ordered by strength:
/// a block fence orders writes for the block, a device fence for the
/// whole GPU, a system fence for the host too.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FenceScope {
    /// `__threadfence_block()`.
    Block,
    /// `__threadfence()`.
    Device,
    /// `__threadfence_system()`.
    System,
}

impl FenceScope {
    /// The intrinsic name for this scope, for diagnostics.
    pub fn intrinsic(self) -> &'static str {
        match self {
            FenceScope::Block => "__threadfence_block",
            FenceScope::Device => "__threadfence",
            FenceScope::System => "__threadfence_system",
        }
    }
}

/// The statement forms the analysis distinguishes.
#[derive(Debug, Clone)]
pub enum StmtKind {
    /// `if (cond) … else …`.
    If {
        /// Condition text.
        cond: String,
        /// Then branch.
        then_branch: Vec<Stmt>,
        /// Else branch (empty when absent).
        else_branch: Vec<Stmt>,
    },
    /// `while (cond) …`, or a desugared `for` (init hoisted before the
    /// loop, step appended to the body).
    Loop {
        /// Condition text (`1` for an empty `for` condition).
        cond: String,
        /// Loop body.
        body: Vec<Stmt>,
    },
    /// `__syncthreads();`.
    Sync,
    /// `__threadfence()` / `__threadfence_block()` /
    /// `__threadfence_system()`: a memory fence at the given scope — the
    /// durability point the epoch/SBRP contracts order stores against.
    Fence {
        /// Fence scope.
        scope: FenceScope,
    },
    /// A statement-expression call `helper(a, b);`. The interprocedural
    /// pass resolves the callee against the `__device__` function
    /// summaries; unknown callees stay effect-free.
    Call {
        /// Callee name.
        name: String,
        /// Argument expressions, verbatim.
        args: Vec<String>,
    },
    /// `#pragma nvm lpcuda_checksum(op, table, key, …)` — a fold site.
    Fold {
        /// Checksum-table identifier.
        table: String,
        /// Key expressions indexing the table.
        keys: Vec<String>,
    },
    /// A declaration, one per declarator: `float v;`, `int c = expr;`.
    Decl {
        /// Declared name.
        name: String,
        /// Initialiser expression, when present.
        init: Option<String>,
        /// Declared `__shared__` (stores into it are not global stores).
        shared: bool,
        /// Declared with array dimensions (`float tile[16]`): element
        /// writes are opaque, so the variable never gets scalar defs.
        array: bool,
    },
    /// An assignment `lhs = rhs;` (compound assignments and `++`/`--` are
    /// normalised to this form: `i++` becomes `i = i + 1`).
    Assign {
        /// Left-hand side, verbatim.
        lhs: String,
        /// Right-hand side after normalisation.
        rhs: String,
    },
    /// Anything else (calls, `return`, unsupported constructs).
    Other {
        /// The statement text, detokenised.
        text: String,
    },
}

/// A token tagged with its 1-based source line; pragma lines collapse to
/// one [`LTok::Fold`] marker so folds interleave positionally with code.
#[derive(Debug, Clone)]
enum LTok {
    Tok(usize, Token),
    Fold(usize, String, Vec<String>),
}

impl LTok {
    fn line(&self) -> usize {
        match self {
            LTok::Tok(l, _) | LTok::Fold(l, _, _) => *l,
        }
    }
}

/// Parses the body of `span` out of the full source `lines` into an IR,
/// reading the body's directives from the source's pragma table.
pub(super) fn parse_kernel(lines: &[&str], span: &KernelSpan, pragmas: &[PragmaLine]) -> KernelIr {
    let mut toks = Vec::new();
    let mut regions = Vec::new();
    let last = span.body_close_line.min(lines.len());
    let mut pragmas = pragmas
        .iter()
        .skip_while(|p| p.line <= span.body_open_line + 1)
        .peekable();
    for (idx, raw) in lines
        .iter()
        .enumerate()
        .take(last)
        .skip(span.body_open_line + 1)
    {
        let raw = *raw;
        let line_no = idx + 1;
        if let Some(pragma) = pragmas.next_if(|p| p.line == line_no) {
            match &pragma.parsed {
                Ok(Pragma::Checksum { table, keys, .. }) => {
                    toks.push(LTok::Fold(line_no, table.clone(), keys.clone()));
                }
                Ok(Pragma::Region { ptr, nelems, .. }) => {
                    regions.push((line_no, ptr.clone(), nelems.clone()));
                }
                _ => {} // malformed or host-side pragmas are compile's problem
            }
            continue;
        }
        if raw.trim_start().starts_with('#') {
            continue; // other preprocessor lines carry no dataflow
        }
        for t in tokenize(raw) {
            toks.push(LTok::Tok(line_no, t));
        }
    }
    let mut p = Parser { toks, pos: 0 };
    let body = p.parse_seq();
    let decls = param_decls(&span.params);
    KernelIr {
        name: span.name.clone(),
        param_names: decls.iter().map(|(_, n)| n.clone()).collect(),
        pointer_params: decls
            .iter()
            .filter(|(ty, _)| ty.contains('*'))
            .map(|(_, n)| n.clone())
            .collect(),
        param_types: decls.into_iter().map(|(t, _)| t).collect(),
        regions,
        body,
    }
}

/// Every parameter as a `(type_text, name)` pair, pointer-typed or not.
fn param_decls(params: &str) -> Vec<(String, String)> {
    params
        .split(',')
        .filter_map(|p| {
            let name = p
                .rsplit(|c: char| !c.is_alphanumeric() && c != '_')
                .find(|s| !s.is_empty())?
                .to_string();
            let ty = p
                .rfind(&name)
                .map(|at| p[..at].trim().to_string())
                .unwrap_or_default();
            Some((ty, name))
        })
        .filter(|(_, n)| n != "void")
        .collect()
}

/// Type/qualifier keywords that open a declaration.
const TYPE_STARTERS: [&str; 22] = [
    "__shared__",
    "const",
    "static",
    "volatile",
    "register",
    "unsigned",
    "signed",
    "int",
    "float",
    "double",
    "char",
    "long",
    "short",
    "bool",
    "size_t",
    "uint8_t",
    "uint16_t",
    "uint32_t",
    "uint64_t",
    "int32_t",
    "int64_t",
    "half",
];

/// Operators whose `op=` compound-assignment form the lexer splits into
/// two tokens (everything except `+=`, which lexes whole).
const COMPOUND_OPS: [&str; 10] = ["+", "-", "*", "/", "%", "&", "|", "^", "<<", ">>"];

struct Parser {
    toks: Vec<LTok>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> Option<&LTok> {
        self.toks.get(self.pos)
    }

    fn peek_is_punct(&self, p: &str) -> bool {
        matches!(self.peek(), Some(LTok::Tok(_, t)) if t.is_punct(p))
    }

    fn peek_is_ident(&self, id: &str) -> bool {
        matches!(self.peek(), Some(LTok::Tok(_, t)) if t.is_ident(id))
    }

    fn bump(&mut self) -> Option<LTok> {
        let t = self.toks.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    /// Parses statements until a `}` at this nesting level (not consumed)
    /// or the end of input.
    fn parse_seq(&mut self) -> Vec<Stmt> {
        let mut out = Vec::new();
        while let Some(t) = self.peek() {
            if matches!(t, LTok::Tok(_, tok) if tok.is_punct("}")) {
                break;
            }
            out.extend(self.parse_stmt());
        }
        out
    }

    /// Parses one statement (possibly desugaring to several).
    fn parse_stmt(&mut self) -> Vec<Stmt> {
        let Some(head) = self.peek().cloned() else {
            return Vec::new();
        };
        let line = head.line();
        match head {
            LTok::Fold(_, table, keys) => {
                self.pos += 1;
                vec![Stmt {
                    line,
                    kind: StmtKind::Fold { table, keys },
                }]
            }
            LTok::Tok(_, tok) => {
                if tok.is_punct("{") {
                    self.pos += 1;
                    let inner = self.parse_seq();
                    self.eat_punct("}");
                    return inner; // a bare block is control-transparent
                }
                if tok.is_punct(";") {
                    self.pos += 1;
                    return Vec::new();
                }
                if tok.is_ident("if") {
                    return self.parse_if(line);
                }
                if tok.is_ident("while") {
                    return self.parse_while(line);
                }
                if tok.is_ident("for") {
                    return self.parse_for(line);
                }
                if tok.is_ident("__syncthreads") {
                    self.skip_through_semicolon();
                    return vec![Stmt {
                        line,
                        kind: StmtKind::Sync,
                    }];
                }
                if let Some(scope) = fence_scope(&tok) {
                    self.skip_through_semicolon();
                    return vec![Stmt {
                        line,
                        kind: StmtKind::Fence { scope },
                    }];
                }
                let toks = self.gather_simple();
                classify_simple(&toks, line)
            }
        }
    }

    fn eat_punct(&mut self, p: &str) {
        if self.peek_is_punct(p) {
            self.pos += 1;
        }
    }

    fn skip_through_semicolon(&mut self) {
        while let Some(t) = self.bump() {
            if matches!(t, LTok::Tok(_, tok) if tok.is_punct(";")) {
                break;
            }
        }
    }

    /// After a control keyword: consumes `( … )` and returns the inner
    /// tokens (balanced, possibly spanning lines).
    fn gather_parens(&mut self) -> Vec<Token> {
        let mut out = Vec::new();
        if !self.peek_is_punct("(") {
            return out;
        }
        self.pos += 1;
        let mut depth = 1usize;
        while let Some(LTok::Tok(_, tok)) = self.bump() {
            if tok.is_punct("(") {
                depth += 1;
            } else if tok.is_punct(")") {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            out.push(tok);
        }
        out
    }

    /// Gathers a simple statement's tokens through the terminating `;`
    /// (excluded), stopping early at an unnested `}`.
    fn gather_simple(&mut self) -> Vec<Token> {
        let mut out = Vec::new();
        let mut depth = 0i64;
        while let Some(t) = self.peek() {
            let LTok::Tok(_, tok) = t else { break };
            if depth == 0 && tok.is_punct(";") {
                self.pos += 1;
                break;
            }
            if depth == 0 && tok.is_punct("}") {
                break;
            }
            match tok.text() {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => depth -= 1,
                _ => {}
            }
            out.push(tok.clone());
            self.pos += 1;
        }
        out
    }

    /// A branch/loop body: either a braced block or a single statement.
    fn parse_body(&mut self) -> Vec<Stmt> {
        if self.peek_is_punct("{") {
            self.pos += 1;
            let body = self.parse_seq();
            self.eat_punct("}");
            body
        } else {
            self.parse_stmt()
        }
    }

    fn parse_if(&mut self, line: usize) -> Vec<Stmt> {
        self.pos += 1; // `if`
        let cond = detokenize(&self.gather_parens());
        let then_branch = self.parse_body();
        let else_branch = if self.peek_is_ident("else") {
            self.pos += 1;
            self.parse_body() // `else if` recurses through parse_stmt
        } else {
            Vec::new()
        };
        vec![Stmt {
            line,
            kind: StmtKind::If {
                cond,
                then_branch,
                else_branch,
            },
        }]
    }

    fn parse_while(&mut self, line: usize) -> Vec<Stmt> {
        self.pos += 1; // `while`
        let cond = detokenize(&self.gather_parens());
        let body = self.parse_body();
        vec![Stmt {
            line,
            kind: StmtKind::Loop { cond, body },
        }]
    }

    fn parse_for(&mut self, line: usize) -> Vec<Stmt> {
        self.pos += 1; // `for`
        let header = self.gather_parens();
        let mut parts: Vec<Vec<Token>> = vec![Vec::new()];
        let mut depth = 0i64;
        for t in header {
            match t.text() {
                "(" | "[" => depth += 1,
                ")" | "]" => depth -= 1,
                ";" if depth == 0 => {
                    parts.push(Vec::new());
                    continue;
                }
                _ => {}
            }
            parts.last_mut().expect("non-empty").push(t);
        }
        parts.resize(3, Vec::new());
        let mut out = classify_simple(&parts[0], line); // hoisted init
        let cond = if parts[1].is_empty() {
            "1".to_string()
        } else {
            detokenize(&parts[1])
        };
        let mut body = self.parse_body();
        body.extend(classify_simple(&parts[2], line)); // step at body end
        out.push(Stmt {
            line,
            kind: StmtKind::Loop { cond, body },
        });
        out
    }
}

/// The fence scope of a `__threadfence*` intrinsic token, if it is one.
fn fence_scope(tok: &Token) -> Option<FenceScope> {
    if tok.is_ident("__threadfence") {
        Some(FenceScope::Device)
    } else if tok.is_ident("__threadfence_block") {
        Some(FenceScope::Block)
    } else if tok.is_ident("__threadfence_system") {
        Some(FenceScope::System)
    } else {
        None
    }
}

/// Classifies a `;`-terminated statement's tokens (terminator excluded)
/// into declarations, assignments, calls, or an opaque statement.
fn classify_simple(toks: &[Token], line: usize) -> Vec<Stmt> {
    if toks.is_empty() {
        return Vec::new();
    }
    if matches!(&toks[0], Token::Ident(n) if TYPE_STARTERS.contains(&n.as_str())) {
        return classify_decl(toks, line);
    }
    if let Some(stmt) = classify_assign(toks, line) {
        return vec![stmt];
    }
    if let Some(stmt) = classify_call(toks, line) {
        return vec![stmt];
    }
    vec![Stmt {
        line,
        kind: StmtKind::Other {
            text: detokenize(toks),
        },
    }]
}

/// Recognises a whole-statement call expression `name(arg, …)` — the form
/// a `__device__` helper invocation takes when its result is discarded.
/// Anything with leading/trailing tokens outside the call (casts, member
/// calls, arithmetic) stays opaque.
fn classify_call(toks: &[Token], line: usize) -> Option<Stmt> {
    let Token::Ident(name) = toks.first()? else {
        return None;
    };
    if !toks.get(1)?.is_punct("(") || !toks.last()?.is_punct(")") {
        return None;
    }
    // The opening paren must match the final token, or this is something
    // like `f(a) + g(b)` and not a plain call statement.
    let inner = &toks[2..toks.len() - 1];
    let mut depth = 0i64;
    let mut args: Vec<Vec<Token>> = vec![Vec::new()];
    for t in inner {
        match t.text() {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => {
                depth -= 1;
                if depth < 0 {
                    return None; // `)` closing the call before the end
                }
            }
            "," if depth == 0 => {
                args.push(Vec::new());
                continue;
            }
            _ => {}
        }
        args.last_mut().expect("non-empty").push(t.clone());
    }
    let args: Vec<String> = args
        .into_iter()
        .map(|a| detokenize(&a))
        .filter(|a| !a.is_empty())
        .collect();
    Some(Stmt {
        line,
        kind: StmtKind::Call {
            name: name.clone(),
            args,
        },
    })
}

/// Parses `qualifiers type a = x, b[N], c;` into one [`StmtKind::Decl`]
/// per declarator.
fn classify_decl(toks: &[Token], line: usize) -> Vec<Stmt> {
    let shared = toks.iter().any(|t| t.is_ident("__shared__"));
    // Skip the qualifier/type prefix: leading type keywords and `*`s.
    let mut i = 0;
    while i < toks.len() {
        match &toks[i] {
            Token::Ident(n) if TYPE_STARTERS.contains(&n.as_str()) => i += 1,
            Token::Punct(p) if p == "*" => i += 1,
            _ => break,
        }
    }
    // Split the declarators at top-level commas.
    let mut groups: Vec<Vec<Token>> = vec![Vec::new()];
    let mut depth = 0i64;
    for t in &toks[i..] {
        match t.text() {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => depth -= 1,
            "," if depth == 0 => {
                groups.push(Vec::new());
                continue;
            }
            _ => {}
        }
        groups.last_mut().expect("non-empty").push(t.clone());
    }
    let mut out = Vec::new();
    for g in groups {
        // Declarator shape: [*…] name [\[dims\]…] [= init…]
        let mut j = 0;
        while j < g.len() && g[j].is_punct("*") {
            j += 1;
        }
        let Some(Token::Ident(name)) = g.get(j) else {
            continue;
        };
        let array = matches!(g.get(j + 1), Some(t) if t.is_punct("["));
        let init = g
            .iter()
            .position(|t| t.is_punct("="))
            .map(|eq| detokenize(&g[eq + 1..]));
        out.push(Stmt {
            line,
            kind: StmtKind::Decl {
                name: name.clone(),
                init,
                shared,
                array,
            },
        });
    }
    if out.is_empty() {
        vec![Stmt {
            line,
            kind: StmtKind::Other {
                text: detokenize(toks),
            },
        }]
    } else {
        out
    }
}

/// Recognises plain, compound (`+=`, `x -= y`, …) and increment/decrement
/// assignments, normalising all of them to `lhs = rhs`.
fn classify_assign(toks: &[Token], line: usize) -> Option<Stmt> {
    let mut depth = 0i64;
    for (i, t) in toks.iter().enumerate() {
        match t.text() {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => depth -= 1,
            _ if depth != 0 => {}
            "=" => {
                // `a -= b` lexes as `a` `-` `=` `b`; fold the op into rhs.
                let (lhs_end, op) = match toks.get(i.wrapping_sub(1)) {
                    Some(Token::Punct(p)) if i > 0 && COMPOUND_OPS.contains(&p.as_str()) => {
                        (i - 1, Some(p.clone()))
                    }
                    _ => (i, None),
                };
                let lhs = detokenize(&toks[..lhs_end]);
                let tail = detokenize(&toks[i + 1..]);
                let rhs = match op {
                    Some(op) => format!("{lhs} {op} ({tail})"),
                    None => tail,
                };
                return Some(Stmt {
                    line,
                    kind: StmtKind::Assign { lhs, rhs },
                });
            }
            "+=" => {
                let lhs = detokenize(&toks[..i]);
                let rhs = format!("{lhs} + ({})", detokenize(&toks[i + 1..]));
                return Some(Stmt {
                    line,
                    kind: StmtKind::Assign { lhs, rhs },
                });
            }
            "++" | "--" => {
                let lhs = if i == 0 {
                    detokenize(&toks[1..])
                } else {
                    detokenize(&toks[..i])
                };
                if lhs.is_empty() {
                    return None;
                }
                let rhs = format!("{lhs} + 1");
                return Some(Stmt {
                    line,
                    kind: StmtKind::Assign { lhs, rhs },
                });
            }
            _ => {}
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::first_kernel;

    #[test]
    fn parses_straight_line_kernel() {
        let k = first_kernel(
            r#"
__global__ void k(float *out, float *in, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    float v = in[i] * 2.0f;
#pragma nvm lpcuda_checksum(+, tab, blockIdx.x)
    out[i] = v;
}
"#,
        );
        let ir = &k.ir;
        assert_eq!(ir.name, "k");
        assert_eq!(ir.pointer_params, vec!["out".to_string(), "in".into()]);
        assert_eq!(ir.param_names.len(), 3);
        assert!(k.is_protected());
        assert_eq!(ir.body.len(), 4);
        assert!(
            matches!(&ir.body[0].kind, StmtKind::Decl { name, init: Some(_), .. } if name == "i")
        );
        assert!(matches!(&ir.body[2].kind, StmtKind::Fold { table, .. } if table == "tab"));
        assert!(matches!(&ir.body[3].kind, StmtKind::Assign { lhs, .. } if lhs == "out[i]"));
        assert_eq!(ir.body[3].line, 6);
    }

    #[test]
    fn parses_if_else_and_sync() {
        let ir = first_kernel(
            r#"
__global__ void k(float *p) {
    if (threadIdx.x < 16) {
        __syncthreads();
    } else {
        p[blockIdx.x] = 1.0f;
    }
}
"#,
        )
        .ir;
        let StmtKind::If {
            cond,
            then_branch,
            else_branch,
        } = &ir.body[0].kind
        else {
            panic!("expected if, got {:?}", ir.body[0]);
        };
        assert_eq!(cond, "threadIdx.x<16");
        assert!(matches!(then_branch[0].kind, StmtKind::Sync));
        assert!(matches!(&else_branch[0].kind, StmtKind::Assign { .. }));
    }

    #[test]
    fn desugars_for_loops() {
        let ir = first_kernel(
            r#"
__global__ void k(float *p, int n) {
    for (int i = 0; i < n; i++) {
        p[blockIdx.x] = 1.0f;
    }
}
"#,
        )
        .ir;
        assert!(
            matches!(&ir.body[0].kind, StmtKind::Decl { name, init: Some(z), .. } if name == "i" && z == "0")
        );
        let StmtKind::Loop { cond, body } = &ir.body[1].kind else {
            panic!("expected loop, got {:?}", ir.body[1]);
        };
        assert_eq!(cond, "i<n");
        assert_eq!(body.len(), 2, "store + hoisted step");
        assert!(
            matches!(&body[1].kind, StmtKind::Assign { lhs, rhs } if lhs == "i" && rhs == "i + 1")
        );
    }

    #[test]
    fn normalises_compound_assignments() {
        let ir = first_kernel(
            r#"
__global__ void k(float *p) {
    int s = 0;
    s += 2;
    s -= 1;
    s *= 3;
}
"#,
        )
        .ir;
        let rhss: Vec<String> = ir
            .body
            .iter()
            .filter_map(|s| match &s.kind {
                StmtKind::Assign { rhs, .. } => Some(rhs.clone()),
                _ => None,
            })
            .collect();
        assert_eq!(rhss, vec!["s + (2)", "s - (1)", "s * (3)"]);
    }

    #[test]
    fn multi_declarator_lines_split() {
        let ir = first_kernel(
            r#"
__global__ void k(float *p) {
    int bx = blockIdx.x, by = blockIdx.y;
    __shared__ float tile[16];
    tile[bx] = 0.0f;
}
"#,
        )
        .ir;
        let names: Vec<(String, bool)> = ir
            .body
            .iter()
            .filter_map(|s| match &s.kind {
                StmtKind::Decl { name, shared, .. } => Some((name.clone(), *shared)),
                _ => None,
            })
            .collect();
        assert_eq!(
            names,
            vec![
                ("bx".to_string(), false),
                ("by".to_string(), false),
                ("tile".to_string(), true)
            ]
        );
    }

    #[test]
    fn call_statements_are_recognised_and_return_stays_other() {
        let k = first_kernel(
            r#"
__global__ void k(int *bins, int x) {
    atomicAdd(&bins[x], 1);
    return;
}
"#,
        );
        let ir = &k.ir;
        assert_eq!(ir.body.len(), 2);
        let StmtKind::Call { name, args } = &ir.body[0].kind else {
            panic!("expected call, got {:?}", ir.body[0]);
        };
        assert_eq!(name, "atomicAdd");
        assert_eq!(args.len(), 2);
        assert!(args[0].contains("bins"));
        assert!(matches!(&ir.body[1].kind, StmtKind::Other { text } if text == "return"));
        assert!(!k.is_protected());
    }

    #[test]
    fn fences_parse_with_their_scopes() {
        let ir = first_kernel(
            r#"
__global__ void k(float *p) {
    p[blockIdx.x] = 1.0f;
    __threadfence_block();
    __threadfence();
    __threadfence_system();
}
"#,
        )
        .ir;
        let scopes: Vec<FenceScope> = ir
            .body
            .iter()
            .filter_map(|s| match &s.kind {
                StmtKind::Fence { scope } => Some(*scope),
                _ => None,
            })
            .collect();
        assert_eq!(
            scopes,
            vec![FenceScope::Block, FenceScope::Device, FenceScope::System]
        );
        assert!(FenceScope::Block < FenceScope::Device);
        assert!(FenceScope::Device < FenceScope::System);
    }

    #[test]
    fn call_arguments_split_at_top_level_commas_only() {
        let ir = first_kernel(
            r#"
__global__ void k(float *p, float *q, int n) {
    helper(p, f(q, n), n + 1);
    g();
}
"#,
        )
        .ir;
        let StmtKind::Call { name, args } = &ir.body[0].kind else {
            panic!("expected call, got {:?}", ir.body[0]);
        };
        assert_eq!(name, "helper");
        assert_eq!(args.len(), 3);
        assert!(args[1].contains('('), "nested call stays whole: {args:?}");
        let StmtKind::Call { name, args } = &ir.body[1].kind else {
            panic!("expected call, got {:?}", ir.body[1]);
        };
        assert_eq!(name, "g");
        assert!(args.is_empty());
    }

    #[test]
    fn expressions_mixing_calls_stay_other() {
        let ir = first_kernel(
            r#"
__global__ void k(float *p) {
    f(1) + g(2);
}
"#,
        )
        .ir;
        assert!(matches!(&ir.body[0].kind, StmtKind::Other { .. }));
    }

    #[test]
    fn single_statement_bodies_without_braces() {
        let ir = first_kernel(
            r#"
__global__ void k(float *p, int n) {
    if (blockIdx.x == 0)
        p[threadIdx.x] = 1.0f;
    else if (n > 2)
        p[blockIdx.x] = 2.0f;
}
"#,
        )
        .ir;
        let StmtKind::If { else_branch, .. } = &ir.body[0].kind else {
            panic!();
        };
        assert!(matches!(&else_branch[0].kind, StmtKind::If { .. }));
    }
}
