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
//! A body's tokens come from the token stream of the source scan, which
//! lexed the whole source once; this module lexes only each pragma argument
//! and parameter type. Every expression keeps its tokens next to its text,
//! so no later stage lexes what this one printed.
//!
//! The parser is deliberately lenient: this is a lint front end, not a C
//! compiler. Anything it does not recognise becomes an opaque
//! [`StmtKind::Other`] that the dataflow passes treat conservatively
//! (no definitions, no stores); it must never panic on weird input.
//! `for` loops are desugared on the way in — the init clause is hoisted in
//! front of the loop and the step clause appended to the body — so the CFG
//! layer only ever sees one loop shape.

use crate::kernel_scan::{KernelSpan, SourceScan};
use crate::lexer::{detokenize, Expr, Kind, Token};
use crate::pragma::Pragma;

/// One parsed kernel body plus the signature facts the rules need. Its
/// tokens borrow the source and its pragma table (`'s`).
#[derive(Debug, Clone)]
pub struct KernelIr<'s> {
    /// Kernel name.
    pub name: String,
    /// Names of every kernel parameter (uniform across the grid).
    pub param_names: Vec<String>,
    /// Declared type of each parameter, parallel to `param_names` (e.g.
    /// `const float *`); empty when unrecoverable.
    pub param_types: Vec<Expr<'s>>,
    /// Names of the pointer-typed parameters (the global buffers).
    pub pointer_params: Vec<String>,
    /// Declared persist regions from `lpcuda_region(ptr, nelems)` pragmas
    /// in the body, as `(line, pointer_param, element_count_expr)`.
    pub regions: Vec<(usize, String, Expr<'s>)>,
    /// The statement tree of the body.
    pub body: Vec<Stmt<'s>>,
}

/// One statement with its 1-based source line.
#[derive(Debug, Clone)]
pub struct Stmt<'s> {
    /// 1-based source line of the statement's first token.
    pub line: usize,
    /// What the statement is.
    pub kind: StmtKind<'s>,
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

/// The statement forms the analysis distinguishes.
#[derive(Debug, Clone)]
pub enum StmtKind<'s> {
    /// `if (cond) … else …`.
    If {
        /// Condition.
        cond: Expr<'s>,
        /// Then branch.
        then_branch: Vec<Stmt<'s>>,
        /// Else branch (empty when absent).
        else_branch: Vec<Stmt<'s>>,
    },
    /// `while (cond) …`, or a desugared `for` (init hoisted before the
    /// loop, step appended to the body).
    Loop {
        /// Condition (`1` for an empty `for` condition).
        cond: Expr<'s>,
        /// Loop body.
        body: Vec<Stmt<'s>>,
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
        name: &'s str,
        /// Argument expressions.
        args: Vec<Expr<'s>>,
    },
    /// `#pragma nvm lpcuda_checksum(op, table, key, …)` — a fold site.
    Fold {
        /// Checksum-table identifier.
        table: &'s str,
        /// Key expressions indexing the table.
        keys: Vec<Expr<'s>>,
    },
    /// A declaration, one per declarator: `float v;`, `int c = expr;`.
    Decl {
        /// Declared name.
        name: &'s str,
        /// Initialiser expression, when present.
        init: Option<Expr<'s>>,
        /// Declared `__shared__` (stores into it are not global stores).
        shared: bool,
        /// Declared with array dimensions (`float tile[16]`): element
        /// writes are opaque, so the variable never gets scalar defs.
        array: bool,
    },
    /// An assignment `lhs = rhs;` (compound assignments and `++`/`--` are
    /// normalised to this form: `i++` becomes `i = i + 1`).
    Assign {
        /// Left-hand side.
        lhs: Expr<'s>,
        /// Right-hand side after normalisation.
        rhs: Expr<'s>,
    },
    /// Anything else (calls, `return`, unsupported constructs).
    Other {
        /// The statement text, detokenised.
        text: String,
    },
}

/// One item of the parser's input: a token, or an index into the fold
/// statements the body's `lpcuda_checksum` pragma lines became, so folds
/// interleave positionally with code.
#[derive(Debug, Clone, Copy)]
enum LTok<'s> {
    Tok(Token<'s>),
    Fold(usize),
}

/// Parses the body of `span` into an IR, reading its lines' tokens from the
/// source's token stream and its directives from the pragma table.
pub(super) fn parse_kernel<'s>(scan: &'s SourceScan<'_>, span: &'s KernelSpan) -> KernelIr<'s> {
    let mut toks = Vec::new();
    let mut folds = Vec::new();
    let mut regions = Vec::new();
    for idx in span.body_open_line + 1..span.body_close_line {
        if !scan.is_directive(idx) {
            toks.extend(scan.line_tokens(idx).map(LTok::Tok));
            continue;
        }
        // Preprocessor lines carry no dataflow, save the body's directives.
        let line_no = idx + 1;
        let pragma = scan.pragmas.binary_search_by_key(&line_no, |p| p.line);
        match pragma.map(|at| &scan.pragmas[at].parsed) {
            Ok(Ok(Pragma::Checksum { table, keys, .. })) => {
                toks.push(LTok::Fold(folds.len()));
                let keys = keys.iter().map(|k| Expr::lex(k, line_no)).collect();
                folds.push(Some(Stmt {
                    line: line_no,
                    kind: StmtKind::Fold { table, keys },
                }));
            }
            Ok(Ok(Pragma::Region { ptr, nelems, .. })) => {
                regions.push((line_no, ptr.clone(), Expr::lex(nelems, line_no)));
            }
            _ => {} // malformed or host-side pragmas are compile's problem
        }
    }
    let mut p = Parser {
        toks,
        folds,
        pos: 0,
    };
    let mut body = Vec::new();
    p.parse_seq(&mut body);
    let decls = param_decls(&span.params);
    let signature_line = span.start_line + 1;
    KernelIr {
        name: span.name.clone(),
        param_names: decls.iter().map(|(_, n)| (*n).to_string()).collect(),
        pointer_params: decls
            .iter()
            .filter(|(ty, _)| ty.contains('*'))
            .map(|(_, n)| (*n).to_string())
            .collect(),
        param_types: decls
            .iter()
            .map(|(ty, _)| Expr::lex(ty, signature_line))
            .collect(),
        regions,
        body,
    }
}

/// Every parameter as a `(type_text, name)` pair, pointer-typed or not.
fn param_decls(params: &str) -> Vec<(&str, &str)> {
    params
        .split(',')
        .filter_map(|p| {
            let name = p
                .rsplit(|c: char| !c.is_alphanumeric() && c != '_')
                .find(|s| !s.is_empty())?;
            let ty = p.rfind(name).map_or("", |at| p[..at].trim());
            Some((ty, name))
        })
        .filter(|(_, n)| *n != "void")
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

struct Parser<'s> {
    toks: Vec<LTok<'s>>,
    /// The fold statements `LTok::Fold` indexes, each taken when parsed.
    folds: Vec<Option<Stmt<'s>>>,
    pos: usize,
}

impl<'s> Parser<'s> {
    fn peek(&self) -> Option<LTok<'s>> {
        self.toks.get(self.pos).copied()
    }

    fn peek_is_punct(&self, p: &str) -> bool {
        matches!(self.peek(), Some(LTok::Tok(t)) if t.is_punct(p))
    }

    fn peek_is_ident(&self, id: &str) -> bool {
        matches!(self.peek(), Some(LTok::Tok(t)) if t.is_ident(id))
    }

    fn bump(&mut self) -> Option<LTok<'s>> {
        let t = self.peek();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    /// Parses statements into `out` until a `}` at this nesting level (not
    /// consumed) or the end of input.
    fn parse_seq(&mut self, out: &mut Vec<Stmt<'s>>) {
        while let Some(t) = self.peek() {
            if matches!(t, LTok::Tok(tok) if tok.is_punct("}")) {
                break;
            }
            self.parse_stmt(out);
        }
    }

    /// Parses one statement (possibly desugaring to several) into `out`.
    fn parse_stmt(&mut self, out: &mut Vec<Stmt<'s>>) {
        let Some(head) = self.bump() else {
            return;
        };
        let tok = match head {
            LTok::Fold(idx) => {
                out.extend(self.folds[idx].take());
                return;
            }
            LTok::Tok(tok) => tok,
        };
        let line = tok.line;
        if tok.is_punct("{") {
            self.parse_seq(out); // a bare block is control-transparent
            self.eat_punct("}");
        } else if tok.is_punct(";") {
            // An empty statement.
        } else if tok.is_ident("if") {
            self.parse_if(line, out);
        } else if tok.is_ident("while") {
            let cond = Expr::new(self.gather_parens());
            let body = self.parse_body();
            out.push(Stmt {
                line,
                kind: StmtKind::Loop { cond, body },
            });
        } else if tok.is_ident("for") {
            self.parse_for(line, out);
        } else if tok.is_ident("__syncthreads") {
            self.skip_through_semicolon();
            out.push(Stmt {
                line,
                kind: StmtKind::Sync,
            });
        } else if let Some(scope) = fence_scope(&tok) {
            self.skip_through_semicolon();
            out.push(Stmt {
                line,
                kind: StmtKind::Fence { scope },
            });
        } else {
            self.pos -= 1; // the head belongs to the statement
            let toks = self.gather_simple();
            classify_simple(&toks, line, out);
        }
    }

    fn eat_punct(&mut self, p: &str) {
        if self.peek_is_punct(p) {
            self.pos += 1;
        }
    }

    fn skip_through_semicolon(&mut self) {
        while let Some(t) = self.bump() {
            if matches!(t, LTok::Tok(tok) if tok.is_punct(";")) {
                break;
            }
        }
    }

    /// After a control keyword: consumes `( … )` and returns the inner
    /// tokens (balanced, possibly spanning lines).
    fn gather_parens(&mut self) -> Vec<Token<'s>> {
        let mut out = Vec::new();
        if !self.peek_is_punct("(") {
            return out;
        }
        self.pos += 1;
        let mut depth = 1usize;
        while let Some(LTok::Tok(tok)) = self.bump() {
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
    fn gather_simple(&mut self) -> Vec<Token<'s>> {
        let mut out = Vec::new();
        let mut depth = 0i64;
        while let Some(LTok::Tok(tok)) = self.peek() {
            if depth == 0 && tok.is_punct(";") {
                self.pos += 1;
                break;
            }
            if depth == 0 && tok.is_punct("}") {
                break;
            }
            match tok.text {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => depth -= 1,
                _ => {}
            }
            out.push(tok);
            self.pos += 1;
        }
        out
    }

    /// A branch/loop body: either a braced block or a single statement.
    fn parse_body(&mut self) -> Vec<Stmt<'s>> {
        let mut body = Vec::new();
        if self.peek_is_punct("{") {
            self.pos += 1;
            self.parse_seq(&mut body);
            self.eat_punct("}");
        } else {
            self.parse_stmt(&mut body);
        }
        body
    }

    fn parse_if(&mut self, line: usize, out: &mut Vec<Stmt<'s>>) {
        let cond = Expr::new(self.gather_parens());
        let then_branch = self.parse_body();
        let else_branch = if self.peek_is_ident("else") {
            self.pos += 1;
            self.parse_body() // `else if` recurses through parse_stmt
        } else {
            Vec::new()
        };
        out.push(Stmt {
            line,
            kind: StmtKind::If {
                cond,
                then_branch,
                else_branch,
            },
        });
    }

    fn parse_for(&mut self, line: usize, out: &mut Vec<Stmt<'s>>) {
        let header = self.gather_parens();
        let mut parts: Vec<Vec<Token<'s>>> = vec![Vec::new()];
        let mut depth = 0i64;
        for t in header {
            match t.text {
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
        classify_simple(&parts[0], line, out); // hoisted init
        let cond = if parts[1].is_empty() {
            Expr {
                text: "1".to_string(),
                toks: vec![Token::synthetic(Kind::Number, "1", line)],
            }
        } else {
            Expr::new(std::mem::take(&mut parts[1]))
        };
        let mut body = self.parse_body();
        classify_simple(&parts[2], line, &mut body); // step at body end
        out.push(Stmt {
            line,
            kind: StmtKind::Loop { cond, body },
        });
    }
}

/// The fence scope of a `__threadfence*` intrinsic token, if it is one.
fn fence_scope(tok: &Token<'_>) -> Option<FenceScope> {
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
fn classify_simple<'s>(toks: &[Token<'s>], line: usize, out: &mut Vec<Stmt<'s>>) {
    let Some(first) = toks.first() else {
        return;
    };
    if first.kind == Kind::Ident && TYPE_STARTERS.contains(&first.text) {
        classify_decl(toks, line, out);
        return;
    }
    let kind = classify_assign(toks)
        .or_else(|| classify_call(toks))
        .unwrap_or_else(|| StmtKind::Other {
            text: detokenize(toks),
        });
    out.push(Stmt { line, kind });
}

/// Recognises a whole-statement call expression `name(arg, …)` — the form
/// a `__device__` helper invocation takes when its result is discarded.
/// Anything with leading/trailing tokens outside the call (casts, member
/// calls, arithmetic) stays opaque.
fn classify_call<'s>(toks: &[Token<'s>]) -> Option<StmtKind<'s>> {
    let name = toks.first().filter(|t| t.kind == Kind::Ident)?.text;
    if !toks.get(1)?.is_punct("(") || !toks.last()?.is_punct(")") {
        return None;
    }
    // The opening paren must match the final token, or this is something
    // like `f(a) + g(b)` and not a plain call statement.
    let inner = &toks[2..toks.len() - 1];
    let mut depth = 0i64;
    let mut start = 0;
    let mut args = Vec::new();
    for (i, t) in inner.iter().enumerate() {
        match t.text {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => {
                depth -= 1;
                if depth < 0 {
                    return None; // `)` closing the call before the end
                }
            }
            "," if depth == 0 => {
                args.push(&inner[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    args.push(&inner[start..]);
    let args = args
        .into_iter()
        .filter(|a| !a.is_empty())
        .map(|a| Expr::new(a.to_vec()))
        .collect();
    Some(StmtKind::Call { name, args })
}

/// Parses `qualifiers type a = x, b[N], c;` into one [`StmtKind::Decl`]
/// per declarator.
fn classify_decl<'s>(toks: &[Token<'s>], line: usize, out: &mut Vec<Stmt<'s>>) {
    let shared = toks.iter().any(|t| t.is_ident("__shared__"));
    // Skip the qualifier/type prefix: leading type keywords and `*`s.
    let prefix = toks
        .iter()
        .position(|t| {
            !(t.is_punct("*") || t.kind == Kind::Ident && TYPE_STARTERS.contains(&t.text))
        })
        .unwrap_or(toks.len());
    let declarators = &toks[prefix..];
    let before = out.len();
    // Split the declarators at top-level commas.
    let mut depth = 0i64;
    let mut start = 0;
    for (i, t) in declarators.iter().enumerate() {
        match t.text {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => depth -= 1,
            "," if depth == 0 => {
                declarator(&declarators[start..i], line, shared, out);
                start = i + 1;
            }
            _ => {}
        }
    }
    declarator(&declarators[start..], line, shared, out);
    if out.len() == before {
        out.push(Stmt {
            line,
            kind: StmtKind::Other {
                text: detokenize(toks),
            },
        });
    }
}

/// One declarator, shaped `[*…] name [\[dims\]…] [= init…]`; nothing when
/// no name follows the `*`s.
fn declarator<'s>(g: &[Token<'s>], line: usize, shared: bool, out: &mut Vec<Stmt<'s>>) {
    let stars = g.iter().take_while(|t| t.is_punct("*")).count();
    let Some(name) = g.get(stars).filter(|t| t.kind == Kind::Ident) else {
        return;
    };
    let array = matches!(g.get(stars + 1), Some(t) if t.is_punct("["));
    let init = g
        .iter()
        .position(|t| t.is_punct("="))
        .map(|eq| Expr::new(g[eq + 1..].to_vec()));
    out.push(Stmt {
        line,
        kind: StmtKind::Decl {
            name: name.text,
            init,
            shared,
            array,
        },
    });
}

/// Recognises plain, compound (`+=`, `x -= y`, …) and increment/decrement
/// assignments, normalising all of them to `lhs = rhs`.
fn classify_assign<'s>(toks: &[Token<'s>]) -> Option<StmtKind<'s>> {
    let mut depth = 0i64;
    for (i, t) in toks.iter().enumerate() {
        match t.text {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => depth -= 1,
            _ if depth != 0 => {}
            "=" => {
                // `a -= b` lexes as `a` `-` `=` `b`; fold the op into rhs.
                let op = toks[..i]
                    .last()
                    .filter(|p| p.kind == Kind::Punct && COMPOUND_OPS.contains(&p.text));
                let lhs = Expr::new(toks[..i - usize::from(op.is_some())].to_vec());
                let tail = &toks[i + 1..];
                let rhs = match op {
                    Some(op) => compound(&lhs, *op, tail),
                    None => Expr::new(tail.to_vec()),
                };
                return Some(StmtKind::Assign { lhs, rhs });
            }
            "+=" => {
                let lhs = Expr::new(toks[..i].to_vec());
                let plus = Token::synthetic(Kind::Punct, "+", t.line);
                let rhs = compound(&lhs, plus, &toks[i + 1..]);
                return Some(StmtKind::Assign { lhs, rhs });
            }
            "++" | "--" => {
                let operand = if i == 0 { &toks[1..] } else { &toks[..i] };
                if operand.is_empty() {
                    return None;
                }
                let lhs = Expr::new(operand.to_vec());
                let mut toks = lhs.toks.clone();
                toks.extend([
                    Token::synthetic(Kind::Punct, "+", t.line),
                    Token::synthetic(Kind::Number, "1", t.line),
                ]);
                let rhs = Expr {
                    text: format!("{lhs} + 1"),
                    toks,
                };
                return Some(StmtKind::Assign { lhs, rhs });
            }
            _ => {}
        }
    }
    None
}

/// `lhs op (tail)`: the right-hand side a compound assignment normalises
/// to. Its tokens are what lexing its text gives back, as long as `tail`
/// holds no literal left open (one would swallow the closing `)`).
fn compound<'s>(lhs: &Expr<'s>, op: Token<'s>, tail: &[Token<'s>]) -> Expr<'s> {
    let mut toks = Vec::with_capacity(lhs.toks.len() + tail.len() + 3);
    toks.extend_from_slice(&lhs.toks);
    toks.extend([op, Token::synthetic(Kind::Punct, "(", op.line)]);
    toks.extend_from_slice(tail);
    toks.push(Token::synthetic(Kind::Punct, ")", op.line));
    Expr {
        text: format!("{lhs} {} ({})", op.text, detokenize(tail)),
        toks,
    }
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
            matches!(&ir.body[0].kind, StmtKind::Decl { name, init: Some(_), .. } if *name == "i")
        );
        assert!(matches!(&ir.body[2].kind, StmtKind::Fold { table, .. } if *table == "tab"));
        assert!(matches!(&ir.body[3].kind, StmtKind::Assign { lhs, .. } if lhs.text == "out[i]"));
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
        assert_eq!(cond.text, "threadIdx.x<16");
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
            matches!(&ir.body[0].kind, StmtKind::Decl { name, init: Some(z), .. } if *name == "i" && z.text == "0")
        );
        let StmtKind::Loop { cond, body } = &ir.body[1].kind else {
            panic!("expected loop, got {:?}", ir.body[1]);
        };
        assert_eq!(cond.text, "i<n");
        assert_eq!(body.len(), 2, "store + hoisted step");
        assert!(
            matches!(&body[1].kind, StmtKind::Assign { lhs, rhs } if lhs.text == "i" && rhs.text == "i + 1")
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
                StmtKind::Assign { rhs, .. } => Some(rhs.text.clone()),
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
                StmtKind::Decl { name, shared, .. } => Some((name.to_string(), *shared)),
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
        assert_eq!(*name, "atomicAdd");
        assert_eq!(args.len(), 2);
        assert!(args[0].text.contains("bins"));
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
        assert_eq!(*name, "helper");
        assert_eq!(args.len(), 3);
        assert!(
            args[1].text.contains('('),
            "nested call stays whole: {args:?}"
        );
        let StmtKind::Call { name, args } = &ir.body[1].kind else {
            panic!("expected call, got {:?}", ir.body[1]);
        };
        assert_eq!(*name, "g");
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
