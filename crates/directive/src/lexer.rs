//! A small token scanner for the CUDA-C subset the directives touch.
//!
//! The compiler and the verifier need no full C grammar: they tokenise
//! expressions and statements well enough to (a) split assignment
//! statements into left- and right-hand sides, (b) collect identifier uses
//! for the program slice and the dataflow, and (c) re-emit source
//! faithfully.
//!
//! A [`Token`] is a `Copy` view — kind, text and line — whose text points
//! into the lexed source (or is one of the `'static` spellings the IR adds
//! when it normalises `x += e` and `i++`). Lexing walks the source by byte
//! offset and allocates nothing but the vector it fills. A `Lexer`
//! carries an open block comment from one chunk of a source to the next,
//! which is how the IR lexes a kernel body once, line by line.

use std::fmt;

/// What kind of lexeme a [`Token`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Identifier or keyword (`foo`, `blockIdx`, `int`).
    Ident,
    /// Numeric literal (kept as text: `42`, `2.0f`, `0x10`).
    Number,
    /// String or character literal, quotes included.
    Str,
    /// Any punctuation/operator chunk (`*`, `=`, `==`, `->`, `[`, …).
    Punct,
}

/// One lexical token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Token<'a> {
    /// The lexeme's kind.
    pub kind: Kind,
    /// The lexeme as written.
    pub text: &'a str,
    /// 1-based source line of the lexeme's first character.
    pub line: usize,
}

impl<'a> Token<'a> {
    /// A token the source never spelled: `text` as a `kind` on `line`, such
    /// as the `+`, `(`, `)` and `1` the IR adds when it normalises `x += e`
    /// and `i++`.
    pub(crate) fn synthetic(kind: Kind, text: &'static str, line: usize) -> Self {
        Token { kind, text, line }
    }

    /// Whether this is the exact punctuation `p`.
    pub fn is_punct(&self, p: &str) -> bool {
        self.kind == Kind::Punct && self.text == p
    }

    /// Whether this is the exact identifier `id`.
    pub fn is_ident(&self, id: &str) -> bool {
        self.kind == Kind::Ident && self.text == id
    }
}

/// An expression as the front end holds it: its tokens, which every
/// analysis reads, and its text, which messages quote.
#[derive(Debug, Clone)]
pub struct Expr<'a> {
    /// The expression as the front end prints it.
    pub text: String,
    /// Its tokens.
    pub toks: Vec<Token<'a>>,
}

impl<'a> Expr<'a> {
    /// The expression `toks` spell, printed by [`detokenize`].
    pub(crate) fn new(toks: Vec<Token<'a>>) -> Self {
        Expr {
            text: detokenize(&toks),
            toks,
        }
    }

    /// `text`, lexed on its own starting at `line`: text the source spelled
    /// outside a body line, such as a pragma argument or a parameter type.
    pub(crate) fn lex(text: &'a str, line: usize) -> Self {
        Expr {
            text: text.to_string(),
            toks: Tokens::new(text, line, false).collect(),
        }
    }
}

impl fmt::Display for Expr<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.text)
    }
}

/// Multi-character operators recognised as single tokens (longest first).
const MULTI_PUNCT: [&str; 14] = [
    "<<<", ">>>", "<<=", ">>=", "==", "!=", "<=", ">=", "&&", "||", "->", "++", "--", "+=",
];

/// Lexing state carried from one chunk of a source to the next: whether a
/// block comment is still open.
#[derive(Debug, Default)]
pub(crate) struct Lexer {
    in_comment: bool,
}

impl Lexer {
    /// Whether the previous chunk left a block comment open.
    pub(crate) fn in_comment(&self) -> bool {
        self.in_comment
    }

    /// Appends the tokens of `src`, whose first line is `line`, to `out`. A
    /// block comment the previous chunk left open continues into `src`.
    pub(crate) fn tokenize<'a>(&mut self, src: &'a str, line: usize, out: &mut Vec<Token<'a>>) {
        let mut toks = Tokens::new(src, line, self.in_comment);
        out.extend(&mut toks);
        self.in_comment = toks.in_comment;
    }
}

/// Tokenises `src`, skipping whitespace and comments. A literal left open
/// runs to the end of `src`, and so does a block comment.
pub fn tokenize(src: &str) -> Vec<Token<'_>> {
    Tokens::new(src, 1, false).collect()
}

/// The tokens of one source chunk, scanned by byte offset.
struct Tokens<'a> {
    src: &'a str,
    pos: usize,
    /// The line of byte `counted`.
    line: usize,
    counted: usize,
    in_comment: bool,
}

impl<'a> Tokens<'a> {
    fn new(src: &'a str, line: usize, in_comment: bool) -> Self {
        Tokens {
            src,
            pos: 0,
            line,
            counted: 0,
            in_comment,
        }
    }

    /// The character at byte `i`, a character boundary.
    fn char_at(&self, i: usize) -> char {
        let b = self.src.as_bytes()[i];
        if b.is_ascii() {
            char::from(b)
        } else {
            self.src[i..]
                .chars()
                .next()
                .expect("a character starts here")
        }
    }

    /// The end of the run of characters from `i` that satisfy `keep`.
    fn run_end(&self, mut i: usize, keep: impl Fn(char) -> bool) -> usize {
        while i < self.src.len() {
            let c = self.char_at(i);
            if !keep(c) {
                break;
            }
            i += c.len_utf8();
        }
        i
    }

    /// The end of the number starting at `start`: ints, floats, suffixes
    /// and hex, with a `'` in front of an ASCII letter or digit taken as a
    /// C++14 digit separator (`1'000`), not as a character literal.
    fn number_end(&self, start: usize) -> usize {
        let mut i = start;
        loop {
            i = self.run_end(i, |c| c.is_alphanumeric() || c == '.');
            match self.src.as_bytes().get(i..i + 2) {
                Some([b'\'', next]) if next.is_ascii_alphanumeric() => i += 1,
                _ => return i,
            }
        }
    }

    /// The end of the literal opened by the quote at `start`: past its
    /// closing quote, or the end of the chunk. A backslash escapes the next
    /// character; no quote or backslash byte occurs inside a multi-byte
    /// character, so bytes suffice.
    fn literal_end(&self, start: usize) -> usize {
        let bytes = self.src.as_bytes();
        let quote = bytes[start];
        let mut i = start + 1;
        while i < bytes.len() && bytes[i] != quote {
            if bytes[i] == b'\\' {
                i += 1;
            }
            i += 1;
        }
        (i + 1).min(bytes.len())
    }

    /// Skips past the `*/` closing a comment whose text starts at `from`,
    /// or to the end of the chunk with the comment still open.
    fn skip_comment(&mut self, from: usize) {
        match self.src[from..].find("*/") {
            Some(at) => {
                self.pos = from + at + 2;
                self.in_comment = false;
            }
            None => {
                self.pos = self.src.len();
                self.in_comment = true;
            }
        }
    }

    /// The line of byte `at`; asked in rising order, so each line break is
    /// counted once.
    fn line_of(&mut self, at: usize) -> usize {
        let skipped = &self.src.as_bytes()[self.counted..at];
        self.line += skipped.iter().filter(|b| **b == b'\n').count();
        self.counted = at;
        self.line
    }
}

impl<'a> Iterator for Tokens<'a> {
    type Item = Token<'a>;

    fn next(&mut self) -> Option<Token<'a>> {
        if self.in_comment {
            self.skip_comment(self.pos);
        }
        let bytes = self.src.as_bytes();
        while self.pos < bytes.len() {
            let i = self.pos;
            let c = self.char_at(i);
            if c.is_whitespace() {
                self.pos += c.len_utf8();
                continue;
            }
            // Comments.
            match (c, bytes.get(i + 1)) {
                ('/', Some(b'/')) => {
                    self.pos = self.src[i..].find('\n').map_or(bytes.len(), |at| i + at);
                    continue;
                }
                ('/', Some(b'*')) => {
                    self.skip_comment(i + 2);
                    continue;
                }
                _ => {}
            }
            let (kind, end) = if c.is_alphabetic() || c == '_' {
                let end = self.run_end(i, |c| c.is_alphanumeric() || c == '_');
                (Kind::Ident, end)
            } else if c.is_ascii_digit() {
                (Kind::Number, self.number_end(i))
            } else if c == '"' || c == '\'' {
                (Kind::Str, self.literal_end(i))
            } else {
                let rest = &bytes[i..];
                let len = MULTI_PUNCT
                    .iter()
                    .find(|m| rest.starts_with(m.as_bytes()))
                    .map_or(c.len_utf8(), |m| m.len());
                (Kind::Punct, i + len)
            };
            self.pos = end;
            return Some(Token {
                kind,
                text: &self.src[i..end],
                line: self.line_of(i),
            });
        }
        None
    }
}

/// Collects the identifiers *used* in a token stream (for slicing),
/// skipping C keywords/types and call names immediately followed by `(`.
pub fn used_identifiers(tokens: &[Token<'_>]) -> Vec<String> {
    let mut out: Vec<String> = Vec::new();
    for (i, t) in tokens.iter().enumerate() {
        if t.kind != Kind::Ident || KEYWORDS.contains(&t.text) {
            continue;
        }
        if matches!(tokens.get(i + 1), Some(tk) if tk.is_punct("(")) {
            continue; // function call name
        }
        if !out.iter().any(|u| u == t.text) {
            out.push(t.text.to_string());
        }
    }
    out
}

/// Collects the *value-bearing* identifiers of an expression, in order of
/// first use: like [`used_identifiers`] but member names after `.` / `->`
/// are skipped, so `blockIdx.x * blockDim.x + s->len` yields `blockIdx`,
/// `blockDim`, `s` — the roots dataflow cares about, not the field
/// selectors. Used by the thread-dependence taint analysis, where
/// `threadIdx.x` must read as a use of `threadIdx` and never of a local
/// variable that happens to be named `x`.
pub fn value_identifiers<'a>(tokens: &[Token<'a>]) -> Vec<&'a str> {
    let mut out = Vec::new();
    for (i, t) in tokens.iter().enumerate() {
        if t.kind != Kind::Ident || KEYWORDS.contains(&t.text) {
            continue;
        }
        if i > 0 && (tokens[i - 1].is_punct(".") || tokens[i - 1].is_punct("->")) {
            continue; // member selector, not a value root
        }
        if matches!(tokens.get(i + 1), Some(tk) if tk.is_punct("(")) {
            continue; // function call name
        }
        if !out.contains(&t.text) {
            out.push(t.text);
        }
    }
    out
}

/// C keywords and type names that are never a variable use.
const KEYWORDS: [&str; 16] = [
    "int", "float", "double", "char", "void", "unsigned", "long", "short", "const", "if", "else",
    "for", "while", "return", "sizeof", "struct",
];

/// Re-emits tokens as compact source text.
///
/// A space goes between two tokens exactly when gluing them would lex
/// differently — `=` `=` would merge into `==`, `5` `.` into the number
/// `5.`, and `/` `/` into a comment that swallows the rest of the line.
/// The decision looks at the pair alone: the two texts are joined in one
/// buffer the whole call reuses, and only the first token of the join is
/// lexed, which must come back as the first token of the pair.
pub fn detokenize(tokens: &[Token<'_>]) -> String {
    let mut s = String::new();
    let mut pair = String::new();
    for (i, t) in tokens.iter().enumerate() {
        if i > 0 && !glues_cleanly(&tokens[i - 1], t, &mut pair) {
            s.push(' ');
        }
        s.push_str(t.text);
    }
    s
}

/// Whether `prev` immediately followed by `next` lexes with `prev` intact
/// as the first token; `pair` is scratch space.
fn glues_cleanly(prev: &Token<'_>, next: &Token<'_>, pair: &mut String) -> bool {
    pair.clear();
    pair.push_str(prev.text);
    pair.push_str(next.text);
    matches!(
        Tokens::new(pair, 1, false).next(),
        Some(first) if first.kind == prev.kind && first.text == prev.text
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn texts<'a>(ts: &[Token<'a>], kind: Kind) -> Vec<&'a str> {
        ts.iter()
            .filter(|t| t.kind == kind)
            .map(|t| t.text)
            .collect()
    }

    #[test]
    fn tokenizes_assignment() {
        let ts = tokenize("C[c + wB*ty + tx] = Csub;");
        assert!(ts.iter().any(|t| t.is_ident("Csub")));
        assert!(ts.iter().any(|t| t.is_punct("[")));
        assert_eq!(ts.last().unwrap().text, ";");
    }

    #[test]
    fn skips_comments() {
        let ts = tokenize("a = 1; // comment\n/* more */ b = 2;");
        assert_eq!(texts(&ts, Kind::Ident), vec!["a", "b"]);
        assert_eq!(
            ts.iter().map(|t| t.line).collect::<Vec<_>>(),
            [1, 1, 1, 1, 2, 2, 2, 2]
        );
    }

    #[test]
    fn a_lexer_carries_an_open_block_comment_to_the_next_chunk() {
        let mut lexer = Lexer::default();
        let mut out = Vec::new();
        for (n, line) in ["a = 1; /* open", "b = 2;", "still */ c = 3;"]
            .iter()
            .enumerate()
        {
            lexer.tokenize(line, n + 1, &mut out);
        }
        assert_eq!(texts(&out, Kind::Ident), vec!["a", "c"]);
        assert_eq!(out.last().unwrap().line, 3);
    }

    #[test]
    fn multi_char_operators_stay_whole() {
        let ts = tokenize("kernel<<<grid, block>>>(a); x->y; i++;");
        assert!(ts.iter().any(|t| t.is_punct("<<<")));
        assert!(ts.iter().any(|t| t.is_punct(">>>")));
        assert!(ts.iter().any(|t| t.is_punct("->")));
        assert!(ts.iter().any(|t| t.is_punct("++")));
    }

    #[test]
    fn used_identifiers_skips_keywords_and_calls() {
        let ts = tokenize("int c = wB * BLOCK_SIZE * by + foo(bx);");
        let used = used_identifiers(&ts);
        assert!(used.contains(&"wB".to_string()));
        assert!(used.contains(&"by".to_string()));
        assert!(used.contains(&"bx".to_string()));
        assert!(!used.contains(&"int".to_string()));
        assert!(!used.contains(&"foo".to_string()));
    }

    #[test]
    fn value_identifiers_skip_member_selectors() {
        let ts = tokenize("blockIdx.x * blockDim.x + threadIdx.x + s->len + y");
        let vals = value_identifiers(&ts);
        assert_eq!(vals, vec!["blockIdx", "blockDim", "threadIdx", "s", "y"]);
    }

    #[test]
    fn numbers_with_suffixes() {
        let ts = tokenize("x = 2.0f + 0x1F;");
        assert_eq!(texts(&ts, Kind::Number), vec!["2.0f", "0x1F"]);
        let ts = tokenize("n = 1'000; m = 0xFF'FF; c = u8'a';");
        assert_eq!(texts(&ts, Kind::Number), vec!["1'000", "0xFF'FF"]);
        assert_eq!(texts(&ts, Kind::Str), vec!["'a'"]);
    }

    #[test]
    fn detokenize_preserves_meaning() {
        let src = "C[c+wB*ty+tx]=Csub;";
        assert_eq!(detokenize(&tokenize(src)), src);
        assert_eq!(detokenize(&tokenize("a - -b / /c")), "a- -b/ /c");
    }

    #[test]
    fn string_literals_survive() {
        let ts = tokenize(r#"printf("hi \"there\"");"#);
        assert!(ts.iter().any(|t| t.kind == Kind::Str));
        let ts = tokenize(r"c = '}'; d = '\'';");
        assert_eq!(texts(&ts, Kind::Str), vec!["'}'", r"'\''"]);
    }

    #[test]
    fn non_ascii_text_is_sliced_on_character_boundaries() {
        let ts = tokenize("é1 = λ€ + \"\\é\" '€");
        let all: Vec<&str> = ts.iter().map(|t| t.text).collect();
        assert_eq!(all, vec!["é1", "=", "λ", "€", "+", "\"\\é\"", "'€"]);
    }
}
