//! The lexer as it was before it became a byte-offset scanner, kept as the
//! reference the scanner must equal: the same lexemes on any text, and the
//! same bytes from `detokenize` on any token sequence. Its one change since
//! is a lexing rule both lexers gained together: a `'` inside a number in
//! front of an ASCII letter or digit is a digit separator (`1'000`).
//! Every analysis reads the tokens the front end carries instead of
//! re-lexing text, so this equality is what keeps every diagnostic the
//! same.

use lp_directive::fixtures::{CLEAN, SEEDED};
use lp_directive::lexer::{self, Kind};
use proptest::prelude::*;

// The reference lexer (its unit tests left out).
mod reference {
    #![allow(dead_code)]
    //! A small token scanner for the CUDA-C subset the directives touch.
    //!
    //! The compiler does not need a full C grammar: it tokenises expressions
    //! and statements well enough to (a) split assignment statements into
    //! left- and right-hand sides, (b) collect identifier uses for the program
    //! slice, and (c) re-emit source faithfully.

    /// One lexical token.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum Token {
        /// Identifier or keyword (`foo`, `blockIdx`, `int`).
        Ident(String),
        /// Numeric literal (kept as text: `42`, `2.0f`, `0x10`).
        Number(String),
        /// String or character literal, quotes included.
        Str(String),
        /// Any punctuation/operator chunk (`*`, `=`, `==`, `->`, `[`, …).
        Punct(String),
    }

    impl Token {
        /// The token's source text.
        pub fn text(&self) -> &str {
            match self {
                Token::Ident(s) | Token::Number(s) | Token::Str(s) | Token::Punct(s) => s,
            }
        }

        /// Whether this is the exact punctuation `p`.
        pub fn is_punct(&self, p: &str) -> bool {
            matches!(self, Token::Punct(s) if s == p)
        }

        /// Whether this is the exact identifier `id`.
        pub fn is_ident(&self, id: &str) -> bool {
            matches!(self, Token::Ident(s) if s == id)
        }
    }

    /// Multi-character operators recognised as single tokens (longest first).
    const MULTI_PUNCT: [&str; 14] = [
        "<<<", ">>>", "<<=", ">>=", "==", "!=", "<=", ">=", "&&", "||", "->", "++", "--", "+=",
    ];

    /// Tokenises `src`, skipping whitespace and comments.
    pub fn tokenize(src: &str) -> Vec<Token> {
        let bytes: Vec<char> = src.chars().collect();
        let mut out = Vec::new();
        let mut i = 0;
        while i < bytes.len() {
            let c = bytes[i];
            if c.is_whitespace() {
                i += 1;
                continue;
            }
            // Comments.
            if c == '/' && i + 1 < bytes.len() {
                if bytes[i + 1] == '/' {
                    while i < bytes.len() && bytes[i] != '\n' {
                        i += 1;
                    }
                    continue;
                }
                if bytes[i + 1] == '*' {
                    i += 2;
                    while i + 1 < bytes.len() && !(bytes[i] == '*' && bytes[i + 1] == '/') {
                        i += 1;
                    }
                    i = (i + 2).min(bytes.len());
                    continue;
                }
            }
            // Identifiers / keywords.
            if c.is_alphabetic() || c == '_' {
                let start = i;
                while i < bytes.len() && (bytes[i].is_alphanumeric() || bytes[i] == '_') {
                    i += 1;
                }
                out.push(Token::Ident(bytes[start..i].iter().collect()));
                continue;
            }
            // Numbers (ints, floats, suffixes, hex, digit separators).
            if c.is_ascii_digit() {
                let start = i;
                while i < bytes.len()
                    && (bytes[i].is_alphanumeric()
                        || bytes[i] == '.'
                        || bytes[i] == 'x'
                        || bytes[i] == 'X'
                        || bytes[i] == '\''
                            && bytes.get(i + 1).is_some_and(|n| n.is_ascii_alphanumeric()))
                {
                    i += 1;
                }
                out.push(Token::Number(bytes[start..i].iter().collect()));
                continue;
            }
            // String and character literals.
            if c == '"' || c == '\'' {
                let start = i;
                i += 1;
                while i < bytes.len() && bytes[i] != c {
                    if bytes[i] == '\\' {
                        i += 1;
                    }
                    i += 1;
                }
                i = (i + 1).min(bytes.len());
                out.push(Token::Str(bytes[start..i].iter().collect()));
                continue;
            }
            // Multi-char punctuation.
            let rest: String = bytes[i..bytes.len().min(i + 3)].iter().collect();
            if let Some(m) = MULTI_PUNCT.iter().find(|m| rest.starts_with(**m)) {
                out.push(Token::Punct((*m).to_string()));
                i += m.len();
                continue;
            }
            out.push(Token::Punct(c.to_string()));
            i += 1;
        }
        out
    }

    /// Collects the identifiers *used* in a token stream (for slicing),
    /// skipping C keywords/types and call names immediately followed by `(`.
    pub fn used_identifiers(tokens: &[Token]) -> Vec<String> {
        const KEYWORDS: [&str; 16] = [
            "int", "float", "double", "char", "void", "unsigned", "long", "short", "const", "if",
            "else", "for", "while", "return", "sizeof", "struct",
        ];
        let mut out = Vec::new();
        for (i, t) in tokens.iter().enumerate() {
            if let Token::Ident(name) = t {
                if KEYWORDS.contains(&name.as_str()) {
                    continue;
                }
                if matches!(tokens.get(i + 1), Some(tk) if tk.is_punct("(")) {
                    continue; // function call name
                }
                if !out.contains(name) {
                    out.push(name.clone());
                }
            }
        }
        out
    }

    /// Collects the *value-bearing* identifiers of an expression: like
    /// [`used_identifiers`] but member names after `.` / `->` are skipped, so
    /// `blockIdx.x * blockDim.x + s->len` yields `blockIdx`, `blockDim`, `s` —
    /// the roots dataflow cares about, not the field selectors. Used by the
    /// thread-dependence taint analysis, where `threadIdx.x` must read as a use
    /// of `threadIdx` and never of a local variable that happens to be named
    /// `x`.
    pub fn value_identifiers(tokens: &[Token]) -> Vec<String> {
        const KEYWORDS: [&str; 16] = [
            "int", "float", "double", "char", "void", "unsigned", "long", "short", "const", "if",
            "else", "for", "while", "return", "sizeof", "struct",
        ];
        let mut out = Vec::new();
        for (i, t) in tokens.iter().enumerate() {
            if let Token::Ident(name) = t {
                if KEYWORDS.contains(&name.as_str()) {
                    continue;
                }
                if i > 0 && (tokens[i - 1].is_punct(".") || tokens[i - 1].is_punct("->")) {
                    continue; // member selector, not a value root
                }
                if matches!(tokens.get(i + 1), Some(tk) if tk.is_punct("(")) {
                    continue; // function call name
                }
                if !out.contains(name) {
                    out.push(name.clone());
                }
            }
        }
        out
    }

    /// Re-emits tokens as compact source text.
    ///
    /// A space is inserted between two tokens whenever gluing them would lex
    /// differently — e.g. `=` `=` would merge into `==`, `5` `.` into the
    /// number `5.`, and `/` `/` into a comment that swallows the rest of the
    /// line. The check is exact: the pair is re-lexed and the first token must
    /// come back unchanged.
    pub fn detokenize(tokens: &[Token]) -> String {
        let mut s = String::new();
        for (i, t) in tokens.iter().enumerate() {
            if i > 0 && !glues_cleanly(&tokens[i - 1], t) {
                s.push(' ');
            }
            s.push_str(t.text());
        }
        s
    }

    /// Whether `prev` immediately followed by `next` re-lexes with `prev`
    /// intact as the first token.
    fn glues_cleanly(prev: &Token, next: &Token) -> bool {
        let joined = format!("{}{}", prev.text(), next.text());
        matches!(tokenize(&joined).first(), Some(first) if first == prev)
    }
}

/// A reference token as `(kind, text)`.
fn lexeme(t: &reference::Token) -> (Kind, String) {
    let kind = match t {
        reference::Token::Ident(_) => Kind::Ident,
        reference::Token::Number(_) => Kind::Number,
        reference::Token::Str(_) => Kind::Str,
        reference::Token::Punct(_) => Kind::Punct,
    };
    (kind, t.text().to_string())
}

/// The reference token with the lexeme of `t`.
fn to_reference(t: &lexer::Token<'_>) -> reference::Token {
    let text = t.text.to_string();
    match t.kind {
        Kind::Ident => reference::Token::Ident(text),
        Kind::Number => reference::Token::Number(text),
        Kind::Str => reference::Token::Str(text),
        Kind::Punct => reference::Token::Punct(text),
    }
}

/// What source text is built from: C-like lexemes, comment and literal
/// delimiters, escapes, line breaks and non-ASCII characters.
const PIECES: [&str; 40] = [
    "a", "x1", "_t", "blockIdx", "0", "5", "2.0f", "0x1F", ".", " ", "\t", "\n", "+", "-", "*",
    "/", "=", "<", ">", "!", "&", "|", "(", ")", "[", "]", "{", "}", ";", ",", "/*", "*/", "//",
    "\"", "'", "\\", "é", "λ", "€", "\u{a0}",
];

/// Token pairs whose glue decision is delicate.
const HARD: [(&str, Kind); 11] = [
    ("/", Kind::Punct),
    ("*", Kind::Punct),
    ("5", Kind::Number),
    (".", Kind::Punct),
    ("-", Kind::Punct),
    ("=", Kind::Punct),
    ("<", Kind::Punct),
    ("<=", Kind::Punct),
    ("->", Kind::Punct),
    ("\"open", Kind::Str),
    ("'x", Kind::Str),
];

fn hard(i: usize) -> lexer::Token<'static> {
    let (text, kind) = HARD[i];
    lexer::Token {
        kind,
        text,
        line: 1,
    }
}

/// Every distinct lexeme of the fixture corpus.
fn corpus_tokens() -> Vec<lexer::Token<'static>> {
    let mut out: Vec<lexer::Token<'static>> = Vec::new();
    for (_, src) in CLEAN.iter().chain(SEEDED) {
        for t in lexer::tokenize(src) {
            if !out.iter().any(|o| o.kind == t.kind && o.text == t.text) {
                out.push(t);
            }
        }
    }
    out
}

fn same_detokenize(toks: &[lexer::Token<'_>]) -> Result<(), TestCaseError> {
    let reference: Vec<reference::Token> = toks.iter().map(to_reference).collect();
    prop_assert_eq!(
        lexer::detokenize(toks),
        reference::detokenize(&reference),
        "{:?}",
        toks
    );
    Ok(())
}

#[test]
fn every_hard_pair_glues_as_the_reference_does() {
    for a in 0..HARD.len() {
        for b in 0..HARD.len() {
            same_detokenize(&[hard(a), hard(b)]).unwrap();
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// On any text, the scanner yields the reference's lexemes, and the
    /// identifier collectors agree.
    #[test]
    fn tokenize_matches_the_reference(pieces in prop::collection::vec(0usize..PIECES.len(), 0..48)) {
        let src: String = pieces.iter().map(|p| PIECES[*p]).collect();
        let got = lexer::tokenize(&src);
        let want = reference::tokenize(&src);
        let got_lexemes: Vec<(Kind, String)> = got.iter().map(|t| (t.kind, t.text.to_string())).collect();
        prop_assert_eq!(got_lexemes, want.iter().map(lexeme).collect::<Vec<_>>(), "{:?}", src);
        prop_assert_eq!(lexer::used_identifiers(&got), reference::used_identifiers(&want));
        let values: Vec<String> = lexer::value_identifiers(&got).iter().map(|v| v.to_string()).collect();
        prop_assert_eq!(values, reference::value_identifiers(&want));
    }

    /// On any token sequence — corpus lexemes mixed with the hard cases —
    /// `detokenize` prints the reference's bytes.
    #[test]
    fn detokenize_matches_the_reference(
        picks in prop::collection::vec((0usize..2, any::<prop::sample::Index>()), 0..16),
    ) {
        let corpus = corpus_tokens();
        let toks: Vec<lexer::Token<'_>> = picks
            .iter()
            .map(|(from, at)| match from {
                0 => hard(at.index(HARD.len())),
                _ => corpus[at.index(corpus.len())],
            })
            .collect();
        same_detokenize(&toks)?;
    }
}
