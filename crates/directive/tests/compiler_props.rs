//! Property-based tests for the directive compiler: the lexer and pragma
//! parser must be total (never panic) on arbitrary input, and compilation
//! must be idempotent in the ways the §VI contract promises.

use lp_directive::fixtures::{CLEAN, SEEDED};
use lp_directive::lexer::{detokenize, tokenize, Kind, Token};
use lp_directive::pragma::{is_nvm_pragma, parse_pragma};
use lp_directive::{compile, lint};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The lexer is total: any string tokenises without panicking, and
    /// re-lexing its own output is a fixed point (lines aside: the output
    /// is one line). This is why an analysis may read the tokens an
    /// expression carries instead of lexing the text printed from them.
    #[test]
    fn lexer_is_total_and_stable(src in ".*") {
        let lexemes = |toks: &[Token<'_>]| -> Vec<(Kind, String)> {
            toks.iter().map(|t| (t.kind, t.text.to_string())).collect()
        };
        let toks = tokenize(&src);
        let emitted = detokenize(&toks);
        prop_assert_eq!(lexemes(&toks), lexemes(&tokenize(&emitted)), "detokenize must be lex-stable");
    }

    /// `lint` and `compile` never panic on any bytes, read as a source the
    /// way a tool reads a file it was handed: raw bytes mixed with the
    /// pieces of CUDA that steer the scanner and the IR.
    #[test]
    fn lint_and_compile_never_panic_on_arbitrary_bytes(
        parts in prop::collection::vec((0usize..3, any::<u8>(), 0usize..CUDA_PIECES.len()), 0..64),
    ) {
        let mut bytes = Vec::new();
        for (from, byte, piece) in parts {
            match from {
                0 => bytes.push(byte),
                _ => bytes.extend_from_slice(CUDA_PIECES[piece].as_bytes()),
            }
        }
        let src = String::from_utf8_lossy(&bytes);
        let _ = lint(&src);
        let _ = compile(&src);
    }

    /// The pragma parser never panics, whatever garbage follows `#pragma`.
    #[test]
    fn pragma_parser_is_total(body in "[ -~]{0,80}") {
        let line = format!("#pragma nvm {body}");
        let _ = parse_pragma(1, &line); // Ok or Err, never panic
    }

    /// Sources without nvm pragmas always compile to themselves, with or
    /// without another pragma whose trailing comment mentions `nvm`.
    #[test]
    fn pragma_free_sources_round_trip(
        names in prop::collection::vec("[a-z][a-z0-9_]{0,8}", 1..5),
        other in 0usize..=OTHER_PRAGMAS.len(),
        comment in "[a-z ]{0,6}nvm[a-z ]{0,6}",
    ) {
        // One index past the table draws the source with no pragma at all.
        let pragma = OTHER_PRAGMAS
            .get(other)
            .map_or(String::new(), |o| format!("#pragma {o} // {comment}\n"));
        let mut src = pragma.clone();
        for n in &names {
            src.push_str(&format!(
                "__global__ void {n}(int *p) {{\n{pragma}    p[0] = 1;\n}}\n"
            ));
        }
        prop_assert!(!src.lines().any(is_nvm_pragma));
        let out = compile(&src).unwrap();
        prop_assert_eq!(out.instrumented, src);
        prop_assert!(out.plans.is_empty());
    }

    /// Any identifier-shaped table name and key list survives the pipeline
    /// verbatim into the plan.
    #[test]
    fn pragma_arguments_survive_verbatim(
        tab in "[a-zA-Z][a-zA-Z0-9_]{0,12}",
        key in "[a-zA-Z][a-zA-Z0-9_]{0,12}",
    ) {
        let src = format!(
            "__global__ void k(float *o) {{\n    int i = blockIdx.x;\n#pragma nvm lpcuda_checksum(+, {tab}, {key})\n    o[i] = 1.0f;\n}}\n"
        );
        let out = compile(&src).unwrap();
        prop_assert_eq!(&out.plans[0].table, &tab);
        prop_assert_eq!(&out.plans[0].keys[0], &key);
        prop_assert!(out.recovery_kernels[0].source.contains(&tab));
    }

    /// A whole-line `//` comment is as inert as a blank line wherever it is
    /// inserted, whatever scanner-significant words it carries: every
    /// finding keeps its rule and columns, and those at or after the
    /// insertion move down one line.
    #[test]
    fn a_comment_line_never_changes_the_findings(
        fixture in 0usize..CLEAN.len() + SEEDED.len(),
        at in any::<prop::sample::Index>(),
        words in prop::collection::vec(0usize..COMMENT_WORDS.len(), 1..5),
    ) {
        let (name, src) = CLEAN.iter().chain(SEEDED).nth(fixture).unwrap();
        let lines: Vec<&str> = src.lines().collect();
        let at = at.index(lines.len() + 1);
        let words: Vec<&str> = words.iter().map(|w| COMMENT_WORDS[*w]).collect();
        let with_line = |text: &str| {
            let mut edited = lines.clone();
            edited.insert(at, text);
            edited.join("\n") + "\n"
        };
        let commented = lint(&with_line(&format!("// {}", words.join(" "))));
        // Line numbers inside messages and fixes move too, so the exact
        // expectation is the same source with a blank line there instead.
        prop_assert_eq!(&commented, &lint(&with_line("")), "{} line {}: {:?}", name, at + 1, words);
        let moved: Vec<_> = lint(src)
            .iter()
            .map(|d| (d.code, d.span.line + usize::from(d.span.line > at), d.span.col, d.span.end_col))
            .collect();
        let got: Vec<_> = commented
            .iter()
            .map(|d| (d.code, d.span.line, d.span.col, d.span.end_col))
            .collect();
        prop_assert_eq!(got, moved, "{} line {}: {:?}", name, at + 1, words);
    }
}

/// A pragma that is not `nvm`'s is the CUDA compiler's business, whatever
/// its trailing comment says: no finding, and `compile` is the identity.
#[test]
fn other_pragmas_commenting_on_nvm_are_left_alone() {
    for line in [
        "#pragma unroll // tuned for nvm",
        "#pragma once // nvm helpers",
    ] {
        let src =
            format!("{line}\n__global__ void k(int *p) {{\n{line}\n    p[blockIdx.x] = 1;\n}}\n");
        assert_eq!(lint(&src), Vec::new(), "lint of:\n{src}");
        assert_eq!(compile(&src).unwrap().instrumented, src);
    }
}

/// Source fragments that open kernels, helpers, directives, statements,
/// comments and literals.
const CUDA_PIECES: [&str; 16] = [
    "__global__ void k(float *p, int n) {\n",
    "__device__ void h(float *q) {\n",
    "}\n",
    "#pragma nvm lpcuda_checksum(\"+\", t, blockIdx.x)\n",
    "#pragma nvm lpcuda_region(p, n)\n",
    "#pragma nvm lpcuda_mode(epoch)\n",
    "p[blockIdx.x * n + threadIdx.x] = 1.0f;\n",
    "for (int i = 0; i < n; i += 2) ",
    "if (threadIdx.x < n) ",
    "h(p + i);\n",
    "__syncthreads();\n",
    "/* ",
    "*/",
    "// ",
    "'",
    "\"",
];

/// Pragmas a CUDA source may carry that are not `nvm`'s.
const OTHER_PRAGMAS: [&str; 4] = ["unroll", "unroll 4", "once", "omp parallel"];

/// What the function scanner reacts to, were it to read comments as code.
const COMMENT_WORDS: [&str; 8] = ["__global__", "__device__", "{", "}", ";", "(", ")", "\""];
