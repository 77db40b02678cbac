//! Property-based tests for the directive compiler: the lexer and pragma
//! parser must be total (never panic) on arbitrary input, and compilation
//! must be idempotent in the ways the §VI contract promises.

use lp_directive::fixtures::{CLEAN, SEEDED};
use lp_directive::lexer::{detokenize, tokenize};
use lp_directive::pragma::{is_nvm_pragma, parse_pragma};
use lp_directive::{compile, lint};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The lexer is total: any string tokenises without panicking, and
    /// re-lexing its own output is a fixed point.
    #[test]
    fn lexer_is_total_and_stable(src in ".*") {
        let toks = tokenize(&src);
        let emitted = detokenize(&toks);
        let toks2 = tokenize(&emitted);
        prop_assert_eq!(toks, toks2, "detokenize must be lex-stable");
    }

    /// The pragma parser never panics, whatever garbage follows `#pragma`.
    #[test]
    fn pragma_parser_is_total(body in "[ -~]{0,80}") {
        let line = format!("#pragma nvm {body}");
        let _ = parse_pragma(1, &line); // Ok or Err, never panic
    }

    /// Sources without nvm pragmas always compile to themselves.
    #[test]
    fn pragma_free_sources_round_trip(
        names in prop::collection::vec("[a-z][a-z0-9_]{0,8}", 1..5),
    ) {
        let mut src = String::new();
        for n in &names {
            src.push_str(&format!("__global__ void {n}(int *p) {{\n    p[0] = 1;\n}}\n"));
        }
        prop_assume!(!src.lines().any(is_nvm_pragma));
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

/// What the function scanner reacts to, were it to read comments as code.
const COMMENT_WORDS: [&str; 8] = ["__global__", "__device__", "{", "}", ";", "(", ")", "\""];
