//! Valid CUDA the function scanner used to misread: a qualifier, brace or
//! parenthesis inside a comment or a literal, and an attribute with its own
//! parentheses ahead of the kernel name. Each variant of the crate-doc
//! `scale` kernel must lint clean, compile to one plan for `scale`, and
//! yield `scale`'s one-store footprint. A delimiter inside a character
//! literal must not end the body the IR reads either, a digit separator
//! must not open a literal, and a block comment that opens or closes on a
//! preprocessor line must not swallow the code after it.

use lp_directive::analysis::footprint::source_footprints;
use lp_directive::{compile, lint};

/// The `scale` kernel with `header` as its `__global__` line, `body_top` as
/// the first body line, and `before` / `after` around the whole program.
fn scale(before: &str, header: &str, body_top: &str, after: &str) -> String {
    format!(
        r#"{before}
#pragma nvm lpcuda_init(tab, n, 4)
{header}
{body_top}
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    float v = in[i] * 2.0f;
#pragma nvm lpcuda_checksum("+", tab, blockIdx.x)
    out[i] = v;
}}
{after}
"#
    )
}

const HEADER: &str = "__global__ void scale(float *out, float *in, int n) {";

fn assert_scans_as_scale(src: &str, params: &str) {
    assert_eq!(lint(src), Vec::new(), "lint of:\n{src}");
    let compiled = compile(src).unwrap_or_else(|e| panic!("compile: {e}\n{src}"));
    assert_eq!(compiled.plans.len(), 1, "plans of:\n{src}");
    assert_eq!(compiled.plans[0].kernel, "scale");
    assert_eq!(compiled.plans[0].kernel_params, params);
    assert_eq!(compiled.recovery_kernels[0].name, "crscale");
    let fps = source_footprints(src);
    assert_eq!(fps.len(), 1, "footprints of:\n{src}");
    assert_eq!(fps[0].kernel, "scale");
    assert_eq!(fps[0].stores.len(), 1);
    assert_eq!(fps[0].stores[0].ptr, "out");
    assert!(fps[0].block_partitioned && fps[0].fully_folded);
}

const PARAMS: &str = "float *out, float *in, int n";

#[test]
fn global_qualifier_in_a_line_comment_above_the_kernel() {
    let src = scale(
        "// The __global__ kernel below scales a vector.",
        HEADER,
        "",
        "",
    );
    assert_scans_as_scale(&src, PARAMS);
}

#[test]
fn global_qualifier_in_a_trailing_comment() {
    let src = scale("", HEADER, "", "// end of the only __global__ function");
    assert_scans_as_scale(&src, PARAMS);
}

#[test]
fn closing_brace_in_a_block_comment_inside_the_body() {
    let src = scale("", HEADER, "    /* closes early } */", "");
    assert_scans_as_scale(&src, PARAMS);
}

#[test]
fn comment_inside_the_parameter_list() {
    let header = "__global__ void scale(float *out /* result */, float *in, int n) {";
    let src = scale("", header, "", "");
    // The comment's bytes are blanked, not removed.
    assert_scans_as_scale(&src, "float *out             , float *in, int n");
}

#[test]
fn closing_brace_in_a_string_literal_inside_the_body() {
    let src = scale("", HEADER, r#"    printf("}\n");"#, "");
    assert_scans_as_scale(&src, PARAMS);
}

#[test]
fn launch_bounds_attribute_ahead_of_the_kernel_name() {
    let header = "__global__ void __launch_bounds__(256) scale(float *out, float *in, int n) {";
    assert_scans_as_scale(&scale("", header, "", ""), PARAMS);
}

/// A kernel with `lines` between a folded `out` store and the unfolded
/// `log` store right after them.
fn ahead_of_the_stores(lines: &str) -> String {
    format!(
        r#"#pragma nvm lpcuda_init(tab, n, 1)
__global__ void k(float *out, float *log) {{
    int i = blockIdx.x;
#pragma nvm lpcuda_checksum("+", tab, blockIdx.x)
    out[i] = 1.0f;
{lines}
    log[i] = 2.0f;
}}
"#
    )
}

/// `src` draws LP011 on its unfolded `log` store alone, and its footprint
/// keeps both stores.
fn assert_both_stores_kept(src: &str) {
    let log_line = src.lines().position(|l| l.contains("log[i] =")).unwrap() + 1;
    let found: Vec<_> = lint(src).iter().map(|d| (d.code, d.span.line)).collect();
    assert_eq!(found, vec![("LP011", log_line)], "lint of:\n{src}");
    let fps = source_footprints(src);
    let stores: Vec<&str> = fps[0].stores.iter().map(|s| s.ptr.as_str()).collect();
    assert_eq!(stores, vec!["out", "log"], "footprint of:\n{src}");
    assert!(!fps[0].fully_folded, "the `log` store is unfolded:\n{src}");
}

#[test]
fn a_char_literal_delimiter_does_not_end_the_body() {
    for decl in [
        "    char c = '}';",
        "    char c = '{';",
        "    char c = ';';",
        "    int n = 1'000;",
        "    if (i < 1'000) {\n    }",
    ] {
        assert_both_stores_kept(&ahead_of_the_stores(decl));
    }
}

#[test]
fn a_block_comment_opening_or_closing_on_a_directive_line_stays_in_step() {
    for lines in [
        "    /* disabled:\n#pragma unroll */",
        "    /* #if DEBUG\n#endif */",
        "#define SCALE 2 /* opens here\n    and closes here */",
    ] {
        assert_both_stores_kept(&ahead_of_the_stores(lines));
    }
}

#[test]
fn a_store_inside_a_multi_line_block_comment_is_not_code() {
    let src = r#"#pragma nvm lpcuda_init(tab, n, 1)
__global__ void k(float *out, float *log) {
    int i = blockIdx.x;
    /*
    log[i] = 2.0f;
    */
#pragma nvm lpcuda_checksum("+", tab, blockIdx.x)
    out[i] = 1.0f;
}
"#;
    // A finding here would be LP011 on line 5, and `--fix` would insert
    // its pragma inside the comment.
    assert_eq!(lint(src), Vec::new());
    let fps = source_footprints(src);
    let stores: Vec<&str> = fps[0].stores.iter().map(|s| s.ptr.as_str()).collect();
    assert_eq!(stores, vec!["out"]);
}
