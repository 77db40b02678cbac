//! `lpcuda-lint` — the static LP-safety analysis CLI. The tool itself is
//! `lp_bench::experiments::lint_cli`, which `lp lpcuda-lint` also runs.

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(lp_bench::lint_main(&argv));
}
