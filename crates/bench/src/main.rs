//! `lp` — the experiment driver. See [`lp_bench::lp_main`].

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(lp_bench::lp_main(&argv));
}
