#!/usr/bin/env bash
# Lints, tests and smoke-runs the benchmark package. The repository's CI
# recipe does not cover this directory (it is outside the workspace), so
# run this before changing anything under benchmark/.
set -euo pipefail
cd "$(dirname "$0")"

cargo fmt --check
cargo clippy --offline --all-targets -- -D warnings
cargo test --offline --release
# One repetition per workload, outputs and pinned digests checked; no traced
# run. Takes under half a minute once built.
cargo run --offline --release --quiet -- run --quick
