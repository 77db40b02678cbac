#!/usr/bin/env bash
# The size numbers ROADMAP aim 2 tracks, computed one way. Every simplicity
# PR quotes this output (before and after) in CHANGES.md instead of an
# ad-hoc grep; the CI `check` job prints it as its last step.
#
#   scripts/tracked-numbers.sh [REPO_ROOT]     # default: this checkout
#
# Scope: the workspace's own Rust under crates/, vendored stand-ins
# (crates/vendor/) excluded. Counts are of lines containing the pattern.
# "bin targets" are the files cargo builds into executables: a src/main.rs
# or a file under src/bin/.
set -euo pipefail
cd "${1:-$(dirname "$0")/..}"

own() { find crates -name '*.rs' -not -path 'crates/vendor/*' "$@"; }
# grep exits 1 on "no match": that is a zero here, not an error.
lines_with() { { own -print0 | xargs -0 grep -hF -- "$1" || true; } | wc -l; }
apps_lines_with() { { grep -rhF "${@:2}" -- "$1" crates/apps/src || true; } | wc -l; }

# Lines of a file before its first top-level `#[cfg(test)]` (all, if none).
non_test() { awk '/^#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' "$1"; }
non_test_under() { local n=0 f; for f in $(find "$@" -name '*.rs'); do n=$((n + $(non_test "$f"))); done; echo "$n"; }
# Own files a `#[cfg(test)] mod NAME;` line brings in: test-only modules
# kept under src/ (the reference models).
test_only_modules() {
  local f
  for f in $(own); do
    awk -v dir="${f%/*}" 'prev ~ /^#\[cfg\(test\)\]/ && /^mod [a-z0-9_]+;/ { sub(/;.*/, ""); print dir "/" $2 ".rs" } { prev = $0 }' "$f"
  done
}
# Non-test lines of the own files: outside tests/ directories and test-only
# modules, before each file's first top-level `#[cfg(test)]`.
non_test_own() {
  local n=0 f skip
  skip=$(test_only_modules)
  for f in $(own -not -path '*/tests/*'); do
    grep -qxF -- "$f" <<<"$skip" || n=$((n + $(non_test "$f")))
  done
  echo "$n"
}

# `pub` fields of the non-test `pub struct`s a run is configured with: names
# ending in Config, Spec or Params, and CostModel (own files outside tests/
# directories and test-only modules, before each file's first top-level
# `#[cfg(test)]`).
settable_config_fields() {
  local n=0 f skip
  skip=$(test_only_modules)
  for f in $(own -not -path '*/tests/*'); do
    grep -qxF -- "$f" <<<"$skip" && continue
    n=$((n + $(awk '/^#\[cfg\(test\)\]/ { exit }
      /^pub struct ([A-Za-z0-9_]*(Config|Spec|Params)|CostModel)[ <{]/ { s = 1; next }
      s && /^}/ { s = 0 }
      s && /^    pub [a-z0-9_]+:/ { c++ }
      END { print c + 0 }' "$f")))
  done
  echo "$n"
}

# Own .rs files whose non-test source (not under a tests/ directory, before
# the first top-level `#[cfg(test)]`) contains "SPMV" — the suite name every
# subject table, default and name `match` spells, so the probe for hand-kept
# ones. lp-kernels' subject table is the floor of 1.
suite_name_files() {
  local n=0 f
  for f in $(find crates src examples -name '*.rs' -not -path 'crates/vendor/*' -not -path '*/tests/*'); do
    awk '/^#\[cfg\(test\)\]/ { exit } /"SPMV"/ { hit = 1; exit } END { exit !hit }' "$f" && n=$((n + 1))
  done
  echo "$n"
}
# Code lines of non-test source under crates/*/src, or under directory $3
# (before the first top-level `#[cfg(test)]`, `//` comment lines dropped)
# matching ERE $1 and not ERE $2 — $2 is how a call-site count leaves out
# the definition.
src_code_lines() {
  local f
  for f in $(find ${3:-crates/*/src} -name '*.rs'); do awk '/^#\[cfg\(test\)\]/ { exit } !/^[[:space:]]*\/\// { print }' "$f"; done |
    { grep -E -- "$1" || true; } | { grep -vE -- "${2:-^$}" || true; } | wc -l
}
all_rs_lines_with() { { grep -rE --include='*.rs' --exclude-dir=vendor -- "$1" crates src tests examples || true; } | wc -l; }

row() { printf '%-48s %s\n' "$1" "$2"; }
all_lines=$(own -print0 | xargs -0 cat | wc -l)
source_lines=$(non_test_own)
row "rs lines under crates/, non-test (vendor excluded):" "$source_lines"
row "rs lines under crates/, test (vendor excluded):" "$((all_lines - source_lines))"
row "pub fn:" "$(lines_with 'pub fn ')"
row "settable config fields:" "$(settable_config_fields)"
row "bin targets:" "$(own \( -path '*/src/bin/*.rs' -o -path '*/src/main.rs' \) | wc -l)"
row "crates/apps/src lines:" "$(cat crates/apps/src/*.rs | wc -l)"
row "crates/apps/src pub fn:" "$(apps_lines_with 'pub fn ')"
row "crates/apps/src 'RecoverableApp for':" "$(apps_lines_with 'RecoverableApp for ')"
row "crates/apps/src 'manifest.commit(' callers:" "$(apps_lines_with 'manifest.commit(' --exclude=manifest.rs)"
row "crates/apps/src '.recover_reentrant(':" "$(apps_lines_with '.recover_reentrant(')"
row "crates/apps/src 'ResilientRecovery::new':" "$(apps_lines_with 'ResilientRecovery::new')"
row "PersistMode mentions (crates src tests examples):" "$({ grep -rw PersistMode crates src tests examples || true; } | wc -l)"
row "crates/core/src Mutex|RwLock lines:" "$({ grep -rh 'Mutex\|RwLock' crates/core/src || true; } | wc -l)"
row "crates/core/src/region.rs lines (total / non-test):" "$(wc -l <crates/core/src/region.rs) / $(non_test crates/core/src/region.rs)"
row "core+persist src non-test lines:" "$(non_test_under crates/core/src crates/persist/src)"
row "crates/core/src/table non-test lines:" "$(non_test_under crates/core/src/table)"
row "'impl ChecksumTableOps for' (crates src):" "$(src_code_lines 'impl ChecksumTableOps for')"
row "files naming a suite workload in non-test source:" "$(suite_name_files)"
row "'fn *world*(' definitions (crates src tests examples):" "$(all_rs_lines_with 'fn [a-z_]*world[a-z_]*\(')"
row "'LpRuntime::setup(' call sites outside crates/core:" "$({ grep -rF --include='*.rs' 'LpRuntime::setup(' crates src tests examples || true; } | grep -vc '^crates/core/')"
# A kernel opens and closes its LP session only through `gpu_lp::LpKernel`.
row "'LpBlockSession::begin*' / '.finalize(' call sites outside crates/core:" "$({ grep -rE --include='*.rs' --exclude-dir=vendor 'LpBlockSession::begin|\.finalize\(' crates src tests examples || true; } | grep -vc '^crates/core/')"
# A subject is one `Region`: `Workload` provides `launch_config` and
# `kernel` once, and MEGA-KV's three batch operations are one region.
row "'fn launch_config(' / 'fn kernel<' definitions (kernels/src non-test):" "$(src_code_lines 'fn launch_config\(' '' crates/kernels/src) / $(src_code_lines 'fn kernel<' '' crates/kernels/src)"
row "'impl Region for' (megakv/src non-test):" "$(src_code_lines 'impl(<[^>]*>)? Region for' '' crates/megakv/src)"
row "'impl Recoverable for' (crates/*/src non-test):" "$(src_code_lines 'impl(<[^>]*>)? Recoverable for')"
# A read-back appends to recovery's one buffer (`Region::region_images(mem,
# block, images)`); the runtime digests and compares in place.
row "'fn region_images' returning Vec (crates src tests examples code):" "$({ grep -rE --include='*.rs' --exclude-dir=vendor 'fn region_images\(.*\) -> Vec' crates src tests examples || true; } | { grep -vE '^[^:]*:[[:space:]]*//' || true; } | wc -l)"
row "'recovery needs the LP runtime' panics:" "$(all_rs_lines_with 'recovery needs the LP runtime')"
row "'probe_buckets(' non-test call sites:" "$(src_code_lines 'probe_buckets\(' 'fn probe_buckets\(')"
row "'parse_kernel(' call sites (crates/*/src non-test):" "$(src_code_lines 'parse_kernel\(' 'fn parse_kernel\(')"
row "'cfg::build' call sites (crates/*/src non-test):" "$(src_code_lines 'build\((&|ir)' 'fn build\(')"
row "'parse_pragma(' call sites (crates/*/src non-test):" "$(src_code_lines 'parse_pragma\(' 'fn parse_pragma\(')"
row "'find_kernels(' call sites (crates/*/src non-test):" "$(src_code_lines 'find_kernels\(' 'fn find_kernels\(')"
row "'fn span_at' definitions (crates/*/src non-test):" "$(src_code_lines 'fn span_at')"
# Lexing calls: `tokenize(` but not `detokenize(`.
row "'tokenize(' call sites (directive/src/analysis non-test):" "$(src_code_lines '(^|[^[:alnum:]_])tokenize\(' 'fn tokenize\(' crates/directive/src/analysis)"
row "'tokenize(' call sites (directive/src non-test):" "$(src_code_lines '(^|[^[:alnum:]_])tokenize\(' 'fn tokenize\(' crates/directive/src)"
# Where a `/*` comment opener is recognised: a '/' char literal, then a '*'.
row "'/*' comment openers (directive/src non-test):" "$(src_code_lines "'/'[^']*'\\*'" '' crates/directive/src)"
# Per-element shared-memory reads in kernel bodies: each one tests the
# observer; a hot loop of them belongs in a tile op (`shm_tile_dots_f32`).
row "'shm_read(' / 'shm_read_f32(' call sites (kernels/src non-test):" "$(src_code_lines 'shm_read(_f32)?\(' '' crates/kernels/src)"
# Typed per-word `PersistMemory` accesses outside the memory crate: a loop
# of them over an array belongs in a run (`scan_*`, `write_run_*`,
# `read_runs`), which books a same-line run once.
row "typed per-word PersistMemory accessor call sites (crates/*/src non-test, outside nvm):" "$(src_code_lines '(^|[^_[:alnum:]])(read|write)_(u32|f32|u64)\(' 'fn (read|write)_' "$(find crates/*/src -maxdepth 0 -not -path 'crates/nvm/*')")"
# Read runs outside the memory crate: walks of device memory that book a
# same-line run once. Recovery read-backs share one helper
# (`gpu_lp::checksum::read_back_images`), so this counts the other readers.
row "'scan_u32(' / 'scan_u64(' / 'read_runs(' call sites (crates/*/src non-test, outside nvm):" "$(src_code_lines '(^|[^_[:alnum:]])(scan_u(32|64)|read_runs)(::<[^>]*>)?\(' 'fn (scan_u(32|64)|read_runs)' "$(find crates/*/src -maxdepth 0 -not -path 'crates/nvm/*')")"
# Run loops: the `PersistMemory` methods that book a run's hits in bulk
# (`count_hits(` / `book_hits(`), split into read and write loops.
row "run loops in nvm/src/memory.rs (read / write):" "$(awk '/^#\[cfg\(test\)\]/ { exit }
  /^    (pub )?fn / { name = $0 }
  /(book|count)_hits\(/ && name != "" && !(name in seen) { seen[name] = 1; if (name ~ /fn write/) w++; else r++ }
  END { print r + 0 " / " w + 0 }' crates/nvm/src/memory.rs)"
row "crates/persist/src non-test lines:" "$(non_test_under crates/persist/src)"
# Methods the per-region persist session declares (the runtime calls three).
row "BlockPersistSession trait methods:" "$(awk '/^pub trait BlockPersistSession/ { t = 1 } t && /^[[:space:]]*fn / { n++ } t && /^}/ { exit } END { print n + 0 }' crates/persist/src/backend.rs)"
row "crates/directive/src non-test lines:" "$(non_test_under crates/directive/src)"
row "crates/directive/src pub fn:" "$({ grep -rhF 'pub fn ' crates/directive/src || true; } | wc -l)"
