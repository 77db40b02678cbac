#!/usr/bin/env bash
# The alternating parent/change table a performance claim rests on
# (choosing-metrics §8), computed one way:
#
#   scripts/bench-pairs.sh <parent-ref> <workload> [pairs=10] [seed=42]
#
# <workload> and [seed] may each be a comma-separated list, so one pair of
# builds serves a whole table (e.g. `HEAD compute_bound,memory_bound 10 42,2718`).
#
# Exports <parent-ref> and the working tree (tracked files plus the
# untracked ones `git add -A` would stage) into a temporary directory,
# builds both `benchmark/` packages there `--offline`, and for every
# (workload, seed) runs what the driver runs,
#
#   lp-benchmark drive --workload W --seed S --seconds 15 --trace 0 --detail F
#
# `pairs` times per side, alternating which side goes first. Prints one
# Markdown row per end-to-end metric: both medians with quartiles, the pairs
# the change won (ties count for neither side), the parent's interquartile
# range, and whether the gap exceeds it. A row is a gain only with
# wins >= 9/10 of the pairs and `gap > IQR`.
#
# Builds and runs happen in the temporary directory only: nothing under
# benchmark/ (Cargo.lock, target/, out/) nor .git is written, and the
# directory is removed on exit. Honour TMPDIR to choose where it goes.
set -euo pipefail

if [ $# -lt 2 ] || [ $# -gt 4 ]; then
  sed -n '2,25p' "$0" >&2
  exit 2
fi
parent_ref=$1
workloads=${2//,/ }
pairs=${3:-10}
seeds=${4:-42}
seeds=${seeds//,/ }

root=$(cd "$(dirname "$0")/.." && pwd)
parent_sha=$(git -C "$root" rev-parse --verify --quiet "$parent_ref^{commit}") || {
  echo "bench-pairs: not a commit: $parent_ref" >&2
  exit 2
}
tmp=$(mktemp -d "${TMPDIR:-/tmp}/bench-pairs.XXXXXX")
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/parent" "$tmp/change" "$tmp/runs"

git -C "$root" archive "$parent_sha" | tar -x -C "$tmp/parent"
(
  cd "$root"
  # Listed-but-deleted files are skipped, as `git add -A` would drop them.
  git ls-files -z --cached --others --exclude-standard |
    while IFS= read -r -d '' f; do [ -e "$f" ] && printf '%s\0' "$f"; done |
    tar --null -T - -cf -
) | tar -x -C "$tmp/change"

for side in parent change; do
  echo "bench-pairs: building $side ..." >&2
  cargo build --release --offline --quiet --target-dir "$tmp/$side/target" \
    --manifest-path "$tmp/$side/benchmark/Cargo.toml"
done

for w in $workloads; do
  for s in $seeds; do
    for i in $(seq 1 "$pairs"); do
      if [ $((i % 2)) -eq 1 ]; then order="parent change"; else order="change parent"; fi
      for side in $order; do
        "$tmp/$side/target/release/lp-benchmark" drive \
          --workload "$w" --seed "$s" --seconds 15 --trace 0 \
          --detail "$tmp/runs/$w.$s.$side.$i.json" >/dev/null
      done
      echo "bench-pairs: $w seed $s pair $i/$pairs" >&2
    done
  done
done

echo "parent \`${parent_sha:0:7}\` vs working tree of \`$(git -C "$root" rev-parse --short HEAD)\`," \
  "$pairs alternating pairs, \`drive --seconds 15 --trace 0\`;" \
  "cells are median [q1, q3]."
echo
python3 - "$tmp/runs" "$root/BENCHMARK.json" "$pairs" "$workloads" "$seeds" <<'PY'
import json, statistics, sys

runs, bench, pairs, workloads, seeds = sys.argv[1:]
pairs = int(pairs)
metrics = json.load(open(bench))["end_to_end"]


def load(w, s, side, i):
    d = json.load(open(f"{runs}/{w}.{s}.{side}.{i}.json"))
    return d, d["metrics"]


def cell(xs):
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive") if len(xs) > 1 else xs * 3
    return med, q3 - q1, f"{med:.4g} [{q1:.4g}, {q3:.4g}]"


print("| workload | seed | metric | parent | change | change/parent | wins | parent IQR | gap > IQR | failed (parent / change) |")
print("|---|---|---|---|---|---|---|---|---|---|")
for w in workloads.split():
    for s in seeds.split():
        sides = {}
        for side in ("parent", "change"):
            loaded = [load(w, s, side, i) for i in range(1, pairs + 1)]
            failed = sum(d["failed"] for d, _ in loaded)
            attempted = sum(d["attempted"] for d, _ in loaded)
            bad_digest = sum(not d.get("sim_digest_ok", True) for d, _ in loaded)
            note = f"{failed}/{attempted}" + (f", {bad_digest} digest mismatches" if bad_digest else "")
            sides[side] = ([m for _, m in loaded], note)
        for spec in metrics:
            name, lower = spec["name"], spec["better"] == "lower"
            p = [m[name] for m in sides["parent"][0]]
            c = [m[name] for m in sides["change"][0]]
            wins = sum((b < a) if lower else (b > a) for a, b in zip(p, c))
            pm, piqr, ptxt = cell(p)
            cm, _, ctxt = cell(c)
            gap = (pm - cm) if lower else (cm - pm)
            ratio = f"{cm / pm:.3f}" if pm else "n/a"
            print(
                f"| {w} | {s} | {name} ({spec['unit']}, {spec['better']}) | {ptxt} | {ctxt} | {ratio} "
                f"| {wins}/{pairs} | {piqr:.4g} | {'yes' if gap > piqr else 'no'} "
                f"| {sides['parent'][1]} / {sides['change'][1]} |"
            )
PY
