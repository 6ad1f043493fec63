#!/usr/bin/env bash
# Same-host A/B comparison of the perfbench benchmark of record.
#
# Usage: scripts/ab.sh [-w WORKLOAD] [-n PAIRS] [-s SECONDS] [--seed N] [BASE_REV]
#
# Builds perfbench twice with `cargo build --offline --release`: once from
# the committed files of BASE_REV (default HEAD~1), exported with
# `git archive` into a temporary directory, and once from this checkout
# (uncommitted edits included). Then runs PAIRS pairs (default 10) of
# SECONDS-second runs (default 30) of WORKLOAD (default rack16x64) with
# tracing off, alternating which side goes first in each pair so slow host
# drift does not favour one side.
#
# For every gated end-to-end metric in BENCHMARK.json it prints the
# median and interquartile range (IQR) of each side, the change in the
# median, and in how many pairs the change beat the base. The verdict is
# "better" only when the change beat the base in at least 90 % of the
# pairs (9 of 10) AND the change in the median exceeds the base's own IQR;
# "worse" needs the same with the base beating the change. Anything else
# is "no verdict". It also reports whether the simulated-output digests
# of the two sides agree.
#
# Neither side's build writes into perfbench/: both use target
# directories under target/ab/ (the base's source is removed on exit).
set -euo pipefail
cd "$(dirname "$0")/.."
ROOT="$PWD"

WORKLOAD=rack16x64
PAIRS=10
SECONDS_PER_RUN=30
SEED=1
BASE_REV=HEAD~1
while [ $# -gt 0 ]; do
    case "$1" in
        -w) WORKLOAD="$2"; shift 2 ;;
        -n) PAIRS="$2"; shift 2 ;;
        -s) SECONDS_PER_RUN="$2"; shift 2 ;;
        --seed) SEED="$2"; shift 2 ;;
        -h|--help) sed -n '2,24p' "$0"; exit 0 ;;
        -*) echo "error: unknown option $1" >&2; exit 2 ;;
        *) BASE_REV="$1"; shift ;;
    esac
done

BASE_SHA="$(git rev-parse --verify "$BASE_REV^{commit}")"
OUT="$ROOT/target/ab"
mkdir -p "$OUT"
SRC="$(mktemp -d)"
trap 'rm -rf "$SRC"' EXIT

echo "building base $BASE_SHA ..." >&2
git archive "$BASE_SHA" | tar -x -C "$SRC"
CARGO_TARGET_DIR="$OUT/base" cargo build --offline --release --quiet \
    --manifest-path "$SRC/perfbench/Cargo.toml"
echo "building change (this checkout) ..." >&2
CARGO_TARGET_DIR="$OUT/change" cargo build --offline --release --quiet \
    --manifest-path "$ROOT/perfbench/Cargo.toml"

RUNS="$OUT/runs-$WORKLOAD.txt"
: > "$RUNS"
run_side() {
    local side="$1" dir="$2" pair="$3" log
    log="$(cd "$dir" && "$OUT/$side/release/odrl-perfbench" --workload "$WORKLOAD" \
        --seed "$SEED" --seconds "$SECONDS_PER_RUN" --trace 0)"
    printf '%s\t%s\t%s\t%s\n' "$pair" "$side" \
        "$(grep '^digest:' <<<"$log" | cut -d' ' -f2)" "$(tail -n 1 <<<"$log")" >> "$RUNS"
}
for pair in $(seq 1 "$PAIRS"); do
    echo "pair $pair/$PAIRS ..." >&2
    if [ $((pair % 2)) -eq 1 ]; then
        run_side base "$SRC" "$pair"
        run_side change "$ROOT" "$pair"
    else
        run_side change "$ROOT" "$pair"
        run_side base "$SRC" "$pair"
    fi
done

python3 - "$ROOT/BENCHMARK.json" "$RUNS" "$WORKLOAD" <<'EOF'
import json
import math
import statistics
import sys

bench_path, runs_path, workload = sys.argv[1:]
gated = json.load(open(bench_path))["end_to_end"]
runs = {}  # pair -> side -> (digest, report)
for line in open(runs_path):
    pair, side, digest, report = line.rstrip("\n").split("\t", 3)
    runs.setdefault(int(pair), {})[side] = (digest, json.loads(report))
pairs = [runs[p] for p in sorted(runs) if len(runs[p]) == 2]


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], q[2]


print(f"workload {workload}: {len(pairs)} pairs")
for side in ("base", "change"):
    bad = sum(not p[side][1]["correct"] for p in pairs)
    if bad:
        print(f"warning: {bad} {side} run(s) reported correct=false")
digests_agree = all(p["base"][0] == p["change"][0] for p in pairs)
print(f"digests {'agree' if digests_agree else 'DIFFER'}")
print(f"{'metric':<16}{'base med':>12}{'base IQR':>12}{'change med':>12}"
      f"{'change IQR':>12}{'delta':>10}{'wins':>7}  verdict")
for m in gated:
    name, lower = m["name"], m["better"] == "lower"
    vals = [(p["base"][1]["metrics"].get(name, {}).get("value"),
             p["change"][1]["metrics"].get(name, {}).get("value")) for p in pairs]
    vals = [(b, c) for b, c in vals if b is not None and c is not None]
    if not vals:
        continue
    base = [b for b, _ in vals]
    change = [c for _, c in vals]
    bm, cm = statistics.median(base), statistics.median(change)
    bq1, bq3 = quartiles(base)
    cq1, cq3 = quartiles(change)
    iqr = bq3 - bq1
    delta = cm - bm
    wins = sum((c < b) if lower else (c > b) for b, c in vals)
    losses = sum((c > b) if lower else (c < b) for b, c in vals)
    # A verdict needs both a consistent direction (>= 90 % of pairs) and a
    # median shift larger than the base's own spread.
    needed = math.ceil(0.9 * len(vals))
    improved = (delta < 0) == lower
    if abs(delta) <= iqr or delta == 0:
        verdict = "no verdict"
    elif improved and wins >= needed:
        verdict = "better"
    elif not improved and losses >= needed:
        verdict = "worse"
    else:
        verdict = "no verdict"
    rel = f"{delta / bm:+.1%}" if bm else "n/a"
    print(f"{name:<16}{bm:>12.4g}{iqr:>12.4g}{cm:>12.4g}{cq3 - cq1:>12.4g}"
          f"{rel:>10}{wins:>4}/{len(vals):<2}  {verdict}")
EOF
