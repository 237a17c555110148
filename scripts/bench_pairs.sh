#!/usr/bin/env bash
# Alternating-pair benchmark of the working tree against an earlier commit.
#
# Usage: scripts/bench_pairs.sh PARENT_REV WORKLOAD PAIRS [FIRST_SEED]
#   scripts/bench_pairs.sh HEAD~1 offline-pruner-bert 10
#
# Compares tunebench built from PARENT_REV's committed files (exported with
# `git archive` into a temporary directory, so a killed run leaves nothing
# registered in .git) with tunebench built from the working tree; each
# side's first run.sh call builds it, outside tunebench's timing. Runs
# PAIRS pairs of `bench/tunebench/run.sh --workload WORKLOAD --seconds 20`,
# one parent and one change invocation per pair, on seed FIRST_SEED + i for
# pair i (default FIRST_SEED 101). The order inside a pair alternates
# (parent first on even pairs, change first on odd ones), so slow drift of
# the host does not favour one side.
#
# For every end-to-end metric in BENCHMARK.json it prints both sides'
# median and quartiles over the pairs and how many pairs the change won,
# lost and tied. A gain needs at least 9 wins in 10 pairs (ties count for
# neither side) and a median gap wider than the parent's p25-p75 spread
# (the "gain" column). The temporary directory, parent build included, is
# removed on exit.
set -euo pipefail

if [ "$#" -lt 3 ] || [ "$#" -gt 4 ]; then
  sed -n '2,5p' "$0" | sed 's/^# \{0,1\}//' >&2
  exit 2
fi
parent_rev="$1"
workload="$2"
pairs="$3"
first_seed="${4:-101}"

root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
git rev-parse --verify --quiet "$parent_rev^{commit}" > /dev/null || {
  echo "bench_pairs: unknown revision '$parent_rev'" >&2
  exit 2
}

tmp="$(mktemp -d "${TMPDIR:-/tmp}/bench_pairs.XXXXXX")"
trap 'rm -rf "$tmp"' EXIT
parent="$tmp/parent"
mkdir -p "$parent" "$tmp/runs"
git archive --format=tar "$parent_rev" | tar -x -C "$parent"
echo "bench_pairs: parent $(git rev-parse --short "$parent_rev") vs working tree, $workload, $pairs pairs" >&2

# One invocation; its last stdout line (the JSON summary) goes to $3.
run_side() {
  local tree="$1" seed="$2" out="$3"
  if ! bash "$tree/bench/tunebench/run.sh" --workload "$workload" \
    --seconds 20 --seed "$seed" > "$out.log" 2>&1; then
    tail -n 20 "$out.log" >&2
    echo "bench_pairs: $tree failed at seed $seed" >&2
    exit 1
  fi
  tail -n 1 "$out.log" > "$out"
}

for ((i = 0; i < pairs; i++)); do
  seed=$((first_seed + i))
  if ((i % 2 == 0)); then
    run_side "$parent" "$seed" "$tmp/runs/parent.$i.json"
    run_side "$root" "$seed" "$tmp/runs/change.$i.json"
  else
    run_side "$root" "$seed" "$tmp/runs/change.$i.json"
    run_side "$parent" "$seed" "$tmp/runs/parent.$i.json"
  fi
  echo "bench_pairs: pair $((i + 1))/$pairs (seed $seed) done" >&2
done

python3 - "$root/BENCHMARK.json" "$tmp/runs" "$pairs" <<'EOF'
import json, math, sys

bench, runs, pairs = json.load(open(sys.argv[1])), sys.argv[2], int(sys.argv[3])

def load(side, i):
    doc = json.loads(open(f"{runs}/{side}.{i}.json").read())
    if not doc.get("correct", False):
        sys.exit(f"bench_pairs: {side} run {i} failed its correctness gate")
    return doc["metrics"]

def quartiles(xs):
    xs = sorted(xs)
    def at(q):
        pos = q * (len(xs) - 1)
        lo = math.floor(pos)
        hi = min(lo + 1, len(xs) - 1)
        return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)
    return at(0.25), at(0.5), at(0.75)

parent = [load("parent", i) for i in range(pairs)]
change = [load("change", i) for i in range(pairs)]
need = math.ceil(0.9 * pairs)
print(f"{'metric':<18} {'parent p50 [p25, p75]':>30} "
      f"{'change p50 [p25, p75]':>30} {'W/L/T':>8} {'delta':>8}  gain")
for m in bench["end_to_end"]:
    name, lower = m["name"], m["better"] == "lower"
    if name not in parent[0]:
        continue
    p = [r[name]["value"] for r in parent]
    c = [r[name]["value"] for r in change]
    sign = 1 if lower else -1
    wins = sum(1 for a, b in zip(p, c) if sign * (a - b) > 0)
    ties = sum(1 for a, b in zip(p, c) if a == b)
    p25, p50, p75 = quartiles(p)
    c25, c50, c75 = quartiles(c)
    delta = (c50 - p50) / p50 if p50 else 0.0
    gain = wins >= need and sign * (p50 - c50) > p75 - p25
    print(f"{name:<18} {p50:>12.4g} [{p25:.4g}, {p75:.4g}]"
          f"{'':>2} {c50:>12.4g} [{c25:.4g}, {c75:.4g}]"
          f"{'':>2} {wins:>2}/{pairs - wins - ties}/{ties:<2} {delta:>+8.1%}  "
          f"{'yes' if gain else 'no'}")
EOF
