#!/usr/bin/env bash
# Paired benchmark runs of two commits, for a change that claims a gain
# (or must show it lost nothing):
#
#   scripts/pair.sh PARENT CHANGE WORKLOAD N
#
# checks both commits out once, side by side, builds each once, then runs
# `bash bench/run.sh -workload WORKLOAD` on them N times in pairs — both
# sides of a pair on the same fresh seed, parent first in odd pairs and
# change first in even ones, so drift in the machine lands on both sides —
# and prints, per end-to-end metric of BENCHMARK.json: each side's median
# and quartiles, how many pairs the change won, and the ratio of the
# medians. The rule it serves (choosing-metrics, section 8): claim a gain
# only if the change wins at least nine pairs in ten and the medians differ
# by more than the parent's own interquartile distance.
#
# It only invokes bench/run.sh and reads the JSON object on its last line.
# The checkouts are `git archive` exports in a temporary directory
# (TMPDIR), not worktrees: the repository, its index and its .git are left
# exactly as they were. PAIR_SEED fixes the first seed (default: the
# clock); pair i runs seed PAIR_SEED+i. Every run's JSON line is kept in
# the summary's "runs" directory, named on the last line of output.
set -euo pipefail

if [ $# -ne 4 ]; then
	echo "usage: $0 PARENT CHANGE WORKLOAD N" >&2
	exit 2
fi
parent=$1 change=$2 workload=$3 pairs=$4
root=$(cd "$(dirname "$0")/.." && pwd)
seed0=${PAIR_SEED:-$(date +%s)}

work=$(mktemp -d)
for side in parent change; do
	rev=$(git -C "$root" rev-parse --verify "${!side}^{commit}")
	mkdir -p "$work/$side" "$work/runs"
	git -C "$root" archive "$rev" | tar -x -C "$work/$side"
	echo "$side: ${!side} ($rev)"
	# Build once, outside the measured runs: a zero-second run compiles the
	# benchmark (and, in a fresh checkout, the standard library).
	bash "$work/$side/bench/run.sh" -workload "$workload" -seconds 0 >/dev/null 2>&1 || true
done

run() { # side pair seed
	bash "$work/$1/bench/run.sh" -workload "$workload" -seed "$3" | tail -n 1 >"$work/runs/$2.$1.json"
}
for i in $(seq 1 "$pairs"); do
	seed=$((seed0 + i))
	if [ $((i % 2)) -eq 1 ]; then order="parent change"; else order="change parent"; fi
	echo "pair $i/$pairs seed $seed: $order" >&2
	for side in $order; do run "$side" "$i" "$seed"; done
done

python3 - "$work/change/BENCHMARK.json" "$work/runs" "$workload" "$pairs" <<'EOF'
import json, statistics, sys

bench, runs, workload, pairs = sys.argv[1], sys.argv[2], sys.argv[3], int(sys.argv[4])
spec = json.load(open(bench))["end_to_end"]

def load(side):
    out = []
    for i in range(1, pairs + 1):
        r = json.load(open(f"{runs}/{i}.{side}.json"))
        if not r["correct"] or r["failed"]:
            sys.exit(f"pair {i} {side}: correct={r['correct']} failed={r['failed']}")
        out.append({k: v["value"] for k, v in r["metrics"].items()})
    return out

def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], statistics.median(xs), q[2]

parent, change = load("parent"), load("change")
print(f"\n{workload}, {pairs} pairs (median [q1, q3]; wins = pairs the change read better, ties aside)\n")
print("| metric | unit | parent | change | change wins | change/parent |")
print("|---|---|---|---|---|---|")
for m in spec:
    name, lower = m["name"], m["better"] == "lower"
    p = [r[name] for r in parent]
    c = [r[name] for r in change]
    wins = sum((b < a) if lower else (b > a) for a, b in zip(p, c))
    ties = sum(a == b for a, b in zip(p, c))
    (p1, pm, p3), (c1, cm, c3) = quartiles(p), quartiles(c)
    ratio = f"{cm / pm:.3f}" if pm else "-"
    tie = f" ({ties} ties)" if ties else ""
    print(f"| {name} | {m['unit']} | {pm:.4g} [{p1:.4g}, {p3:.4g}] | {cm:.4g} [{c1:.4g}, {c3:.4g}] | {wins}/{pairs - ties}{tie} | {ratio} |")
EOF
echo "runs kept in $work/runs"
rm -rf "$work/parent" "$work/change"
