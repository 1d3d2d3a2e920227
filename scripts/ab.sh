#!/usr/bin/env bash
# ab.sh — paired A/B runs of the repository benchmark: a base revision
# against the working tree.
#
#   scripts/ab.sh <base-rev> [--workload W] [--pairs N] [--seconds S] [--seed0 K]
#
# Defaults: --workload offline_cold --pairs 10 --seconds 45 --seed0 1.
#
# The base revision is exported (git archive) into a temporary directory,
# removed on exit; it shares the working tree's Go build cache. Both sides must hold the same benchmark/ and
# BENCHMARK.json, so that both run the same benchmark code; otherwise the
# script refuses to run. Pair k runs seed K+k on both sides, each side
# building and running its own `python3 benchmark/run.py`; the side that
# runs first alternates from pair to pair, so a drift of the host's speed
# does not favour one side.
#
# It prints, per end-to-end metric of BENCHMARK.json, the base median and
# interquartile range, the head median and its change, and how many pairs
# the head won, lost and tied; then one row per pair with its seed, the
# side that ran first and every end-to-end metric's base and head values;
# then every run's `correct`, `failed` and exit status.
#
# Exit status: 0 when every run succeeded and the gate holds; 1 when a run
# exited nonzero; 2 on a usage error or when the two sides' benchmarks
# differ; 3 when the gate fails: a run reported success_ratio below 1.0,
# or a bounded metric is worse on the head in every pair and its median is
# worse by more than the metric's BENCHMARK.json bound.
set -euo pipefail

usage() {
	sed -n '2,7p' "$0" | sed 's/^# \{0,1\}//' >&2
	exit 2
}

[ $# -ge 1 ] || usage
base_rev=$1
shift
workload=offline_cold
pairs=10
seconds=45
seed0=1
while [ $# -gt 0 ]; do
	[ $# -ge 2 ] || usage
	case $1 in
	--workload) workload=$2 ;;
	--pairs) pairs=$2 ;;
	--seconds) seconds=$2 ;;
	--seed0) seed0=$2 ;;
	*) usage ;;
	esac
	shift 2
done
case $pairs$seed0 in *[!0-9]*) usage ;; esac
[ "$pairs" -ge 1 ] || usage

root=$(git rev-parse --show-toplevel)
cd "$root"
base=$(git rev-parse --verify --quiet "$base_rev^{commit}") || {
	echo "ab: unknown revision $base_rev" >&2
	exit 2
}
if ! git diff --quiet "$base" -- benchmark BENCHMARK.json ||
	[ -n "$(git status --porcelain --untracked-files=all -- benchmark BENCHMARK.json)" ]; then
	echo "ab: benchmark/ or BENCHMARK.json differ between $base_rev and the working tree; refusing to compare" >&2
	exit 2
fi

tmp=$(mktemp -d "${TMPDIR:-/tmp}/ab.XXXXXX")
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/base" "$tmp/runs"
git archive "$base" | tar -x -C "$tmp/base"
# run.py keeps GOCACHE under each tree's .bench_build/. Go's build cache is
# safe to share between trees, so the base side reuses the working tree's
# instead of building from an empty one.
mkdir -p "$root/.bench_build/cache" "$tmp/base/.bench_build"
ln -s "$root/.bench_build/cache" "$tmp/base/.bench_build/cache"

failed=0
for ((k = 0; k < pairs; k++)); do
	seed=$((seed0 + k))
	order="base head"
	if ((k % 2 == 1)); then
		order="head base"
	fi
	for side in $order; do
		dir=$root
		if [ "$side" = base ]; then
			dir=$tmp/base
		fi
		run=$tmp/runs/$side-$seed
		echo "ab: pair $((k + 1))/$pairs, seed $seed: $side" >&2
		status=0
		(cd "$dir" && python3 benchmark/run.py --workload "$workload" --seed "$seed" \
			--seconds "$seconds" --trace 0 >"$run.json" 2>"$run.log") || status=$?
		echo "$status" >"$run.exit"
		if [ "$status" -ne 0 ]; then
			echo "ab: $side run at seed $seed exited $status; its last log lines:" >&2
			tail -n 20 "$run.log" >&2
			failed=1
		fi
	done
done

gate=0
python3 - "$root/BENCHMARK.json" "$tmp/runs" "$workload" "$seed0" "$pairs" "$base_rev" <<'EOF' || gate=$?
import json
import os
import statistics
import sys

spec_path, runs, workload, seed0, pairs, base_rev = sys.argv[1:]
seeds = range(int(seed0), int(seed0) + int(pairs))
spec = json.load(open(spec_path))


def load(side, seed):
    path = os.path.join(runs, "%s-%d" % (side, seed))
    status = int(open(path + ".exit").read())
    result = {}
    try:
        with open(path + ".json") as f:
            lines = [l for l in f.read().splitlines() if l.strip()]
        if lines:
            result = json.loads(lines[-1])
    except (OSError, ValueError):
        pass
    return status, result


res = {(side, s): load(side, s) for side in ("base", "head") for s in seeds}


def value(side, seed, name):
    m = res[(side, seed)][1].get("metrics", {}).get(name)
    return None if m is None else m["value"]


def iqr(xs):
    if len(xs) < 2:
        return 0.0
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[2] - q[0]


def fmt(x):
    return "%.4g" % x


print("%s, seeds %d-%d: %s (base) vs the working tree (head)" % (workload, seeds[0], seeds[-1], base_rev))
print()
print("| metric | base median (IQR) | head median (change) | head won / lost / tied |")
print("|---|---|---|---|")
problems = []
for m in spec["end_to_end"]:
    name, lower = m["name"], m["better"] == "lower"
    paired = [(value("base", s, name), value("head", s, name)) for s in seeds]
    paired = [(b, h) for b, h in paired if b is not None and h is not None]
    if not paired:
        print("| `%s` | - | - | no pairs |" % name)
        continue
    bs, hs = [b for b, _ in paired], [h for _, h in paired]
    bm, hm = statistics.median(bs), statistics.median(hs)
    won = sum(1 for b, h in paired if (h < b if lower else h > b))
    lost = sum(1 for b, h in paired if (h > b if lower else h < b))
    worse = (hm - bm if lower else bm - hm)
    rel = worse / abs(bm) if bm else worse
    change = "%+.1f %%" % (100 * (hm - bm) / abs(bm)) if bm else "n/a"
    print("| `%s` | %s %s (IQR %s) | %s %s (%s) | %d / %d / %d |"
          % (name, fmt(bm), m["unit"], fmt(iqr(bs)), fmt(hm), m["unit"], change,
             won, lost, len(paired) - won - lost))
    if lost == len(paired) and rel > m["bound"]:
        problems.append("%s worse in all %d pairs, median %.1f %% worse (bound %.0f %%)"
                        % (name, len(paired), 100 * rel, 100 * m["bound"]))
print()
names = [m["name"] for m in spec["end_to_end"]]
print("| seed | first | " + " | ".join("`%s` base / head" % n for n in names) + " |")
print("|---|---|" + "---|" * len(names))
for k, s in enumerate(seeds):
    cells = []
    for n in names:
        b, h = value("base", s, n), value("head", s, n)
        cells.append("%s / %s" % ("-" if b is None else "%.6g" % b, "-" if h is None else "%.6g" % h))
    print("| %d | %s | %s |" % (s, "base" if k % 2 == 0 else "head", " | ".join(cells)))
print()
for s in seeds:
    for side in ("base", "head"):
        status, r = res[(side, s)]
        sr = r.get("metrics", {}).get("success_ratio", {}).get("value")
        print("seed %d %s: exit %d, correct %s, failed %s, success_ratio %s"
              % (s, side, status, r.get("correct"), r.get("failed"), sr))
        if sr is not None and sr < 1.0:
            problems.append("%s run at seed %d: success_ratio %g" % (side, s, sr))
print()
if problems:
    for p in problems:
        print("ab: gate: " + p)
    sys.exit(3)
print("ab: gate ok")
EOF

if [ "$failed" -ne 0 ]; then
	exit 1
fi
exit "$gate"
