#!/usr/bin/env bash
# Interleaved A/B of the repo's benchmark (./bench, see bench/README.md
# "Noise"): builds ./bench at a baseline commit in a throwaway clone and
# at the working tree, runs PAIRS pairs of contract runs alternating
# which side goes first, and prints for every end-to-end metric each
# side's quartiles and median, the ratio of medians, how many pairs the
# working tree won, and whether the simulated metrics (sim_*) were
# bit-identical run for run. This is the rule a performance claim has to
# meet: at least ten interleaved pairs, nine tenths of them won, medians
# further apart than the baseline's own quartiles.
#
# Usage:
#   scripts/bench_ab.sh
#   BASE=<ref> WORKLOAD=cluster_deploy PAIRS=10 scripts/bench_ab.sh
#
# Knobs (environment):
#   BASE      baseline ref (default HEAD: working tree against HEAD)
#   WORKLOAD  one of BENCHMARK.json's workloads (default cluster_deploy)
#   PAIRS     pairs of runs (default 10)
#   SECONDS_  --seconds per run (default 10, the contract's run length)
#   SEED      seed of the first pair; pair i runs both sides on SEED+i-1
#             (default 7)
#   TRACE     --trace 0|1: end-to-end or per-layer metrics (default 0)
#   OUT       directory for the raw runs: <side>.jsonl holds each run's
#             result line, <side>.stdout everything the runs printed,
#             `info:` lines included (default bench_ab.out, overwritten
#             per invocation)
set -euo pipefail

BASE=${BASE:-HEAD}
WORKLOAD=${WORKLOAD:-cluster_deploy}
PAIRS=${PAIRS:-10}
SECONDS_=${SECONDS_:-10}
SEED=${SEED:-7}
TRACE=${TRACE:-0}
OUT=${OUT:-bench_ab.out}

root=$(git rev-parse --show-toplevel)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

echo "== building ./bench at $BASE and at the working tree" >&2
git clone -q --no-checkout "$root" "$tmp/base"
if ! git -C "$tmp/base" checkout -q --detach "$(git -C "$root" rev-parse "$BASE")" 2>"$tmp/checkout.log"; then
	echo "bench_ab: cannot check out baseline '$BASE':" >&2
	cat "$tmp/checkout.log" >&2
	exit 1
fi
(cd "$tmp/base" && go build -o "$tmp/base.bin" ./bench)
(cd "$root" && go build -o "$tmp/new.bin" ./bench)

mkdir -p "$OUT"
OUT=$(cd "$OUT" && pwd)
: >"$OUT/base.jsonl" >"$OUT/base.stdout"
: >"$OUT/new.jsonl" >"$OUT/new.stdout"

run() { # side seed — the run's last stdout line is its result
	if ! (cd "$tmp" && "$tmp/$1.bin" --workload "$WORKLOAD" --seed "$2" --seconds "$SECONDS_" --trace "$TRACE") >"$tmp/run.stdout" 2>"$tmp/run.log"; then
		echo "bench_ab: $1 run failed:" >&2
		cat "$tmp/run.log" >&2
		exit 1
	fi
	cat "$tmp/run.stdout" >>"$OUT/$1.stdout"
	tail -n 1 "$tmp/run.stdout" >>"$OUT/$1.jsonl"
}

for i in $(seq "$PAIRS"); do
	seed=$((SEED + i - 1))
	if ((i % 2)); then first=base second=new; else first=new second=base; fi
	echo "== pair $i/$PAIRS seed $seed ($first first)" >&2
	run "$first" "$seed"
	run "$second" "$seed"
done

python3 - "$OUT/base.jsonl" "$OUT/new.jsonl" "$root/BENCHMARK.json" "$WORKLOAD" "$BASE" <<'EOF'
import json, statistics, sys

base_path, new_path, manifest_path, workload, base_ref = sys.argv[1:6]
load = lambda p: [json.loads(l) for l in open(p) if l.strip()]
base, new = load(base_path), load(new_path)
manifest = json.load(open(manifest_path))
better = {m["name"]: m["better"] for m in manifest["end_to_end"] + manifest["per_layer"]}

def quartiles(xs):
    q = statistics.quantiles(xs, n=4, method="inclusive") if len(xs) > 1 else [xs[0]] * 3
    return q[0], q[1], q[2]

failed = lambda runs: f"{sum(r['failed'] for r in runs)}/{sum(r['attempted'] for r in runs)}"
print(f"{workload}: {len(base)} pairs, base={base_ref}; failed/attempted base {failed(base)}, new {failed(new)}")
print(f"{'metric':34} {'side':5} {'q1':>14} {'median':>14} {'q3':>14}   new/base  wins")
for name in sorted(base[0]["metrics"]):
    b = [r["metrics"][name]["value"] for r in base]
    n = [r["metrics"][name]["value"] for r in new]
    if name.startswith("sim_"):
        same = "bit-identical run for run" if b == n else "DIFFERS"
        print(f"{name:34} {'both':5} {'':14} {statistics.median(b):14.6g} {'':14}   {same}")
        continue
    higher = better.get(name, "lower") == "higher"
    wins = sum((y > x) if higher else (y < x) for x, y in zip(b, n))
    ties = sum(x == y for x, y in zip(b, n))
    bq, nq = quartiles(b), quartiles(n)
    ratio = nq[1] / bq[1] if bq[1] else float("nan")
    print(f"{name:34} {'base':5} {bq[0]:14.6g} {bq[1]:14.6g} {bq[2]:14.6g}")
    print(f"{'':34} {'new':5} {nq[0]:14.6g} {nq[1]:14.6g} {nq[2]:14.6g}   {ratio:7.3f}x  {wins}/{len(b) - ties}"
          f"  ({'higher' if higher else 'lower'} is better; base IQR {bq[2] - bq[0]:.6g}, medians apart {abs(nq[1] - bq[1]):.6g})")
EOF
echo "== raw runs: $OUT/base.jsonl $OUT/new.jsonl" >&2
