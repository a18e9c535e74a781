#!/usr/bin/env bash
# Paired-minimum benchmark comparison (the BENCH_hotpath.json
# methodology). This host is a shared VM whose absolute ns/op drifts by
# double-digit percent between runs; single before/after runs are
# meaningless. This script cancels the drift by building two test
# binaries — one at a baseline commit in a throwaway clone, one from the
# working tree — and alternating them baseline,new,baseline,new,...
# within the same time window, then reporting the per-side MINIMUM for
# each benchmark (the least-disturbed execution) and the ratio of
# minimums.
#
# Every round's raw `go test -bench` output is also kept, per side, in
# benchstat-compatible form ($OUT/base.txt and $OUT/new.txt, one sample
# per round), so distribution and variance are inspectable alongside the
# paired-min ratios:
#   benchstat <out>/base.txt <out>/new.txt
#
# Usage:
#   scripts/bench_paired.sh
#   BASE=<commit> PKG=./internal/sim/ BENCH='BenchmarkCacheLookup$' ROUNDS=5 scripts/bench_paired.sh
#
# Knobs (environment):
#   BASE      baseline commit (default: HEAD — compare working tree vs HEAD)
#   PKG       package whose test binary to build (default ./internal/rt/)
#   BENCH     -test.bench regex (default BenchmarkWorkerSteadyState(Large)?$)
#   ROUNDS    alternation rounds (default 10)
#   BENCHTIME go -benchtime per run (default 1s)
#   OUT       directory for the per-round benchstat files
#             (default bench_paired.out, overwritten per invocation)
#
# Benchmarks that exist on only one side are reported without a ratio.
set -euo pipefail

BASE=${BASE:-HEAD}
PKG=${PKG:-./internal/rt/}
BENCH=${BENCH:-BenchmarkWorkerSteadyState(Large)?$}
ROUNDS=${ROUNDS:-10}
BENCHTIME=${BENCHTIME:-1s}
OUT=${OUT:-bench_paired.out}

root=$(git rev-parse --show-toplevel)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

echo "== building baseline ($BASE) and working-tree test binaries for $PKG" >&2
git clone -q --no-checkout "$root" "$tmp/base"
if ! git -C "$tmp/base" checkout -q --detach "$(git -C "$root" rev-parse "$BASE")" 2>"$tmp/checkout.log"; then
	echo "bench_paired: cannot check out baseline '$BASE':" >&2
	cat "$tmp/checkout.log" >&2
	exit 1
fi
if ! (cd "$tmp/base" && go test -c -o "$tmp/base.test" "$PKG") >"$tmp/base_build.log" 2>&1; then
	echo "bench_paired: baseline test binary failed to build at $BASE for $PKG:" >&2
	cat "$tmp/base_build.log" >&2
	echo "bench_paired: the baseline side builds from a clone at $BASE alone — if $PKG" >&2
	echo "bench_paired: (or its benchmarks) did not exist at $BASE, choose an older PKG" >&2
	echo "bench_paired: or a newer BASE; working-tree-only benchmarks cannot be paired." >&2
	exit 1
fi
if ! (cd "$root" && go test -c -o "$tmp/new.test" "$PKG") >"$tmp/new_build.log" 2>&1; then
	echo "bench_paired: working-tree test binary failed to build for $PKG:" >&2
	cat "$tmp/new_build.log" >&2
	exit 1
fi

mkdir -p "$OUT"
: >"$OUT/base.txt"
: >"$OUT/new.txt"

run() { # side binary — append one benchstat sample per benchmark
	if ! "$2" -test.run '^$' -test.bench "$BENCH" -test.benchtime "$BENCHTIME" -test.benchmem >>"$OUT/$1.txt" 2>"$tmp/run.log"; then
		echo "bench_paired: $1 benchmark binary failed:" >&2
		cat "$tmp/run.log" >&2
		exit 1
	fi
}

for i in $(seq "$ROUNDS"); do
	echo "== round $i/$ROUNDS" >&2
	run base "$tmp/base.test"
	run new "$tmp/new.test"
done

for side in base new; do
	if ! grep -q 'ns/op' "$OUT/$side.txt"; then
		echo "bench_paired: the $side binary produced no benchmark samples —" >&2
		echo "bench_paired: does the regex '$BENCH' match a benchmark in $PKG on that side?" >&2
		exit 1
	fi
done

parse() { # side — normalize the side's raw file into "side bench ns"
	awk -v side="$1" '$2 ~ /^[0-9]+$/ && $4 == "ns/op" { sub(/-[0-9]+$/, "", $1); print side, $1, $3 }' "$OUT/$1.txt"
}
parse base >"$tmp/results.txt"
parse new >>"$tmp/results.txt"

awk '
	{
		v = $3 + 0
		if (!(($1, $2) in min) || v < min[$1, $2]) min[$1, $2] = v
		benches[$2] = 1
	}
	END {
		for (b in benches) {
			bm = (("base", b) in min) ? min["base", b] : -1
			nm = (("new", b) in min) ? min["new", b] : -1
			if (bm > 0 && nm > 0)
				printf "%-40s base_min=%9.1f ns/op  new_min=%9.1f ns/op  speedup=%.3fx\n", b, bm, nm, bm / nm
			else if (bm > 0)
				printf "%-40s base_min=%9.1f ns/op  (absent in working tree)\n", b, bm
			else
				printf "%-40s new_min=%9.1f ns/op  (absent at baseline)\n", b, nm
		}
	}
' "$tmp/results.txt" | sort

echo "== per-round samples: benchstat $OUT/base.txt $OUT/new.txt" >&2
