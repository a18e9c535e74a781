#!/usr/bin/env bash
# Statement ladder: Go statements executed per operation of one of the
# benchmark's workloads (per packet for nat_miss, nat_hit, upf_mgw and
# sfc6_engine2, per deploy for cluster_deploy, per simulated packet for
# fig_sweep), per package and per file. Host time on a shared VM spreads tens of percent run to run;
# the toolchain's coverage counters count executed statements exactly,
# so a code change's host work shows as a repeatable delta.
#
# Recipe: build ./bench with coverage counters on every package of the
# module (into a temporary directory, never under bench/), run the
# workload for --seconds 1 and --seconds 2, each with its own
# GOCOVERDIR, subtract the two `go tool covdata textfmt` outputs block
# by block and divide by the difference in the runs' `attempted`.
# Subtracting cancels set-up and tear-down, provided both runs timed the
# same number of set-ups: the two `info:` lines must report the same
# `setup_samples`. Each try runs one short and one long run and keeps
# both under its own number; after each try the first short run and long
# run, from any tries, that agree are subtracted (the header names
# them), so on a busy host a long run can pair with an earlier try's
# short run.
#
# fig_sweep measures at least 3 passes, so its 1-s and 2-s runs would
# not differ. It runs --seconds 3 and --seconds 6 instead (3 and 7
# measured passes), and the divisor is the difference in simulated
# packets: the `info:` line's pass_pkts times its passes. Every pass
# regenerates the same tables, so one pass's statements include the NF
# construction and core resets of its sweep points.
#
# Blind spots: assembly (the AVX2 set-scan kernel), the Go runtime (GC,
# maps, channels), inlining and memory stalls. The ladder counts work
# done; it does not replace host_pps or peak_rss_mb.
#
# The seed (3), the runs of each length tried before giving up on equal
# setup_samples (5) and the smallest per-file figure printed (0.1) are
# fixed, so two ladders of one workload compare. The coverage mode
# follows from the workload: atomic for sfc6_engine2, whose two engine
# cores run on two goroutines, and for cluster_deploy, whose director
# and agents do; count for the rest.
#
# Usage:
#   scripts/stmt_ladder.sh <workload>     (one of BENCHMARK.json's workloads)
set -euo pipefail

if [ $# -ne 1 ] || [ -z "$1" ]; then
	echo "usage: scripts/stmt_ladder.sh <workload>" >&2
	exit 2
fi
WORKLOAD=$1
SEED=3
TRIES=5
MIN=0.1
SHORT=1 LONG=2
if [ "$WORKLOAD" = fig_sweep ]; then
	SHORT=3 LONG=6
fi
case "$WORKLOAD" in
sfc6_engine2 | cluster_deploy) MODE=atomic ;;
*) MODE=count ;;
esac

root=$(git rev-parse --show-toplevel)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

echo "== building ./bench with -covermode=$MODE" >&2
(cd "$root" && go build -cover -covermode="$MODE" -coverpkg=./... -o "$tmp/bench.cover" ./bench)

run() { # seconds try — writes $tmp/s<seconds>-<try>.{out,log,txt}
	local name="s$1-$2" dir="$tmp/cov$1-$2"
	mkdir -p "$dir"
	if ! (cd "$tmp" && GOCOVERDIR="$dir" "$tmp/bench.cover" --workload "$WORKLOAD" --seed "$SEED" --seconds "$1" --trace 0) >"$tmp/$name.out" 2>"$tmp/$name.log"; then
		echo "stmt_ladder: --seconds $1 run of try $2 failed:" >&2
		cat "$tmp/$name.log" >&2
		exit 1
	fi
	go tool covdata textfmt -i="$dir" -o "$tmp/$name.txt"
}

setups() { # seconds try — the run's setup_samples
	grep '^info: ' "$tmp/s$1-$2.out" | sed 's/^info: //' |
		python3 -c 'import json, sys; print(json.load(sys.stdin).get("setup_samples", "none"))'
}

declare -A short_setups long_setups
pair=
for try in $(seq "$TRIES"); do
	echo "== $WORKLOAD seed $SEED: try $try/$TRIES (--seconds $SHORT, then $LONG)" >&2
	run "$SHORT" "$try"
	run "$LONG" "$try"
	short_setups[$try]=$(setups "$SHORT" "$try")
	long_setups[$try]=$(setups "$LONG" "$try")
	echo "   setup_samples ${short_setups[$try]} and ${long_setups[$try]}" >&2
	for i in $(seq "$try"); do
		for j in $(seq "$try"); do
			if [ -z "$pair" ] && [ "${short_setups[$i]}" = "${long_setups[$j]}" ]; then
				pair="$i $j"
			fi
		done
	done
	if [ -n "$pair" ]; then
		break
	fi
done
if [ -z "$pair" ]; then
	echo "stmt_ladder: no short and long run of $TRIES tries each agreed on setup_samples" >&2
	exit 1
fi
read -r si li <<<"$pair"
echo "== subtracting the --seconds $SHORT run of try $si from the --seconds $LONG run of try $li (setup_samples ${short_setups[$si]})" >&2

python3 - "$tmp" "$WORKLOAD" "$SEED" "$MODE" "$MIN" "$(go list -m)" "$SHORT-$si" "$LONG-$li" "${short_setups[$si]}" <<'EOF'
import collections, json, os, sys

tmp, workload, seed, mode, least, module, short, long_, setups = sys.argv[1:10]
least = float(least)

def blocks(path):
    # textfmt: "mode: X", then "file:l.c,l.c stmts count" per block.
    out = collections.Counter()
    stmts = {}
    for line in open(path).read().splitlines()[1:]:
        block, n, count = line.rsplit(" ", 2)
        stmts[block] = int(n)
        out[block] += int(count)
    return out, stmts

def operations(run):
    lines = open(os.path.join(tmp, f"s{run}.out")).read().splitlines()
    if workload != "fig_sweep":
        return json.loads(lines[-1])["attempted"]
    info = json.loads(next(l for l in lines if l.startswith("info: "))[len("info: "):])
    return info["pass_pkts"] * info["passes"]

unit = "simulated packet" if workload == "fig_sweep" else "op"
c1, stmts = blocks(os.path.join(tmp, f"s{short}.txt"))
c2, stmts2 = blocks(os.path.join(tmp, f"s{long_}.txt"))
stmts.update(stmts2)
ops = operations(long_) - operations(short)
(short_s, short_try), (long_s, long_try) = short.split("-"), long_.split("-")
if ops <= 0:
    sys.exit(f"stmt_ladder: the {long_s}-s run measured {ops} more {unit}s than the {short_s}-s run")

per_file = collections.Counter()
for block, n in stmts.items():
    d = c2[block] - c1[block]
    if d:
        per_file[block.rsplit(":", 1)[0].removeprefix(module + "/")] += n * d
per_pkg = collections.Counter()
for f, v in per_file.items():
    per_pkg[os.path.dirname(f)] += v

total = sum(per_file.values()) / ops
print(f"stmt ladder: {workload} seed {seed}, -covermode={mode}, {ops} more {unit}s in the {long_s}-s run")
print(f"pair: the {short_s}-s run of try {short_try} and the {long_s}-s run of try {long_try}, setup_samples {setups}")
print(f"{'total':<40} {total:10.1f} stmts/{unit}")
print("\nper package")
for p, v in per_pkg.most_common():
    if abs(v / ops) >= least:
        print(f"  {p:<38} {v / ops:10.1f}")
print(f"\nper file (>= {least:g})")
for f, v in per_file.most_common():
    if abs(v / ops) >= least:
        print(f"  {f:<38} {v / ops:10.1f}")
EOF
