#!/usr/bin/env bash
# Builds the benchmark (package ./bench of the repo's module) from source
# and runs it with the given arguments.
# Everything the build writes — the binary, Go's build cache and its
# temporary files — stays under .bench_build/ in the checkout, and the
# build never reaches for the network.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
if [ ! -f "$root/go.mod" ]; then
	echo "bench/run.sh: $root holds no go.mod: the benchmark builds against the repo it sits in" >&2
	exit 1
fi
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd "$root" && go build -o "$build/gunfu-benchmark" ./bench)
exec "$build/gunfu-benchmark" "$@"
