#!/usr/bin/env bash
# reach.sh — what under internal/ only its own package's tests reach.
#
# Collects statement coverage of ./internal/... twice:
#
#   suite  go test ./...
#   user   what a user runs: the tests of the root package, examples/,
#          bench and cmd/, plus a `go build -cover` gunfu-bench running
#          `-exp all -quick` and `-trace -attr` profiles of nat,
#          upf-downlink and sfc. DEMOS=1 adds scripts/metrics_demo.sh
#          and scripts/chaos_demo.sh, their binaries cover-built through
#          GOFLAGS (loopback only, a few more seconds each).
#
# and prints the statements the suite runs and user paths do not
# ("own-test-only"): the totals, per package, and per function. Blocks
# are attributed to the function declared last above them, so code in a
# package-level initializer counts toward the function before it.
#
# Then the gate: every function with a statement that user paths never
# run must be listed, with a reason, in the allowlist (ALLOW, default
# scripts/reach_allow.txt: one function a line, "pkg.Func" or
# "pkg.Type.Method" with pkg its path under internal/, then the reason).
# It prints one line per such function, with its reason, and exits 1 if
# any is unlisted, if an entry has no reason, or if an entry names no
# function. An entry whose function user paths now reach is reported,
# not failed: a path that is reached only on some runs must not make
# the gate flaky. Under DEMOS=1 an entry whose reason starts
# "demo-only:" must be reached, and is not reported.
#
#   make reach
#   DEMOS=1 scripts/reach.sh
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
allow=${ALLOW:-scripts/reach_allow.txt}
mod=$(go list -m)
tmp=$(mktemp -d "${TMPDIR:-/tmp}/reach.XXXXXX")
trap 'rm -rf "$tmp"' EXIT

# quiet runs a command with its output in a log, shown only on failure.
quiet() {
  local log=$1
  shift
  if ! "$@" >"$log" 2>&1; then
    cat "$log" >&2
    echo "reach: failed: $*" >&2
    exit 1
  fi
}

echo "reach: go test ./..." >&2
quiet "$tmp/suite.log" go test -coverpkg=./internal/... -coverprofile="$tmp/suite.out" ./...
echo "reach: user-path tests (root, examples/, bench, cmd/)" >&2
quiet "$tmp/tests.log" go test -coverpkg=./internal/... -coverprofile="$tmp/tests.out" . ./examples/... ./bench ./cmd/...

# A cover-built binary writes nothing unless its main package is
# instrumented too, hence ./... here.
mkdir "$tmp/cov"
go build -cover -coverpkg=./... -o "$tmp/gunfu-bench" ./cmd/gunfu-bench
echo "reach: gunfu-bench -exp all -quick" >&2
GOCOVERDIR="$tmp/cov" quiet "$tmp/quick.log" "$tmp/gunfu-bench" -exp all -quick
for nf in nat upf-downlink sfc; do
  echo "reach: gunfu-bench -trace -attr -nf $nf" >&2
  GOCOVERDIR="$tmp/cov" quiet "$tmp/$nf.log" "$tmp/gunfu-bench" -trace "$tmp/$nf.json" -attr \
    -nf "$nf" -flows 4096 -packets 8000 -warmup 2000 -tasks 16
done
if [ "${DEMOS:-0}" = 1 ]; then
  for demo in metrics_demo chaos_demo; do
    echo "reach: scripts/$demo.sh" >&2
    GOFLAGS="-cover -coverpkg=./..." GOCOVERDIR="$tmp/cov" OUT="$tmp/$demo" PACKETS=10000000 \
      quiet "$tmp/$demo.log" "scripts/$demo.sh"
  done
fi
go tool covdata textfmt -i="$tmp/cov" -o "$tmp/bin.out"

# One line per block of internal/, its statements and 1 if any input
# ran it. The user profile takes its blocks from the suite's first, at
# count 0, so a file no user path links still has its functions listed.
merge() {
  awk -v pre="$mod/internal/" -v keysonly="$1" 'FNR == 1 { f++ }
    /^mode:/ || index($1, pre) != 1 { next }
    { n[$1] = $2; if (!($1 in hit)) hit[$1] = 0 }
    f > keysonly && $3 > 0 { hit[$1] = 1 }
    END { print "mode: set"; for (k in n) print k, n[k], hit[k] }' "${@:2}"
}
merge 0 "$tmp/suite.out" >"$tmp/suite.set"
merge 1 "$tmp/suite.out" "$tmp/tests.out" "$tmp/bin.out" >"$tmp/user.set"
# Every function declaration, with its start line.
go tool cover -func="$tmp/user.set" | grep -v '^total:' >"$tmp/funcs"
if [ ! -f "$allow" ]; then
  echo "reach: no allowlist $allow; every function user paths never run is unlisted" >&2
  allow="$tmp/empty"
  : >"$allow"
fi

awk -v mod="$mod/" -v allowfile="$allow" -v demos="${DEMOS:-0}" '
# qualified builds "pkg.Func" or "pkg.Type.Method" for the function
# declared at file:line, reading the receiver off the source line.
function qualified(file, line, name,   rel, pkg, src, l, i, recv) {
  rel = substr(file, length(mod) + 1)
  pkg = rel; sub(/\/[^\/]*$/, "", pkg); sub(/^internal\//, "", pkg)
  for (i = 1; (getline l < rel) > 0; i++) if (i == line) { src = l; break }
  close(rel)
  if (match(src, /^func \([^)]*\)/)) {
    recv = substr(src, 7, RLENGTH - 7)
    sub(/\[.*$/, "", recv); sub(/^.* /, "", recv); sub(/^\*/, "", recv)
    return pkg "." recv "." name
  }
  return pkg "." name
}
FILENAME == allowfile {
  if ($0 ~ /^[ \t]*(#|$)/) next
  reason = $0; sub(/^[ \t]*[^ \t]+[ \t]*/, "", reason)
  allowed[$1] = reason; nallowed++
  if (reason == "") { printf "reach: allowlist entry %s has no reason\n", $1; bad++ }
  next
}
FILENAME ~ /funcs$/ {
  split($1, a, ":"); file = a[1]
  k = ++nf[file]; fline[file, k] = a[2] + 0; fname[file, k] = $2
  userpct[file, k] = $NF
  next
}
/^mode:/ { next }
{
  split($1, a, ":"); file = a[1]; split(a[2], b, "."); line = b[1] + 0
  pkg = substr(file, length(mod) + 1); sub(/\/[^\/]*$/, "", pkg)
  # The function declared last at or above the block.
  best = 0
  for (k = 1; k <= nf[file]; k++) if (fline[file, k] <= line && (best == 0 || fline[file, k] > fline[file, best])) best = k
  if (FILENAME ~ /suite.set$/) {
    total += $2; ptotal[pkg] += $2; fstmts[file, best] += $2
    if ($3) { suite[$1] = 1; srun += $2; psrun[pkg] += $2; fsrun[file, best] += $2 }
  } else if ($3) {
    urun += $2; purun[pkg] += $2; furun[file, best] += $2
  } else if ($1 in suite) {
    own += $2; pown[pkg] += $2; fown[file, best] += $2
  }
}
END {
  printf "internal/: %d statements; go test ./... runs %d; user paths run %d; own-test-only %d\n\n", total, srun, urun, own
  printf "per package    stmts  suite   user  own-test-only\n"
  for (p in ptotal) printf "%-24s %6d %6d %6d %6d\n", p, ptotal[p], psrun[p], purun[p], pown[p] | "sort -k5,5nr -k1,1"
  close("sort -k5,5nr -k1,1")
  printf "\nper function, own-test-only statements (* = user paths never run it):\n"
  for (fk in fown) {
    split(fk, a, SUBSEP); file = a[1]; k = a[2]
    if (fown[fk] == 0 || k == 0) continue
    printf "%6d %s %s (%s:%d)\n", fown[fk], (userpct[file, k] == "0.0%" ? "*" : " "), qualified(file, fline[file, k], fname[file, k]), substr(file, length(mod) + 1), fline[file, k] | "sort -k1,1nr -k3,3"
  }
  close("sort -k1,1nr -k3,3")
  printf "\nfunctions user paths never run:\n"
  for (file in nf) for (k = 1; k <= nf[file]; k++) {
    q = qualified(file, fline[file, k], fname[file, k]); seen[q] = 1
    if (userpct[file, k] != "0.0%" || fstmts[file, k] == 0) { if (q in allowed) reached[q] = 1; continue }
    never++
    ran = fsrun[file, k] ? "own tests only" : "nothing runs it"
    if (demos == 1 && allowed[q] ~ /^demo-only:/) {
      printf "  WRONG    %s (%s; %d stmts): listed as demo-only, but the demos do not run it\n", q, ran, fstmts[file, k] | "sort -k2,2"
      bad++
    } else if (q in allowed) {
      printf "  kept     %s (%s; %d stmts): %s\n", q, ran, fstmts[file, k], allowed[q] | "sort -k2,2"
    } else {
      printf "  UNLISTED %s (%s:%d; %s; %d stmts): not in %s\n", q, substr(file, length(mod) + 1), fline[file, k], ran, fstmts[file, k], allowfile | "sort -k2,2"
      bad++
    }
  }
  close("sort -k2,2")
  for (q in allowed) {
    if (!(q in seen)) { printf "reach: allowlist entry %s names no function\n", q; bad++ }
    else if (q in reached && !(demos == 1 && allowed[q] ~ /^demo-only:/)) printf "reach: note: allowlisted %s is reached by user paths\n", q
  }
  printf "\n%d functions user paths never run; %d allowlisted entries; %d problems\n", never, nallowed, bad
  exit bad > 0
}' "$allow" "$tmp/funcs" "$tmp/suite.set" "$tmp/user.set"
