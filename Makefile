GO ?= go

.PHONY: build test verify cross lint loc reach size bench-smoke bench-compile bench-paired bench-ab stmts profile examples quick trace-demo metrics-demo fuzz chaos chaos-demo

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# verify is the full pre-merge gate: build, vet, the cross-builds, and
# the test suite under the race detector (which also exercises the
# parallel sweep determinism test with real concurrency). ./... covers
# every package CI's differential job lists, ./internal/nf/... included.
verify: cross
	$(GO) build ./...
	$(GO) vet ./...
	$(GO) test -race ./...

# cross checks the module's assembly from any host, offline: every stub
# against its Go declaration (go vet's asmdecl) — internal/hostmem's
# amd64 and arm64 prefetch stubs and internal/sim's amd64 set-scan
# kernel — then the whole module on arm64 and on riscv64, which have no
# kernel (the scalar set scans) and, on riscv64, no prefetch stub (the
# no-op fallback).
cross:
	GOARCH=amd64 $(GO) vet ./internal/hostmem/
	GOARCH=arm64 $(GO) vet ./internal/hostmem/
	GOARCH=amd64 $(GO) vet ./internal/sim/
	GOARCH=arm64 $(GO) build ./...
	GOARCH=riscv64 $(GO) build ./...

# lint fails on any file gofmt would rewrite, runs go vet always, and
# staticcheck when it is on PATH (CI installs a pinned version; local
# environments without it still get the vet pass instead of a hard
# failure).
lint:
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "gofmt -l lists files that need formatting:"; echo "$$unformatted"; exit 1; \
	fi
	$(GO) vet ./...
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipped (CI runs it pinned)"; \
	fi

# loc counts the non-test Go lines outside bench/ (hidden directories
# such as build outputs skipped): one line per package directory,
# largest first, then the total — the figure a simplicity change
# reports as "non-test Go N → M".
loc:
	@find . -path ./bench -prune -o -path './.*' -prune -o -name '*.go' ! -name '*_test.go' -print \
		| xargs wc -l | awk '$$2 != "total" { d = $$2; sub(/\/[^\/]*$$/, "", d); pkg[d] += $$1; sum += $$1 } \
		END { for (d in pkg) printf "%7d %s\n", pkg[d], d | "sort -rn"; close("sort -rn"); printf "%7d total\n", sum }'

# reach prints the statements under internal/ that go test ./... runs
# and no user path does — the root, examples/, bench and cmd/ tests, a
# cover-built gunfu-bench's -exp all -quick and -trace -attr runs —
# per package and per function, and fails on any function user paths
# never run that scripts/reach_allow.txt does not list with a reason.
# DEMOS=1 adds the two demo scripts' binaries (loopback). About a
# minute; see scripts/reach.sh.
reach:
	scripts/reach.sh

# size prints the byte size of the benchmark binary (./bench) and of
# gunfu-bench, and which of net/http, crypto/tls and runtime/cgo each
# links: the fixed part of every workload's peak RSS. Printed for the
# log, not a gate. Only cmd/gunfu-worker links an HTTP stack
# (TestImportLayering holds that). runtime/cgo, and the libc it maps
# (about 1.3 MiB resident), is expected: it comes in through net, which
# the director's TCP control plane needs, whenever cgo is enabled. The
# benchmark builds with the toolchain's defaults, so a build flag that
# drops it would not change what the benchmark measures.
size:
	@dir=$$(mktemp -d); trap 'rm -rf "$$dir"' EXIT; \
	for p in ./bench ./cmd/gunfu-bench; do \
		$(GO) build -o "$$dir/bin" $$p || exit 1; \
		links=$$($(GO) list -deps $$p | grep -xE 'net/http|crypto/tls|runtime/cgo' | paste -sd ' '); \
		printf "%10d bytes  %-18s links: %s\n" $$(stat -c %s "$$dir/bin") $$p "$${links:-none of them}"; \
	done

# bench-smoke runs one short iteration of every hot-path benchmark —
# enough to catch a benchmark that no longer compiles or allocates,
# not enough to produce stable numbers (use bench for those).
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 100x ./internal/sim/ ./internal/rt/

# bench-compile builds and runs every benchmark in the module exactly
# once — the CI smoke that catches a benchmark a refactor broke without
# paying measurement time.
bench-compile:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# bench runs the hot-path benchmarks at measurement length; pipe two
# runs through benchstat to compare (see EXPERIMENTS.md).
bench:
	$(GO) test -run '^$$' -bench . -benchmem -count 10 ./internal/sim/ ./internal/rt/

# bench-paired compares the working tree against a baseline commit with
# the paired-minimum methodology (alternated binaries, per-side minimums
# — see scripts/bench_paired.sh and BENCH_hotpath.json). The default
# pair is the worker steady state over a host-cache-resident population
# (8K flows, the 0-alloc guard) and over one that is not (131072 flows).
# Override knobs:
#   make bench-paired BASE=<commit> PKG=./internal/sim/ BENCH='Benchmark.*' ROUNDS=5
BASE ?= HEAD
PKG ?= ./internal/rt/
BENCH ?= BenchmarkWorkerSteadyState(Large)?$$
ROUNDS ?= 10
bench-paired:
	BASE=$(BASE) PKG=$(PKG) BENCH='$(BENCH)' ROUNDS=$(ROUNDS) scripts/bench_paired.sh

# bench-ab A/Bs the repo's end-to-end benchmark (./bench) between a
# baseline ref and the working tree: PAIRS interleaved pairs of contract
# runs, alternating which side goes first, then per metric each side's
# quartiles and median, the median ratio, wins/pairs, and whether the
# simulated metrics were bit-identical run for run — the rule a
# performance claim has to meet (bench/README.md "Noise"). See
# scripts/bench_ab.sh for the SECONDS_/SEED/TRACE/OUT knobs.
#   make bench-ab BASE=<ref> WORKLOAD=cluster_deploy PAIRS=10
WORKLOAD ?= cluster_deploy
PAIRS ?= 10
bench-ab:
	BASE=$(BASE) WORKLOAD=$(WORKLOAD) PAIRS=$(PAIRS) scripts/bench_ab.sh

# stmts prints the statement ladder of one benchmark workload: Go
# statements executed per operation, per package and per file, from the
# coverage counters of two runs whose set-ups match. The four packet
# workloads and cluster_deploy run 1 s and 2 s and count per packet and
# per deploy; fig_sweep runs 3 s and 6 s and counts per simulated
# packet. Exact where host time is not; see scripts/stmt_ladder.sh.
# WORKLOAD must be given: bench-ab's default does not apply here.
#   make stmts WORKLOAD=upf_mgw
stmts:
	@if [ "$(origin WORKLOAD)" = file ]; then echo "usage: make stmts WORKLOAD=<workload>" >&2; exit 2; fi
	scripts/stmt_ladder.sh $(WORKLOAD)

# profile runs a measured NAT window with host pprof attached — warmup
# packets are excluded from the CPU profile, so it shows only the
# steady-state simulator hot path. See EXPERIMENTS.md "Profiling
# workflow" for reading the output and pairing it with bench-paired.
profile:
	$(GO) run ./cmd/gunfu-bench -attr -nf nat -flows 32768 \
		-warmup 20000 -packets 200000 -tasks 16 \
		-cpuprofile cpu.pprof -memprofile mem.pprof
	@echo "inspect with:"
	@echo "  $(GO) tool pprof -top cpu.pprof"
	@echo "  $(GO) tool pprof -top -sample_index=alloc_space mem.pprof"

# examples runs every program under examples/ — the callers of the
# public gunfu facade — through its TestGolden, which fails on any byte
# of stdout that differs from the example's testdata/stdout.golden
# (distributed's listener address aside).
examples:
	$(GO) test -count=1 ./examples/...

# quick regenerates every figure with reduced populations.
quick:
	$(GO) run ./cmd/gunfu-bench -exp all -quick -parallel 4

# trace-demo smoke-tests the trace exporter end to end: a small traced
# NAT run producing attribution tables plus a Chrome trace JSON to load
# in ui.perfetto.dev (see EXPERIMENTS.md).
trace-demo:
	$(GO) run ./cmd/gunfu-bench -trace trace_demo.json -attr \
		-nf nat -flows 4096 -packets 8000 -warmup 2000 -tasks 16

# fuzz runs the fuzz targets — the control-plane wire protocol, the
# cuckoo match table against a map, the MDI tree against a scan of its
# rules, the simulator's AVX2 set scan against the scalar one, the
# packet parser plus NAT rewrite, the traffic generators' header writer
# against the packet encoders, the wire latency histogram decoder, the
# spec front end (transitions, NF compositions, modules), the NF-C
# front end (parse then compile) and the spec → program path
# (FromSpec, then one packet under both runtimes) — for a short active
# burst each (the seed corpora in
# internal/{director,dstruct,sim,pkt,traffic,stats}/testdata/fuzz and
# the spec, nfc and compile targets' f.Add seeds also run on every
# plain `go test`).
# Override FUZZTIME for longer campaigns:
# make fuzz FUZZTIME=5m
FUZZTIME ?= 10s
fuzz:
	$(GO) test -run '^$$' -fuzz 'FuzzProtocolReadMsg$$' -fuzztime $(FUZZTIME) ./internal/director/
	$(GO) test -run '^$$' -fuzz 'FuzzProtocolRoundTrip$$' -fuzztime $(FUZZTIME) ./internal/director/
	$(GO) test -run '^$$' -fuzz 'FuzzCuckooOps$$' -fuzztime $(FUZZTIME) ./internal/dstruct/
	$(GO) test -run '^$$' -fuzz 'FuzzMDITree$$' -fuzztime $(FUZZTIME) ./internal/dstruct/
	$(GO) test -run '^$$' -fuzz 'FuzzSetScan$$' -fuzztime $(FUZZTIME) ./internal/sim/
	$(GO) test -run '^$$' -fuzz 'FuzzPacketRewrite$$' -fuzztime $(FUZZTIME) ./internal/pkt/
	$(GO) test -run '^$$' -fuzz 'FuzzHeaderWriter$$' -fuzztime $(FUZZTIME) ./internal/traffic/
	$(GO) test -run '^$$' -fuzz 'FuzzHistogramJSON$$' -fuzztime $(FUZZTIME) ./internal/stats/
	$(GO) test -run '^$$' -fuzz 'FuzzParseTransition$$' -fuzztime $(FUZZTIME) ./internal/spec/
	$(GO) test -run '^$$' -fuzz 'FuzzParseNF$$' -fuzztime $(FUZZTIME) ./internal/spec/
	$(GO) test -run '^$$' -fuzz 'FuzzParseModule$$' -fuzztime $(FUZZTIME) ./internal/spec/
	$(GO) test -run '^$$' -fuzz 'FuzzParseCompile$$' -fuzztime $(FUZZTIME) ./internal/nfc/
	$(GO) test -run '^$$' -fuzz 'FuzzFromSpec$$' -fuzztime $(FUZZTIME) ./internal/compile/

# chaos runs the control-plane fault drill under the race detector: a
# director and two reconnecting agents behind the deterministic faultnet
# injector, three fixed seeds, goroutine-leak checked.
chaos:
	$(GO) test -race -count=1 -run 'TestChaosSoak' -v ./internal/director/

# chaos-demo boots a real director (-chaos) and two reconnecting
# workers on loopback and lets the fault injector cut connections
# mid-run: the deployment still completes via backoff redials and
# deduped deploy retries. See EXPERIMENTS.md "Chaos walkthrough".
chaos-demo:
	scripts/chaos_demo.sh

# metrics-demo boots a one-worker cluster on loopback, scrapes the
# worker's OpenMetrics endpoint mid-run, breaches an impossible SLO,
# and collects the resulting flight-recorder dump (ui.perfetto.dev),
# failing if /debug/flight never serves one. Artifacts land in
# metrics_demo_out/; see EXPERIMENTS.md.
metrics-demo:
	scripts/metrics_demo.sh
