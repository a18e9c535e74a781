package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"os"
	"regexp"
	"strings"
	"testing"
)

func smokeOpts(seed int64, trace bool, dir string) runOpts {
	return runOpts{seed: seed, seconds: 0, trace: trace, smoke: true, outDir: dir, log: io.Discard}
}

// smokeRuns memoizes smoke runs by workload, seed and mode, so tests
// that only read a run's metrics share one.
var smokeRuns = map[string]*outcome{}

func smokeRun(t *testing.T, w workload, seed int64, trace bool) *outcome {
	t.Helper()
	key := fmt.Sprint(w.name, seed, trace)
	if out, ok := smokeRuns[key]; ok {
		return out
	}
	out, err := w.run(smokeOpts(seed, trace, t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	smokeRuns[key] = out
	return out
}

// simulated lists the end-to-end metrics that must repeat to the last
// digit for one seed.
var simulated = []string{"sim_gbps", "sim_cycles_per_pkt", "sim_stall_cycles_per_pkt"}

// TestSmokeDeterminism runs every workload at smoke size twice with one
// seed and once with another: the simulated metrics and operation
// counts must repeat exactly for a seed, and must move with the seed,
// which shows the seed reaches the generators.
func TestSmokeDeterminism(t *testing.T) {
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			first := smokeRun(t, w, 1, false)
			again, err := w.run(smokeOpts(1, false, t.TempDir()))
			if err != nil {
				t.Fatal(err)
			}
			other := smokeRun(t, w, 2, false)
			if first.failed != 0 || again.failed != 0 || other.failed != 0 {
				t.Fatalf("failed operations: %d, %d, %d", first.failed, again.failed, other.failed)
			}
			if first.attempted != again.attempted {
				t.Errorf("attempted %d then %d for one seed", first.attempted, again.attempted)
			}
			moved := false
			for _, name := range simulated {
				a, b, c := first.metrics[name], again.metrics[name], other.metrics[name]
				if _, ok := first.metrics[name]; !ok {
					t.Errorf("%s was not measured", name)
				}
				if a != b {
					t.Errorf("%s = %v then %v for one seed", name, a, b)
				}
				moved = moved || a != c
			}
			if !moved {
				t.Errorf("no simulated metric moved with the seed: the packet stream did not change")
			}
		})
	}
}

// TestManifestMatchesCommand holds BENCHMARK.json and the command to
// the same names: the committed file is what -write-manifest produces,
// every name in it is printed by a run, and a run prints no other.
func TestManifestMatchesCommand(t *testing.T) {
	committed, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.MarshalIndent(buildManifest(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bytes.TrimSpace(committed), want) {
		t.Errorf("BENCHMARK.json is stale: regenerate it with -write-manifest")
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if !name.MatchString(d.Name) {
				t.Errorf("metric name %q breaks the naming rule", d.Name)
			}
			if seen[d.Name] {
				t.Errorf("metric name %q is used twice", d.Name)
			}
			seen[d.Name] = true
		}
	}
	for _, w := range workloads {
		if !name.MatchString(w.name) || len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %q breaks the naming rule or its why is not one short line", w.name)
		}
	}

	known := map[string]bool{}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		known[d.Name] = true
	}
	for _, traced := range []bool{false, true} {
		defs := endToEnd
		if traced {
			defs = perLayer
		}
		for _, w := range workloads {
			out := smokeRun(t, w, 1, traced)
			var printed bytes.Buffer
			printMetrics(&printed, w.name, out, defs)
			for _, d := range defs {
				if !strings.Contains(printed.String(), " "+d.Name+" ") {
					t.Errorf("%s (trace %v) does not print %s", w.name, traced, d.Name)
				}
			}
			for got := range out.metrics {
				if !known[got] {
					t.Errorf("%s (trace %v) measures %s, which BENCHMARK.json does not name", w.name, traced, got)
				}
			}
			if !traced {
				for _, d := range endToEnd {
					if _, ok := out.metrics[d.Name]; !ok {
						t.Errorf("%s: end-to-end metric %s was not measured", w.name, d.Name)
					}
				}
			}
		}
	}
}

// TestLadderSums holds the traced run to its construction: on every
// packet workload the four rungs sum to rt.run_ns_per_pkt.
func TestLadderSums(t *testing.T) {
	for _, w := range workloads[:4] { // the packet workloads
		out := smokeRun(t, w, 1, true)
		m := out.metrics
		sum := m["traffic.next_ns"] + m["sim.replay_ns_per_pkt"] + m["model.step_ns_per_pkt"] + m["ladder.residual_ns_per_pkt"]
		if run := m["rt.run_ns_per_pkt"]; run <= 0 || sum < run*0.999999 || sum > run*1.000001 {
			t.Errorf("%s: rungs sum to %v, rt.run_ns_per_pkt is %v", w.name, sum, run)
		}
		if out.failed != 0 {
			t.Errorf("%s: %d failed operations (a replay diverged from its captured run)", w.name, out.failed)
		}
	}
}

// retired lists what ROADMAP schedules for deletion. The benchmark must
// keep compiling after a change removes them, because a change that
// claims a gain may not edit the benchmark.
var retired = []string{
	"SetScanLookups", "SetDirMemo", "SetWakeupStamps",
	"StepInterpreted", "PrefetchCurrentInterpreted", "ResidentCurrentInterpreted",
	"Scheduler", "SchedulerWakeup", "SchedulerRR",
}

// TestAPISurfaceGuard parses the benchmark's own sources and fails if
// any identifier names something on the deletion list.
func TestAPISurfaceGuard(t *testing.T) {
	banned := map[string]bool{}
	for _, name := range retired {
		banned[name] = true
	}
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && banned[id.Name] {
					t.Errorf("%s: references %s, which ROADMAP schedules for deletion", fset.Position(id.Pos()), id.Name)
				}
				return true
			})
		}
	}
}
