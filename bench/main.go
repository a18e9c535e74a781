// Command bench is the repo's benchmark: six closed-loop workloads
// driven from a seed, end-to-end metrics from an untraced run and a
// per-layer ladder from a separate traced run. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime/pprof"
	"strconv"
	"strings"
)

// runOpts are the arguments of one workload run.
type runOpts struct {
	seed    int64
	seconds float64
	trace   bool
	// smoke shrinks populations and windows so the whole suite runs in
	// seconds; its numbers mean nothing, only its determinism does.
	smoke bool
	// outDir receives the span files of a traced run.
	outDir string
	// log receives the human-readable tables.
	log io.Writer
}

// ops is the fixed number of operations (windows, passes, deploys) a
// phase measures: what --seconds allow at the perSecond the sandbox the
// sizes were taken on completes. The count depends on the arguments
// only, never on how fast this host happens to be, so the fastest of
// them is the same order statistic on every run and the simulated
// metrics repeat to the last digit for a seed. A traced run measures a
// quarter of them.
func (o runOpts) ops(perSecond float64) int {
	n := perSecond * o.seconds
	if o.trace {
		n /= 4
	}
	return max(int(n), 2)
}

// setupAgain reports whether a run that has set its workload up done
// times, spending spent seconds on it, sets it up once more. setup_s is
// the median of the set-ups: at least five, and for a cheap set-up as
// many more (up to fifteen) as fit in a second, because a 20 ms set-up
// is the noisiest number the benchmark reports. The first two set-ups
// of a packet workload lend their state to the output check and the
// last is the one measured, so a smoke run makes three.
func (o runOpts) setupAgain(done int, spent float64) bool {
	if o.smoke {
		return done < 3
	}
	return done < 5 || (spent < 1 && done < 15)
}

// outcome is what one workload run produced.
type outcome struct {
	attempted, failed uint64
	metrics           metricValues
	// info records sample counts and sizes for results/baseline.json.
	info map[string]any
}

func newOutcome() *outcome {
	return &outcome{metrics: metricValues{}, info: map[string]any{}}
}

// workload is one named set of inputs the benchmark runs.
type workload struct {
	name string
	why  string
	run  func(o runOpts) (*outcome, error)
}

var workloads = []workload{
	{
		name: "nat_miss",
		why:  "NAT over 131072 uniform flows: per-flow state far exceeds the simulated LLC, so sim's miss path dominates host time",
		run: (&packetSpec{
			name: "nat_miss", cores: 1, window: 50_000, warmup: 50_000, sample: 32_768,
			natRewrite: true, build: buildNAT(131_072, 64),
		}).runWorkload,
	},
	{
		name: "nat_hit",
		why:  "same NAT code over 256 flows: state sits in simulated L1/L2, so rt loop, model.Step and traffic dominate; bypasses sim's miss path",
		run: (&packetSpec{
			name: "nat_hit", cores: 1, window: 150_000, warmup: 50_000, sample: 65_536,
			natRewrite: true, build: buildNAT(256, 64),
		}).runWorkload,
	},
	{
		name: "upf_mgw",
		why:  "UPF downlink, 32768 sessions x 16 PDRs: long dependent MDI-tree walks, so plan execution and pointer-chasing prefetch dominate",
		run: (&packetSpec{
			name: "upf_mgw", cores: 1, window: 10_000, warmup: 20_000, sample: 8_192,
			build: buildUPF(32_768, 16, 64),
		}).runWorkload,
	},
	{
		name: "sfc6_engine2",
		why:  "2-core rt.Engine, six-NF chain compiled with MR+PRR, 512 B frames: the only goroutine fan-out and compile-produced chain programs",
		run: (&packetSpec{
			name: "sfc6_engine2", cores: 2, window: 40_000, warmup: 20_000, sample: 8_192,
			natRewrite: true, build: buildSFC(6, 16_384, 512),
		}).runWorkload,
	},
	{
		name: "fig_sweep",
		why:  "fig10+fig11+fig13 at Quick populations via gunfu.RunExperiment; profiled 89% short cold-cache rt/rtc runs, 9% NF construction, 2% core reset: the only place construction, reset and exp count",
		run:  runSweep,
	},
	{
		name: "cluster_deploy",
		why:  "director + 2 agents over loopback TCP: deploy round-trips and telemetry-on deploys, the only path with a tracer attached in production",
		run:  runCluster,
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// contractLine is the last line of standard output in a contract run.
type contractLine struct {
	Correct   bool               `json:"correct"`
	Attempted uint64             `json:"attempted"`
	Failed    uint64             `json:"failed"`
	Metrics   map[string]reading `json:"metrics"`
}

// runContract performs one `--workload W --seed N --seconds S --trace T`
// run and prints its result as one JSON object on the last line.
func runContract(name string, o runOpts) error {
	w := findWorkload(name)
	if w == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	out, err := w.run(o)
	if err != nil {
		return err
	}
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	printMetrics(o.log, w.name, out, defs)
	line := contractLine{
		Correct:   out.failed == 0 && out.attempted > 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   out.metrics.fill(defs),
	}
	// Every workload reports every end-to-end metric. A metric that reads
	// 0 was still measured (stall cycles per packet is the number the
	// paper drives to zero); one the run never wrote was not.
	if !o.trace {
		for _, d := range endToEnd {
			if _, ok := out.metrics[d.Name]; !ok {
				return fmt.Errorf("%s: end-to-end metric %s was not measured", w.name, d.Name)
			}
		}
	}
	info, err := json.Marshal(out.info)
	if err != nil {
		return err
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(infoPrefix + string(info))
	fmt.Println(string(b))
	if !line.Correct {
		return fmt.Errorf("%s: %d of %d operations failed", w.name, out.failed, out.attempted)
	}
	return nil
}

// printMetrics prints every metric of defs by name with its unit.
func printMetrics(w io.Writer, workload string, out *outcome, defs []metricDef) {
	fmt.Fprintf(w, "== %s (attempted %d, failed %d)\n", workload, out.attempted, out.failed)
	for _, d := range defs {
		fmt.Fprintf(w, "  %-36s %16s %s\n", d.Name, strconv.FormatFloat(out.metrics[d.Name], 'g', 8, 64), d.Unit)
	}
}

func main() {
	var (
		name     = flag.String("workload", "", "run one workload and print the contract's JSON line (default: run all six)")
		seed     = flag.Int64("seed", 1, "workload seed; reaches only the generators")
		seconds  = flag.Float64("seconds", runSeconds, "how long each workload measures")
		trace    = flag.String("trace", "0", "0 measures the end-to-end set untraced; 1 runs the traced per-layer ladder instead")
		smoke    = flag.Bool("smoke", false, "tiny populations and windows, for the smoke test")
		outDir   = flag.String("out", "bench/out", "directory for the span files of a traced run")
		aa       = flag.Int("aa", 0, "run two interleaved sets of N runs per workload and report their agreement")
		baseline = flag.String("baseline", "", "run all workloads, untraced and traced, and write the trajectory point to this file")
		commit   = flag.String("commit", "", "commit id to record in -baseline and -aa output")
		manifest = flag.String("write-manifest", "", "write BENCHMARK.json to this path and exit")
		cpuprof  = flag.String("cpuprofile", "", "write a CPU profile of this process to this file")
	)
	flag.Parse()
	if *cpuprof != "" {
		f, err := os.Create(*cpuprof)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}
	traced, err := strconv.ParseBool(*trace)
	if err != nil {
		fatal(fmt.Errorf("-trace: %w", err))
	}
	o := runOpts{seed: *seed, seconds: *seconds, trace: traced, smoke: *smoke, outDir: *outDir, log: os.Stderr}
	switch {
	case *manifest != "":
		err = writeManifest(*manifest)
	case *aa > 0:
		err = runAA(*aa, o, *commit)
	case *baseline != "":
		err = writeBaseline(*baseline, o, *commit)
	case *name != "":
		err = runContract(*name, o)
	default:
		o.log = os.Stdout
		err = runAll(o)
	}
	if err != nil {
		fatal(err)
	}
}

// runAll runs the six workloads once, each in a process of its own so
// peak memory is the workload's own, and prints their tables: the
// end-to-end set, or with -trace 1 the per-layer ladder.
func runAll(o runOpts) error {
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	var bad []string
	for _, w := range workloads {
		line, _, err := selfRun(w.name, o)
		if err != nil {
			return err
		}
		out := &outcome{attempted: line.Attempted, failed: line.Failed, metrics: line.values()}
		printMetrics(o.log, w.name, out, defs)
		if out.metrics["rt.run_ns_per_pkt"] > 0 {
			printLadder(o, w.name, out.metrics)
		}
		fmt.Fprintf(o.log, "  %-36s %16g ratio\n", "fail_ratio", ratio(float64(out.failed), float64(out.attempted)))
		if out.failed > 0 {
			bad = append(bad, w.name)
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("fail_ratio > 0 on %s", strings.Join(bad, ", "))
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}
