// Command gunfu-bench regenerates the paper's evaluation: one
// experiment per figure (fig2, fig3, fig9–fig15) plus the ablation
// studies, printed as text tables.
//
// Usage:
//
//	gunfu-bench -exp all            # every figure, full populations
//	gunfu-bench -exp fig11,fig13    # selected figures
//	gunfu-bench -exp fig10 -quick   # reduced populations for a fast run
//	gunfu-bench -exp all -parallel 8  # figures + sweep points on 8 workers
//
// Profile mode observes a single NF run instead of regenerating
// figures. -trace writes a Chrome trace-event JSON (load it in
// ui.perfetto.dev: one track per interleaved NFTask slot, stalls
// nested in action slices, prefetch fills on their own tracks); -attr
// prints per-NFAction / per-NFState attribution tables and per-packet
// latency quantiles. Warmup runs untraced; only the measured window is
// observed. The profile flags (-nf, -flows, -packets, -warmup,
// -packet-bytes, -tasks, -sfc-length, -pdrs) need -trace or -attr:
// given without either, gunfu-bench prints its usage and exits 2.
//
//	gunfu-bench -trace trace.json -nf nat -flows 32768 -tasks 16
//	gunfu-bench -attr -nf sfc -sfc-length 4 -flows 8192 -tasks 16
//
// -cpuprofile/-memprofile write host pprof profiles (go tool pprof).
// In profile mode the CPU profile covers only the measured window —
// warmup is excluded, matching the trace; in figure mode it covers the
// whole run. The heap profile is written after the run either way.
//
//	gunfu-bench -attr -nf nat -warmup 20000 -packets 200000 \
//	    -cpuprofile cpu.pprof -memprofile mem.pprof
//
// Tables are byte-identical for any -parallel value (fig9, which
// measures host wall-clock time, aside): sweep points are share-nothing
// simulations, rows are emitted in sweep order, and figures render into
// buffers flushed in selection order — parallelism only changes host
// wall-clock time. Progress and timing lines go to stderr; stdout
// carries only the experiment headers and tables.
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	gunfu "github.com/gunfu-nfv/gunfu"
	"github.com/gunfu-nfv/gunfu/internal/deploy"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// profileFlags are the flags only profile mode (-trace or -attr) reads.
var profileFlags = []string{"nf", "flows", "packets", "warmup", "packet-bytes", "tasks", "sfc-length", "pdrs"}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("gunfu-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	expFlag := fs.String("exp", "all", "comma-separated experiment ids, or \"all\"")
	quick := fs.Bool("quick", false, "reduced populations and windows")
	seed := fs.Int64("seed", 42, "workload seed")
	parallel := fs.Int("parallel", 1, "concurrent experiments, and concurrent sweep points per experiment (<=1 = sequential)")
	list := fs.Bool("list", false, "list experiment ids and exit")

	// Profile mode.
	tracePath := fs.String("trace", "", "write a Chrome trace-event JSON of one observed run to this path")
	attr := fs.Bool("attr", false, "print per-NFAction/per-NFState attribution and latency quantiles for one observed run")
	nfName := fs.String("nf", "nat", "profile mode: NF to run (a deployable registry name)")
	flows := fs.Int("flows", 32768, "profile mode: concurrent flow population")
	packets := fs.Uint64("packets", 20000, "profile mode: measured window (packets)")
	warmup := fs.Uint64("warmup", 5000, "profile mode: untraced warmup packets")
	packetBytes := fs.Int("packet-bytes", 64, "profile mode: workload packet size")
	tasks := fs.Int("tasks", 16, "profile mode: max interleaved NFTasks (0 = RTC baseline)")
	sfcLength := fs.Int("sfc-length", 0, "profile mode: chain length for -nf sfc")
	pdrs := fs.Int("pdrs", 0, "profile mode: rules per session for -nf upf-downlink")

	// Host profiling (both modes). In profile mode the CPU profile covers
	// only the measured window — warmup is excluded, like the trace; in
	// figure mode it covers the whole experiment run.
	cpuProfile := fs.String("cpuprofile", "", "write a pprof CPU profile to this path")
	memProfile := fs.String("memprofile", "", "write a pprof heap profile to this path after the run")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	// A profile flag without -trace or -attr would otherwise be ignored
	// by a full figure run.
	if *tracePath == "" && !*attr {
		var stray []string
		fs.Visit(func(f *flag.Flag) {
			if slices.Contains(profileFlags, f.Name) {
				stray = append(stray, "-"+f.Name)
			}
		})
		if len(stray) > 0 {
			fmt.Fprintf(stderr, "gunfu-bench: %s select profile mode, which needs -trace or -attr\n", strings.Join(stray, " "))
			fs.Usage()
			return 2
		}
	}

	if *tracePath != "" || *attr {
		p := profileSpec{
			tracePath:  *tracePath,
			attr:       *attr,
			cpuProfile: *cpuProfile,
			memProfile: *memProfile,
			spec: deploy.Spec{
				NF: *nfName, Flows: *flows, Packets: *packets, Warmup: *warmup,
				PacketBytes: *packetBytes, Tasks: *tasks, Seed: *seed,
				SFCLength: *sfcLength, PDRs: *pdrs,
			},
		}
		if err := profile(p, stdout); err != nil {
			fmt.Fprintf(stderr, "gunfu-bench: %v\n", err)
			return 1
		}
		return 0
	}

	if *list {
		for _, n := range gunfu.ExperimentNames() {
			fmt.Fprintln(stdout, n)
		}
		return 0
	}

	var names []string
	if *expFlag == "all" {
		names = gunfu.ExperimentNames()
	} else {
		for _, n := range strings.Split(*expFlag, ",") {
			if n = strings.TrimSpace(n); n != "" {
				names = append(names, n)
			}
		}
	}
	if len(names) == 0 {
		fmt.Fprintln(stderr, "gunfu-bench: no experiments selected")
		return 2
	}

	// Figure mode profiles wrap the whole run (there is no warmup to
	// exclude — every sweep point is the workload).
	stopCPU, err := startCPUProfile(*cpuProfile)
	if err != nil {
		fmt.Fprintf(stderr, "gunfu-bench: %v\n", err)
		return 1
	}
	finishProfiles := func() int {
		if err := stopCPU(); err != nil {
			fmt.Fprintf(stderr, "gunfu-bench: %v\n", err)
			return 1
		}
		if err := writeHeapProfile(*memProfile); err != nil {
			fmt.Fprintf(stderr, "gunfu-bench: %v\n", err)
			return 1
		}
		return 0
	}

	// Figures run on max(-parallel, 1) workers that take them in
	// selection order, each figure fanning its sweep points out over up
	// to -parallel workers of its own. Every figure renders into its own
	// buffer, flushed to stdout in selection order once it and every
	// figure before it are done, so at -parallel 1 stdout streams figure
	// by figure, and for any -parallel value it carries the same bytes
	// (fig9's host-time rows aside).
	bufs := make([]bytes.Buffer, len(names))
	errs := make([]error, len(names))
	done := make([]chan struct{}, len(names))
	for i := range done {
		done[i] = make(chan struct{})
	}
	// After a failure no worker takes another figure; every figure
	// before the failed one was taken earlier and still completes.
	var next atomic.Int64
	var failed atomic.Bool
	var wg sync.WaitGroup
	for range min(max(*parallel, 1), len(names)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(names) && !failed.Load(); i = int(next.Add(1)) - 1 {
				start := time.Now()
				fmt.Fprintf(&bufs[i], "== %s ==\n", names[i])
				opts := gunfu.ExpOptions{Quick: *quick, Seed: *seed, Out: &bufs[i], Parallel: *parallel}
				if _, errs[i] = gunfu.RunExperiment(names[i], opts); errs[i] != nil {
					failed.Store(true)
				} else {
					fmt.Fprintln(&bufs[i])
					fmt.Fprintf(stderr, "gunfu-bench: %s completed in %.1fs\n", names[i], time.Since(start).Seconds())
				}
				close(done[i])
			}
		}()
	}
	for i := range names {
		<-done[i]
		if errs[i] != nil {
			fmt.Fprintf(stderr, "gunfu-bench: %v\n", errs[i])
			wg.Wait()
			return 1
		}
		stdout.Write(bufs[i].Bytes())
	}
	wg.Wait()
	return finishProfiles()
}
