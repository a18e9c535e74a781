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
// observed.
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
// Tables are byte-identical for any -parallel value: sweep points are
// share-nothing simulations, rows are emitted in sweep order, and
// concurrently-run figures render into buffers flushed in selection
// order — parallelism only changes host wall-clock time. Progress and
// timing lines go to stderr; stdout carries only the experiment
// headers and tables.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"strings"
	"sync"
	"time"

	gunfu "github.com/gunfu-nfv/gunfu"
	"github.com/gunfu-nfv/gunfu/internal/deploy"
)

func main() {
	os.Exit(run())
}

func run() int {
	expFlag := flag.String("exp", "all", "comma-separated experiment ids, or \"all\"")
	quick := flag.Bool("quick", false, "reduced populations and windows")
	seed := flag.Int64("seed", 42, "workload seed")
	parallel := flag.Int("parallel", 1, "concurrent sweep points per experiment (<=1 = sequential)")
	list := flag.Bool("list", false, "list experiment ids and exit")

	// Profile mode.
	tracePath := flag.String("trace", "", "write a Chrome trace-event JSON of one observed run to this path")
	attr := flag.Bool("attr", false, "print per-NFAction/per-NFState attribution and latency quantiles for one observed run")
	nfName := flag.String("nf", "nat", "profile mode: NF to run (a deployable registry name)")
	flows := flag.Int("flows", 32768, "profile mode: concurrent flow population")
	packets := flag.Uint64("packets", 20000, "profile mode: measured window (packets)")
	warmup := flag.Uint64("warmup", 5000, "profile mode: untraced warmup packets")
	packetBytes := flag.Int("packet-bytes", 64, "profile mode: workload packet size")
	tasks := flag.Int("tasks", 16, "profile mode: max interleaved NFTasks (0 = RTC baseline)")
	sfcLength := flag.Int("sfc-length", 0, "profile mode: chain length for -nf sfc")
	pdrs := flag.Int("pdrs", 0, "profile mode: rules per session for -nf upf-downlink")

	// Host profiling (both modes). In profile mode the CPU profile covers
	// only the measured window — warmup is excluded, like the trace; in
	// figure mode it covers the whole experiment run.
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile to this path")
	memProfile := flag.String("memprofile", "", "write a pprof heap profile to this path after the run")
	flag.Parse()

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
		if err := profile(p, os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "gunfu-bench: %v\n", err)
			return 1
		}
		return 0
	}

	if *list {
		for _, n := range gunfu.ExperimentNames() {
			fmt.Println(n)
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
		fmt.Fprintln(os.Stderr, "gunfu-bench: no experiments selected")
		return 2
	}

	// Figure mode profiles wrap the whole run (there is no warmup to
	// exclude — every sweep point is the workload).
	stopCPU, err := startCPUProfile(*cpuProfile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "gunfu-bench: %v\n", err)
		return 1
	}
	finishProfiles := func() int {
		if err := stopCPU(); err != nil {
			fmt.Fprintf(os.Stderr, "gunfu-bench: %v\n", err)
			return 1
		}
		if err := writeHeapProfile(*memProfile); err != nil {
			fmt.Fprintf(os.Stderr, "gunfu-bench: %v\n", err)
			return 1
		}
		return 0
	}

	if *parallel <= 1 {
		opts := gunfu.ExpOptions{Quick: *quick, Seed: *seed, Out: os.Stdout}
		for _, name := range names {
			start := time.Now()
			fmt.Printf("== %s ==\n", name)
			if _, err := gunfu.RunExperiment(name, opts); err != nil {
				fmt.Fprintf(os.Stderr, "gunfu-bench: %v\n", err)
				return 1
			}
			fmt.Println()
			fmt.Fprintf(os.Stderr, "gunfu-bench: %s completed in %.1fs\n", name, time.Since(start).Seconds())
		}
		return finishProfiles()
	}

	// Parallel mode: figures run concurrently (each additionally fanning
	// its sweep points out over up to -parallel workers), rendering into
	// per-figure buffers that are flushed to stdout in selection order —
	// so stdout is byte-identical to the sequential run.
	bufs := make([]bytes.Buffer, len(names))
	errs := make([]error, len(names))
	done := make([]chan struct{}, len(names))
	for i := range done {
		done[i] = make(chan struct{})
	}
	sem := make(chan struct{}, *parallel)
	var wg sync.WaitGroup
	for i, name := range names {
		wg.Add(1)
		go func(i int, name string) {
			defer wg.Done()
			defer close(done[i])
			sem <- struct{}{}
			defer func() { <-sem }()
			start := time.Now()
			fmt.Fprintf(&bufs[i], "== %s ==\n", name)
			opts := gunfu.ExpOptions{Quick: *quick, Seed: *seed, Out: &bufs[i], Parallel: *parallel}
			if _, err := gunfu.RunExperiment(name, opts); err != nil {
				errs[i] = err
				return
			}
			fmt.Fprintln(&bufs[i])
			fmt.Fprintf(os.Stderr, "gunfu-bench: %s completed in %.1fs\n", name, time.Since(start).Seconds())
		}(i, name)
	}
	for i := range names {
		<-done[i]
		if errs[i] != nil {
			fmt.Fprintf(os.Stderr, "gunfu-bench: %v\n", errs[i])
			wg.Wait()
			return 1
		}
		os.Stdout.Write(bufs[i].Bytes())
	}
	wg.Wait()
	return finishProfiles()
}
