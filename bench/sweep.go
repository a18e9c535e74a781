package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"github.com/gunfu-nfv/gunfu"
	"github.com/gunfu-nfv/gunfu/internal/sim"
)

// passesPerSecond is how many Quick passes of the three figures the
// sandbox the benchmark was sized on regenerates in a second.
const passesPerSecond = 1.2

// sweepFigures are the figures one pass regenerates, in order.
var sweepFigures = []string{"fig10", "fig11", "fig13"}

// sweepShape is what a figure must render at Quick populations: its
// table row counts, and whether its first table must show 16
// interleaved NFTasks beating run-to-completion (the paper's claim).
var sweepShape = map[string]struct {
	rows      []int
	il16Beats bool
}{
	"fig10": {rows: []int{8, 3}, il16Beats: true},
	"fig11": {rows: []int{8}, il16Beats: true},
	"fig13": {rows: []int{3, 3}},
}

// sweepCounter is a tracer that tallies the simulated side of a pass.
// It is attached only on the untimed counting pass: a tracer reroutes
// execution to the interpreted executor, whose simulated results are
// bit-identical but whose host time is not what users wait for.
//
// What it tallies is a checksum of the sweep, not a rate. RunExperiment
// returns tables, not results, so the counter sees only the event
// stream of every core the pass creates, one run after another: packets
// include each run's warm-up, and a run's cycles are read off its last
// event (the clock going back marks the next run's reset core), which
// drops whatever the run did after it. For one seed the three sim_*
// numbers repeat to the last digit and any change to what a sweep point
// simulates moves them; they are not the Gbit/s of any figure.
type sweepCounter struct {
	simTotals
	last uint64
}

func (c *sweepCounter) Event(ev gunfu.TraceEvent) {
	if ev.Cycle < c.last {
		// The clock went back: a sweep point ended and its core was
		// reset for the next one.
		c.cycles += c.last
	}
	c.last = ev.Cycle
	switch ev.Kind {
	case sim.TraceStreamDone:
		c.packets++
		c.bits += float64(ev.B)
	case sim.TraceStall:
		c.ctr.StallCycles += ev.A
	}
}

// sweepPass regenerates the three figures once and returns each
// figure's wall time. Figures that error or render the wrong shape are
// counted in out.
func sweepPass(o runOpts, tracer gunfu.Tracer, sp *spans, out *outcome) (map[string]float64, error) {
	figs := sweepFigures
	if o.smoke {
		figs = []string{"fig11"} // the cheapest figure is enough to show determinism
	}
	walls := make(map[string]float64, len(figs))
	for _, fig := range figs {
		var buf bytes.Buffer
		var tables []*gunfu.ResultTable
		t0 := time.Now()
		err := sp.do("exp."+fig, func() (err error) {
			tables, err = gunfu.RunExperiment(fig, gunfu.ExpOptions{
				Quick: true, Seed: o.seed, Out: &buf, Parallel: 1, Tracer: tracer,
			})
			return err
		})
		walls[fig] = time.Since(t0).Seconds()
		out.attempted++
		if err != nil {
			return nil, err
		}
		if !sweepShapeOK(fig, tables, buf.Bytes()) {
			out.failed++
		}
	}
	return walls, nil
}

func sweepShapeOK(fig string, tables []*gunfu.ResultTable, rendered []byte) bool {
	want := sweepShape[fig]
	if len(tables) != len(want.rows) {
		return false
	}
	for i, t := range tables {
		if t.NumRows() != want.rows[i] || !bytes.Contains(rendered, []byte(t.Title)) {
			return false
		}
	}
	if !want.il16Beats {
		return true
	}
	t := tables[0]
	col, err := t.ColumnIndex("gbps")
	if err != nil {
		return false
	}
	gbps := map[string]float64{}
	for r := 0; r < t.NumRows(); r++ {
		name, _ := t.Cell(r, 0)
		if v, err := t.CellFloat(r, col); err == nil {
			gbps[name] = v
		}
	}
	return gbps["RTC"] > 0 && gbps["IL-16"] > gbps["RTC"]
}

// runSweep is the fig_sweep workload: what a researcher waits for when
// regenerating figures. Passes run at the figures' Quick populations,
// because a full-population pass takes 24 s, more than a run may
// measure. A CPU profile of the measured Quick passes (--cpuprofile,
// README.md "fig_sweep, profiled") reads 72 % rt.Worker.Run and 17 %
// rtc.Worker.Run over short cold-cache runs, 9 % NF construction
// (upf.New alone 5 %) and 2 % core reset (residencyDir.clear). A full
// pass spends 10 % in core reset, so a reset change shows here at a
// fifth of its full-population weight; sim.pool_reset_ms prices it
// directly.
func runSweep(o runOpts) (*outcome, error) {
	sp := newSpans(fmt.Sprintf("fig_sweep-seed%d", o.seed))
	out := newOutcome()
	m := out.metrics
	root := sp.begin("workload")

	// Set-up is a warm-up pass: it grows the heap and faults in the
	// pages every later pass reuses.
	var setups []float64
	var spent float64
	for i := 0; o.setupAgain(i, spent); i++ {
		t0 := time.Now()
		if err := sp.do("setup", func() error {
			_, err := sweepPass(o, nil, sp, out)
			return err
		}); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		spent += setups[i]
	}
	m["mem.live_heap_mb"] = liveHeapMB()

	// Counting pass: same seed, same tables, tracer attached.
	counter := &sweepCounter{}
	if err := sp.do("count", func() error {
		_, err := sweepPass(o, counter, sp, out)
		return err
	}); err != nil {
		return nil, err
	}
	counter.cycles += counter.last
	counter.endToEnd(m, gunfu.DefaultSimConfig().FreqHz)

	// A fixed number of passes: the sandbox regenerates about 1.2 a second.
	n := max(o.ops(passesPerSecond), 3)
	if o.smoke {
		n = 1
	}
	var passes []float64
	perFig := map[string][]float64{}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	measure := sp.begin("measure")
	for i := 0; i < n; i++ {
		id := sp.begin("exp.pass")
		t0 := time.Now()
		walls, err := sweepPass(o, nil, sp, out)
		passes = append(passes, time.Since(t0).Seconds())
		sp.finish(id)
		if err != nil {
			return nil, err
		}
		for fig, w := range walls {
			perFig[fig] = append(perFig[fig], w)
		}
	}
	sp.finish(measure)
	runtime.ReadMemStats(&ms1)
	sp.finish(root)

	// The steady estimate of a pass is each figure's fastest
	// regeneration, summed: interference only ever slows a figure.
	var best float64
	for _, w := range perFig {
		best += minOf(w)
	}
	m["host_pps"] = float64(counter.packets) / best
	m["setup_s"] = median(setups)
	m["peak_rss_mb"] = peakRSSMB()
	m["exp.fig10_wall_s"] = median(perFig["fig10"])
	m["exp.fig11_wall_s"] = median(perFig["fig11"])
	m["exp.fig13_wall_s"] = median(perFig["fig13"])
	m["exp.alloc_mb_per_pass"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20) / float64(len(passes))
	m["bench.fail_ratio"] = ratio(float64(out.failed), float64(out.attempted))
	out.info["passes"] = len(passes)
	out.info["pass_s"] = spreadOf(passes)
	out.info["pass_pkts"] = counter.packets
	out.info["setup_samples"] = len(setups)
	if o.trace {
		return out, sp.flush(o, out)
	}
	return out, nil
}
