package main

import (
	"fmt"
	"runtime"
	"time"

	"github.com/gunfu-nfv/gunfu"
	"github.com/gunfu-nfv/gunfu/internal/sim"
)

// timedSource is the Source a traced run hands to the worker. It times
// every sampleEvery-th Next call inline, so traffic generation shows up
// as its own rung of the ladder at a few nanoseconds of overhead per
// packet. The stride is odd so samples walk across burst positions.
type timedSource struct {
	src     gunfu.Source
	left    int
	calls   uint64
	sampled uint64
	ns      time.Duration
}

const sampleEvery = 17

func (t *timedSource) Next() *gunfu.Packet {
	t.calls++
	if t.left--; t.left > 0 {
		return t.src.Next()
	}
	t.left = sampleEvery
	t0 := time.Now()
	p := t.src.Next()
	t.ns += time.Since(t0)
	t.sampled++
	return p
}

// take returns the estimated nanoseconds spent in Next since the last
// take, net of the clock reads themselves, and the calls it covers.
func (t *timedSource) take(clockCost time.Duration) (float64, uint64) {
	calls := t.calls
	var est float64
	if t.sampled > 0 {
		per := float64(t.ns-clockCost*time.Duration(t.sampled)) / float64(t.sampled)
		if per < 0 {
			per = 0
		}
		est = per * float64(calls)
	}
	t.calls, t.sampled, t.ns = 0, 0, 0
	return est, calls
}

// clockReadCost is the cost of one time.Now/time.Since pair, taken as
// the minimum of many so a preemption cannot inflate it.
func clockReadCost() time.Duration {
	best := time.Hour
	for i := 0; i < 2000; i++ {
		t0 := time.Now()
		if d := time.Since(t0); d < best {
			best = d
		}
	}
	return best
}

// runTraced is the per-layer run: the workload at a quarter of the
// windows with harness spans around every public call, then each layer
// replayed in isolation. No sim.Tracer is attached where time is
// measured: attaching one changes the executor being measured.
func (spec *packetSpec) runTraced(o runOpts) (*outcome, error) {
	sp := newSpans(fmt.Sprintf("%s-seed%d", spec.name, o.seed))
	out := newOutcome()
	m := out.metrics
	root := sp.begin("workload")

	r, err := spec.setup(o.seed, sp, o.smoke)
	if err != nil {
		return nil, err
	}
	setup := sp.dur("setup")
	m["nf.build_s"] = sp.dur("nf.build").Seconds()
	m["compile.build_ms"] = 1000 * sp.dur("compile.build").Seconds()
	m["mem.live_heap_mb"] = r.liveHeap
	for _, inst := range r.insts {
		m["mem.sim_bytes_mb"] += float64(inst.as.Used()) / (1 << 20)
	}

	// Measured phase: windows alternate between the bare generators and
	// the timing wrappers, so the wrappers' own cost is visible as
	// bench.trace_overhead_ratio rather than hidden in the ladder.
	window := spec.window
	if o.smoke {
		window /= 10
	}
	bare := r.srcs
	timed := make([]*timedSource, len(bare))
	wrapped := make([]gunfu.Source, len(bare))
	for i, s := range bare {
		timed[i] = &timedSource{src: s}
		wrapped[i] = timed[i]
	}
	clockCost := clockReadCost()
	perCore := float64(window) / float64(spec.cores)
	var runNs, bareNs []float64
	var nextNs float64
	var nextCalls uint64
	var simT simTotals
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	measure := sp.begin("measure")
	for i, n := 0, max(o.ops(windowsPerSecond), 4); i < n; i++ {
		traced := i%2 == 0
		r.srcs = bare
		if traced {
			r.srcs = wrapped
		}
		id := sp.begin("rt.run")
		t0 := time.Now()
		res, err := r.run(window)
		wall := time.Since(t0)
		if traced {
			for _, t := range timed {
				d, calls := t.take(clockCost)
				// Cores run side by side, so the window's traffic span is
				// the per-core mean, not the sum.
				sp.child("traffic.next", time.Duration(d/float64(spec.cores)))
				nextNs += d
				nextCalls += calls
			}
		}
		sp.finish(id)
		if err != nil {
			return nil, fmt.Errorf("%s: traced window %d: %w", spec.name, i, err)
		}
		out.attempted += window
		out.failed += window - res.Packets
		simT.add(res)
		ns := float64(wall.Nanoseconds()) / perCore
		if traced {
			runNs = append(runNs, ns)
		} else {
			bareNs = append(bareNs, ns)
		}
	}
	sp.finish(measure)
	runtime.ReadMemStats(&ms1)
	r.srcs = bare
	simT.perLayer(m)
	m["rt.run_ns_per_pkt"] = median(runNs)
	m["rt.window_ns_per_pkt_p90"] = quantile(runNs, 0.9)
	m["rt.window_ns_per_pkt_min"] = minOf(runNs)
	m["rt.allocs_per_pkt"] = ratio(float64(ms1.Mallocs-ms0.Mallocs), float64(simT.packets))
	m["bench.trace_overhead_ratio"] = ratio(median(runNs), median(bareNs))
	m["traffic.next_ns"] = ratio(nextNs, float64(nextCalls))

	if spec.cores > 1 {
		if err := sp.do("rt.engine1", func() error {
			one, err := r.newEngine(1)
			if err != nil {
				return err
			}
			per := window / uint64(spec.cores)
			var ns []float64
			for i := 0; i < 4; i++ {
				t0 := time.Now()
				if _, err := one.Run(per); err != nil {
					return err
				}
				if i > 0 { // the first run builds the pool's core
					ns = append(ns, float64(time.Since(t0).Nanoseconds())/float64(per))
				}
			}
			// Both sides are per-core time per packet, so perfect
			// scaling reads as the core count.
			m["rt.engine_scale_ratio"] = float64(spec.cores) * ratio(median(ns), median(bareNs))
			return nil
		}); err != nil {
			return nil, err
		}
	}

	// Isolated replays, all over core 0's instance.
	inst := r.insts[0]
	sample, warm := spec.sample, spec.warmup
	if o.smoke {
		sample /= 8
		warm /= 8
	}
	if err := probeTraffic(sp, inst, m); err != nil {
		return nil, err
	}
	if err := probePkt(sp, inst, spec.natRewrite, m); err != nil {
		return nil, err
	}
	if err := probeDstruct(sp, inst, m); err != nil {
		return nil, err
	}
	// Like the replays, the baseline run is a median of several: a
	// single sample is a few tens of milliseconds, and one preemption in
	// it would land in model.step and, negated, in the residual.
	var rtcRuns []float64
	for i := 0; i < replayRepeats; i++ {
		ns, err := probeRun(sp, "rtc.run", inst, true, nil, warm, sample)
		if err != nil {
			return nil, err
		}
		rtcRuns = append(rtcRuns, ns)
	}
	rtcNs := median(rtcRuns)
	m["rtc.run_ns_per_pkt"] = rtcNs
	rtStream, err := probeReplay(sp, "sim.replay", inst, false, warm, sample, out)
	if err != nil {
		return nil, err
	}
	rtcStream, err := probeReplay(sp, "sim.replay.rtc", inst, true, warm, sample, out)
	if err != nil {
		return nil, err
	}
	m["sim.replay_ns_per_pkt"] = rtStream.nsPerPkt
	m["sim.replay_ns_per_op"] = rtStream.nsPerOp
	m["sim.replay_l1_hit_ratio"] = rtStream.l1HitRatio
	m["sim.newcore_ms"] = rtStream.newCoreMs
	m["sim.pool_reset_ms"] = rtStream.poolResetMs
	out.info["replay_ops"] = rtStream.ops
	out.info["replay_l1_hit_ratio_captured"] = rtStream.capturedL1
	// model.Step is what run-to-completion does besides generating
	// traffic and charging the simulator. It is an estimate: the three
	// terms come from three separate runs.
	m["model.step_ns_per_pkt"] = rtcNs - m["traffic.next_ns"] - rtcStream.nsPerPkt
	m["ladder.residual_ns_per_pkt"] = m["rt.run_ns_per_pkt"] - m["traffic.next_ns"] -
		m["sim.replay_ns_per_pkt"] - m["model.step_ns_per_pkt"]

	if err := probeObs(sp, inst, warm, sample, m); err != nil {
		return nil, err
	}
	sp.finish(root)

	m["bench.fail_ratio"] = ratio(float64(out.failed), float64(out.attempted))
	out.info["setup_s"] = setup.Seconds()
	out.info["windows"] = len(runNs) + len(bareNs)
	out.info["sample_pkts"] = sample
	printLadder(o, spec.name, m)
	return out, sp.flush(o, out)
}

// printLadder prints the rungs that by construction sum to
// rt.run_ns_per_pkt, residual row included.
func printLadder(o runOpts, name string, m metricValues) {
	fmt.Fprintf(o.log, "-- %s ladder (ns per packet)\n", name)
	for _, k := range []string{"traffic.next_ns", "sim.replay_ns_per_pkt", "model.step_ns_per_pkt", "ladder.residual_ns_per_pkt", "rt.run_ns_per_pkt"} {
		fmt.Fprintf(o.log, "  %-30s %10.1f  %5.1f%%\n", k, m[k], 100*ratio(m[k], m["rt.run_ns_per_pkt"]))
	}
}

// probeRun times sample packets through a fresh worker on a fresh core
// after warm packets of warm-up, with tracer (if any) attached to the
// core, and returns nanoseconds per packet.
func probeRun(sp *spans, name string, inst *instance, rtc bool, tracer gunfu.Tracer, warm, sample uint64) (float64, error) {
	src, err := inst.regen()
	if err != nil {
		return 0, err
	}
	core, err := gunfu.NewCore(gunfu.DefaultSimConfig())
	if err != nil {
		return 0, err
	}
	if tracer != nil {
		core.SetTracer(tracer)
	}
	w, err := newRunner(core, inst, rtc)
	if err != nil {
		return 0, err
	}
	if _, err := w.Run(src, warm); err != nil {
		return 0, err
	}
	var ns float64
	err = sp.do(name, func() error {
		t0 := time.Now()
		res, err := w.Run(src, sample)
		ns = float64(time.Since(t0).Nanoseconds()) / float64(sample)
		if err == nil && res.Packets != sample {
			err = fmt.Errorf("%s: ran %d of %d packets", name, res.Packets, sample)
		}
		return err
	})
	return ns, err
}

// The op kinds of a captured stream.
const (
	opRead = iota + 1
	opWrite
	opPrefetch
	opRx
)

// simOp is one operation a worker issued to its simulated core: a
// charged memory operation from the access log, or the receive of one
// packet (DMA fill of its header lines plus the rx cost).
type simOp struct {
	addr, size, cycle uint64
	kind              uint8
}

// capture records the op stream of a run. It is both the Source the
// worker pulls from, which places an rx marker in the stream at every
// Next, and the core's access log.
type capture struct {
	core *gunfu.Core
	src  gunfu.Source
	ops  []simOp
	// pending is the packet handed out last: the worker assigns its
	// buffer address only after Next returns, so the marker's address is
	// filled in at the next event.
	pending *gunfu.Packet
	at      int
}

func (c *capture) Next() *gunfu.Packet {
	c.resolve()
	p := c.src.Next()
	if p != nil {
		hdr := uint64(len(p.Data))
		if hdr > 128 {
			hdr = 128 // the worker fills at most the header lines
		}
		c.ops = append(c.ops, simOp{size: hdr, cycle: c.core.Now(), kind: opRx})
		c.pending, c.at = p, len(c.ops)-1
	}
	return p
}

func (c *capture) resolve() {
	if c.pending != nil {
		c.ops[c.at].addr = c.pending.Addr
		c.pending = nil
	}
}

func (c *capture) log(a sim.MemAccess) {
	c.resolve()
	op := simOp{addr: a.Addr, size: a.Size, cycle: a.Cycle}
	switch a.Kind {
	case sim.AccessRead:
		op.kind = opRead
	case sim.AccessWrite:
		op.kind = opWrite
	case sim.AccessPrefetch:
		op.kind = opPrefetch
	}
	c.ops = append(c.ops, op)
}

// replayOps drives core with ops, advancing its clock to each op's
// logged cycle first, so fills land and lines age as they did live.
func replayOps(core *gunfu.Core, ops []simOp, rxCost uint64) {
	for i := range ops {
		op := &ops[i]
		if now := core.Now(); op.cycle > now {
			core.Stall(op.cycle - now)
		}
		switch op.kind {
		case opRead:
			core.Read(op.addr, op.size)
		case opWrite:
			core.Write(op.addr, op.size)
		case opPrefetch:
			core.PrefetchLine(op.addr)
		case opRx:
			core.DMAFill(op.addr, op.size)
			core.Compute(rxCost)
		}
	}
}

// replayStats is what one capture-and-replay produced.
type replayStats struct {
	nsPerPkt, nsPerOp      float64
	l1HitRatio, capturedL1 float64
	newCoreMs, poolResetMs float64
	ops                    int
}

// replayRepeats is how many times a captured stream is replayed and the
// run-to-completion baseline is run; the reported times are medians.
const replayRepeats = 5

// probeReplay captures the op stream of warm+sample packets on an
// untimed run, then replays it through the core's public entry points
// on reset cores, timing only the sample part. The replay must repeat
// the captured run's demand and prefetch counts exactly; a mismatch is
// counted as a failed operation.
func probeReplay(sp *spans, name string, inst *instance, rtc bool, warm, sample uint64, out *outcome) (replayStats, error) {
	var st replayStats
	src, err := inst.regen()
	if err != nil {
		return st, err
	}
	cfg := gunfu.DefaultSimConfig()
	core, err := gunfu.NewCore(cfg)
	if err != nil {
		return st, err
	}
	w, err := newRunner(core, inst, rtc)
	if err != nil {
		return st, err
	}
	c := &capture{core: core, src: src}
	core.SetAccessLog(c.log)
	if _, err := w.Run(c, warm); err != nil {
		return st, err
	}
	c.resolve()
	mark := len(c.ops)
	want, err := w.Run(c, sample)
	if err != nil {
		return st, err
	}
	c.resolve()
	core.SetAccessLog(nil)
	st.ops = len(c.ops) - mark
	st.capturedL1 = want.Counters.L1HitRate()

	rxCost := gunfu.DefaultWorkerConfig().RxCost
	pool := sim.NewCorePool(cfg)
	var ns, reset []float64
	err = sp.do(name, func() error {
		for i := 0; i < replayRepeats; i++ {
			// The pool is empty on the first pass, so Get builds a core;
			// afterwards it hands back the one Put reset.
			t0 := time.Now()
			rc, err := pool.Get()
			if err != nil {
				return err
			}
			if i == 0 {
				st.newCoreMs = 1000 * time.Since(t0).Seconds()
			}
			replayOps(rc, c.ops[:mark], rxCost)
			before := rc.Counters()
			t0 = time.Now()
			replayOps(rc, c.ops[mark:], rxCost)
			ns = append(ns, float64(time.Since(t0).Nanoseconds()))
			got := rc.Counters().Sub(before)
			st.l1HitRatio = got.L1HitRate()
			out.attempted++
			if got.Reads != want.Counters.Reads || got.Writes != want.Counters.Writes ||
				got.PrefetchIssued != want.Counters.PrefetchIssued ||
				got.PrefetchRedundant != want.Counters.PrefetchRedundant ||
				got.PrefetchDropped != want.Counters.PrefetchDropped {
				out.failed++
			}
			// Recycling the dirtied core is the pool's reset path.
			t0 = time.Now()
			pool.Put(rc)
			reset = append(reset, time.Since(t0).Seconds())
		}
		return nil
	})
	st.nsPerPkt = median(ns) / float64(sample)
	st.nsPerOp = ratio(median(ns), float64(st.ops))
	st.poolResetMs = 1000 * median(reset)
	return st, err
}
