package main

import (
	"fmt"
	"runtime"
	"time"

	"github.com/gunfu-nfv/gunfu"
	"github.com/gunfu-nfv/gunfu/internal/dstruct"
)

// windowsPerSecond is how many windows of a packet workload the sandbox
// the window sizes were taken on completes in a second (they are sized
// to 50-60 ms there); a run measures windowsPerSecond x seconds windows.
const windowsPerSecond = 16

// packetSpec describes one closed-loop packet workload: a worker (or a
// share-nothing engine of workers) pulling bursts from an in-process
// generator as fast as it completes them. Window sizes are fixed work,
// sized to about 50 ms on the 2-vCPU sandbox the benchmark was written
// on: short enough that some windows of a run escape a noisy
// neighbour's bursts. A run scales the number of windows, never their
// size.
type packetSpec struct {
	name  string
	cores int
	// window is the aggregate packet count of one timed window.
	window uint64
	// warmup is the per-core packet count run before timing.
	warmup uint64
	// sample is the packet count of each isolated probe run (rtc,
	// capture/replay, obs overhead) in a traced run.
	sample uint64
	// natRewrite adds the NAT-specific output check: the rewrite must
	// be stable per flow and injective across flows.
	natRewrite bool
	// build makes core i's NF state, program and generator. The seed
	// reaches only the generator.
	build func(seed int64, sp *spans, smoke bool) (*instance, error)
}

// instance is one core's share of a workload: populated NF state in a
// simulated address space, the compiled program over it, and the
// generator feeding it.
type instance struct {
	as   *gunfu.AddressSpace
	prog *gunfu.Program
	gen  gunfu.Source
	// regen builds a fresh generator with the same seed, replaying the
	// same packet stream from its start.
	regen func() (gunfu.Source, error)
	// population is the flow (or session) count, and key its i-th
	// populated match key, for the dstruct probes.
	population int
	key        func(i int) uint64
	// tree is the UPF's MDI tree (nil elsewhere) and treeKey the i-th
	// (UE address, source port) it must resolve.
	tree    *dstruct.MDITree
	treeKey func(i int) (uint32, uint16)
}

// scale shrinks a population for the smoke test, but never below the
// point where the simulated caches stop missing altogether.
func scale(n int, smoke bool) int {
	if smoke && n > 256 {
		return max(n/16, 256)
	}
	return n
}

func buildNAT(flows, frame int) func(int64, *spans, bool) (*instance, error) {
	return func(seed int64, sp *spans, smoke bool) (*instance, error) {
		flows := scale(flows, smoke)
		cfg := gunfu.FlowGenConfig{Flows: flows, PacketBytes: frame, Order: gunfu.OrderUniform, Seed: seed}
		inst := &instance{population: flows}
		var g *gunfu.FlowGen
		if err := sp.do("traffic.new", func() (err error) {
			g, err = gunfu.NewFlowGen(cfg)
			return err
		}); err != nil {
			return nil, err
		}
		var n *gunfu.NAT
		if err := sp.do("nf.build", func() (err error) {
			inst.as = gunfu.NewAddressSpace()
			if n, err = gunfu.NewNAT(inst.as, gunfu.NATConfig{MaxFlows: flows}); err != nil {
				return err
			}
			for i := 0; i < flows; i++ {
				if err := n.AddFlow(g.FlowTuple(i), int32(i)); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			return nil, err
		}
		if err := sp.do("compile.build", func() (err error) {
			inst.prog, err = n.Program()
			return err
		}); err != nil {
			return nil, err
		}
		inst.gen = g
		inst.regen = func() (gunfu.Source, error) { return gunfu.NewFlowGen(cfg) }
		inst.key = func(i int) uint64 { return g.FlowTuple(i).Hash() }
		return inst, nil
	}
}

func buildUPF(sessions, pdrs, frame int) func(int64, *spans, bool) (*instance, error) {
	return func(seed int64, sp *spans, smoke bool) (*instance, error) {
		sessions := scale(sessions, smoke)
		cfg := gunfu.MGWConfig{Sessions: sessions, PDRs: pdrs, PacketBytes: frame, Seed: seed}
		inst := &instance{population: sessions}
		var u *gunfu.UPF
		if err := sp.do("nf.build", func() (err error) {
			inst.as = gunfu.NewAddressSpace()
			u, err = gunfu.NewUPF(inst.as, gunfu.UPFConfig{Sessions: sessions, PDRsPerSession: pdrs})
			return err
		}); err != nil {
			return nil, err
		}
		if err := sp.do("compile.build", func() (err error) {
			inst.prog, err = u.DownlinkProgram()
			return err
		}); err != nil {
			return nil, err
		}
		if err := sp.do("traffic.new", func() (err error) {
			inst.gen, err = gunfu.NewMGWGen(cfg)
			return err
		}); err != nil {
			return nil, err
		}
		inst.regen = func() (gunfu.Source, error) { return gunfu.NewMGWGen(cfg) }
		// The TEID table is the UPF's cuckoo; its keys follow upf.New.
		inst.key = func(i int) uint64 { return uint64(0x10000 + i) }
		inst.tree = u.Tree()
		span := cfg.PDRRangeSpan()
		inst.treeKey = func(i int) (uint32, uint16) {
			return cfg.UEIP(i % sessions), uint16((i % pdrs) * span)
		}
		return inst, nil
	}
}

func buildSFC(length, flows, frame int) func(int64, *spans, bool) (*instance, error) {
	return func(seed int64, sp *spans, smoke bool) (*instance, error) {
		flows := scale(flows, smoke)
		cfg := gunfu.FlowGenConfig{Flows: flows, PacketBytes: frame, Order: gunfu.OrderUniform, Seed: seed}
		inst := &instance{population: flows}
		var g *gunfu.FlowGen
		if err := sp.do("traffic.new", func() (err error) {
			g, err = gunfu.NewFlowGen(cfg)
			return err
		}); err != nil {
			return nil, err
		}
		var chain []gunfu.Chainable
		if err := sp.do("nf.build", func() (err error) {
			inst.as = gunfu.NewAddressSpace()
			if chain, err = gunfu.BuildChain(inst.as, length, flows); err != nil {
				return err
			}
			tuples := make([]gunfu.FiveTuple, flows)
			for i := range tuples {
				tuples[i] = g.FlowTuple(i)
			}
			return gunfu.PopulateFlows(chain, tuples)
		}); err != nil {
			return nil, err
		}
		if err := sp.do("compile.build", func() (err error) {
			inst.prog, err = gunfu.BuildSFC(fmt.Sprintf("sfc%d", length), chain, gunfu.SFCOptions{
				RemoveRedundantMatching: true, RemoveRedundantPrefetches: true,
			})
			return err
		}); err != nil {
			return nil, err
		}
		inst.gen = g
		inst.regen = func() (gunfu.Source, error) { return gunfu.NewFlowGen(cfg) }
		inst.key = func(i int) uint64 { return g.FlowTuple(i).Hash() }
		return inst, nil
	}
}

// rig is a set-up workload ready to run windows.
type rig struct {
	spec  *packetSpec
	insts []*instance
	// srcs are the sources the workers pull from: the bare generators
	// in an untraced run, timing wrappers in a traced one.
	srcs     []gunfu.Source
	worker   *gunfu.Worker // cores == 1
	engine   *gunfu.Engine // cores > 1
	liveHeap float64       // MiB held after set-up
}

// setup builds every core's instance, the worker or engine over them,
// and warms caches and pools. It is the interval setup_s reports.
func (spec *packetSpec) setup(seed int64, sp *spans, smoke bool) (*rig, error) {
	r := &rig{spec: spec}
	err := sp.do("setup", func() error {
		for i := 0; i < spec.cores; i++ {
			inst, err := spec.build(seed+int64(i), sp, smoke)
			if err != nil {
				return fmt.Errorf("core %d: %w", i, err)
			}
			r.insts = append(r.insts, inst)
			r.srcs = append(r.srcs, inst.gen)
		}
		if spec.cores == 1 {
			var core *gunfu.Core
			if err := sp.do("sim.newcore", func() (err error) {
				core, err = gunfu.NewCore(gunfu.DefaultSimConfig())
				return err
			}); err != nil {
				return err
			}
			if err := sp.do("rt.newworker", func() (err error) {
				r.worker, err = gunfu.NewWorker(core, r.insts[0].as, r.insts[0].prog, gunfu.DefaultWorkerConfig())
				return err
			}); err != nil {
				return err
			}
		} else if err := sp.do("rt.newengine", func() (err error) {
			r.engine, err = r.newEngine(spec.cores)
			return err
		}); err != nil {
			return err
		}
		return sp.do("warmup", func() error {
			_, err := r.run(spec.warmup * uint64(spec.cores))
			return err
		})
	})
	if err != nil {
		return nil, fmt.Errorf("%s: setup: %w", spec.name, err)
	}
	r.liveHeap = liveHeapMB()
	return r, nil
}

// newEngine builds an engine over the first n cores' instances. Each
// Engine.Run draws a reset core from the engine's pool and builds a new
// worker on it, so every window starts with cold simulated caches.
func (r *rig) newEngine(n int) (*gunfu.Engine, error) {
	setups := make([]gunfu.CoreSetup, n)
	for i := range setups {
		i := i
		setups[i].NewWorker = func(core *gunfu.Core) (*gunfu.Worker, gunfu.Source, error) {
			w, err := gunfu.NewWorker(core, r.insts[i].as, r.insts[i].prog, gunfu.DefaultWorkerConfig())
			return w, r.srcs[i], err
		}
	}
	return gunfu.NewEngine(gunfu.DefaultSimConfig(), setups)
}

// run processes pkts packets in aggregate and returns the fleet result.
func (r *rig) run(pkts uint64) (gunfu.Result, error) {
	if r.worker != nil {
		return r.worker.Run(r.srcs[0], pkts)
	}
	results, err := r.engine.Run(pkts / uint64(r.spec.cores))
	if err != nil {
		return gunfu.Result{}, err
	}
	return gunfu.AggregateResults(results), nil
}

// liveHeapMB is the heap the process holds after a forced collection.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// simTotals accumulates the simulated side of a measured phase.
type simTotals struct {
	packets uint64
	bits    float64
	cycles  uint64
	ctr     gunfu.Counters
}

func (t *simTotals) add(r gunfu.Result) {
	t.packets += r.Packets
	t.bits += r.Bits
	t.cycles += r.Cycles
	t.ctr = t.ctr.Add(r.Counters)
}

// endToEnd writes the three simulated end-to-end metrics. freqHz is the
// simulated clock the cycles were counted at.
func (t *simTotals) endToEnd(m metricValues, freqHz float64) {
	n := float64(t.packets)
	m["sim_gbps"] = ratio(t.bits, float64(t.cycles)/freqHz) / 1e9
	m["sim_cycles_per_pkt"] = ratio(float64(t.cycles), n)
	m["sim_stall_cycles_per_pkt"] = ratio(float64(t.ctr.StallCycles), n)
}

// perLayer writes the simulator's exact per-packet counts.
func (t *simTotals) perLayer(m metricValues) {
	n := float64(t.packets)
	c := t.ctr
	m["sim.instructions_per_pkt"] = ratio(float64(c.Instructions), n)
	m["sim.accesses_per_pkt"] = ratio(float64(c.Accesses()), n)
	m["sim.l1_hit_ratio"] = c.L1HitRate()
	m["sim.llc_miss_per_pkt"] = ratio(float64(c.LLCMisses), n)
	m["sim.prefetch_issued_per_pkt"] = ratio(float64(c.PrefetchIssued), n)
	m["sim.prefetch_useful_ratio"] = ratio(float64(c.PrefetchUseful), float64(c.PrefetchIssued))
	m["sim.prefetch_late_per_kpkt"] = 1000 * ratio(float64(c.PrefetchLate), n)
	m["sim.prefetch_dropped_per_kpkt"] = 1000 * ratio(float64(c.PrefetchDropped), n)
	m["sim.prefetch_redundant_per_pkt"] = ratio(float64(c.PrefetchRedundant), n)
	m["sim.ipc"] = ratio(float64(c.Instructions), float64(t.cycles))
	m["rt.switches_per_pkt"] = ratio(float64(c.TaskSwitches), n)
}

func (spec *packetSpec) runWorkload(o runOpts) (*outcome, error) {
	if o.trace {
		return spec.runTraced(o)
	}
	sp := newSpans(spec.name)
	out := newOutcome()
	// A run sets the workload up several times (runOpts.setupAgain). The
	// last set-up is measured; the first two lend their NF state to the
	// output check, one under a fresh interleaved worker and one under a
	// fresh run-to-completion worker, and are dropped before the next is
	// built so the process never holds more than one.
	var r *rig
	var setups []float64
	var spent float64
	var frames [2][]outFrame
	for i := 0; i < len(frames) || o.setupAgain(i, spent); i++ {
		// Collect the previous set-up before building the next, outside
		// the timed interval, so peak memory does not depend on when the
		// collector happens to run.
		r = nil
		runtime.GC()
		t0 := time.Now()
		next, err := spec.setup(o.seed, sp, o.smoke)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		spent += setups[i]
		if i < len(frames) {
			if frames[i], err = collectOutputs(next.insts[0], i == 1); err != nil {
				return nil, fmt.Errorf("%s: output check: %w", spec.name, err)
			}
			continue
		}
		r = next
	}
	compareOutputs(spec, frames[0], frames[1], out)
	frames = [2][]outFrame{}
	runtime.GC()

	window := spec.window
	if o.smoke {
		window /= 10
	}
	// A fixed number of windows, so the simulated metrics repeat exactly
	// for a seed and the fastest window is the same order statistic on
	// every run.
	windows := o.ops(windowsPerSecond)
	walls := make([]float64, 0, windows)
	var sim simTotals
	for i := 0; i < windows; i++ {
		t0 := time.Now()
		res, err := r.run(window)
		wall := time.Since(t0).Seconds()
		if err != nil {
			return nil, fmt.Errorf("%s: window %d: %w", spec.name, i, err)
		}
		walls = append(walls, wall)
		out.attempted += window
		out.failed += window - res.Packets
		sim.add(res)
	}
	m := out.metrics
	// Interference on a shared host only ever slows a window, so the
	// fastest window is the steady estimate of what the code costs; the
	// median and the tail are in the info line.
	m["host_pps"] = float64(window) / minOf(walls)
	sim.endToEnd(m, gunfu.DefaultSimConfig().FreqHz)
	m["setup_s"] = median(setups)
	m["peak_rss_mb"] = peakRSSMB()
	out.info["windows"] = len(walls)
	out.info["window_s"] = spreadOf(walls)
	out.info["window_pkts"] = window
	out.info["setup_samples"] = len(setups)
	return out, nil
}
