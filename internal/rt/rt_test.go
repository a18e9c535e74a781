package rt_test

import (
	"bytes"
	"errors"
	"slices"
	"strings"
	"testing"

	"github.com/gunfu-nfv/gunfu/internal/mem"
	"github.com/gunfu-nfv/gunfu/internal/model"
	"github.com/gunfu-nfv/gunfu/internal/nf/nat"
	"github.com/gunfu-nfv/gunfu/internal/pkt"
	"github.com/gunfu-nfv/gunfu/internal/rt"
	"github.com/gunfu-nfv/gunfu/internal/sim"
	"github.com/gunfu-nfv/gunfu/internal/traffic"
)

// buildNAT returns a pre-populated NAT program and matching generator.
func buildNAT(t testing.TB, flows int) (*model.Program, *traffic.FlowGen) {
	t.Helper()
	_, prog, g := newNAT(t, flows)
	return prog, g
}

// newNAT is buildNAT that also returns the NAT, for its counters.
func newNAT(t testing.TB, flows int) (*nat.NAT, *model.Program, *traffic.FlowGen) {
	t.Helper()
	as := mem.NewAddressSpace()
	n, err := nat.New(as, nat.Config{MaxFlows: flows})
	if err != nil {
		t.Fatal(err)
	}
	g, err := traffic.NewFlowGen(traffic.FlowGenConfig{Flows: flows, PacketBytes: 64, Order: traffic.OrderUniform, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < flows; i++ {
		if err := n.AddFlow(g.FlowTuple(i), int32(i)); err != nil {
			t.Fatal(err)
		}
	}
	prog, err := n.Program()
	if err != nil {
		t.Fatal(err)
	}
	return n, prog, g
}

func newWorker(t testing.TB, prog *model.Program, cfg rt.Config) *rt.Worker {
	t.Helper()
	return tracedWorker(t, prog, cfg, nil)
}

// tracedWorker is newWorker with tr attached to the worker's core.
func tracedWorker(t testing.TB, prog *model.Program, cfg rt.Config, tr sim.Tracer) *rt.Worker {
	t.Helper()
	core, err := sim.NewCore(sim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if tr != nil {
		core.SetTracer(tr)
	}
	w, err := rt.NewWorker(core, mem.NewAddressSpace(), prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// doneCounter tallies completed streams; it takes no batches, so it is
// fed from the core's flush loop.
type doneCounter struct{ done uint64 }

func (c *doneCounter) Event(ev sim.TraceEvent) {
	if ev.Kind == sim.TraceStreamDone {
		c.done++
	}
}

// TestRunReturnFlushesTrace: every Run return — interleaved and
// run-to-completion — is a flush point, so a window's telemetry is whole
// the moment Run hands back its result, however the packet count falls
// against the core's event buffer.
func TestRunReturnFlushesTrace(t *testing.T) {
	prog, g := buildNAT(t, 512)
	for name, cfg := range map[string]rt.Config{
		"interleaved": rt.DefaultConfig(),
		"rtc":         rt.RTCConfig(),
	} {
		var ct doneCounter
		w := tracedWorker(t, prog, cfg, &ct)
		var total uint64
		for _, n := range []uint64{1, 3, 97, 1000} {
			res, err := w.Run(g, n)
			if err != nil {
				t.Fatal(err)
			}
			if total += res.Packets; ct.done != total {
				t.Fatalf("%s: tracer saw %d streams done when Run returned, %d have run", name, ct.done, total)
			}
		}
	}
}

// eventLog keeps every event it is handed.
type eventLog struct{ evs []sim.TraceEvent }

func (l *eventLog) Event(ev sim.TraceEvent) { l.evs = append(l.evs, ev) }

// TestStreamDoneLatency holds each stream-done's C to the reference
// rule: the span from the TraceRx of the same buffer address to the
// done, matched in the full event stream. Every rx finds its done
// within the Run that received it — no stream straddles a Run — over
// windows that fall anywhere against the burst size, interleaved (16
// and 64 NFTasks) and run to completion.
func TestStreamDoneLatency(t *testing.T) {
	prog, g := buildNAT(t, 4096)
	for name, cfg := range map[string]rt.Config{
		"il16": rt.ConfigFor(16),
		"il64": rt.ConfigFor(64),
		"rtc":  rt.RTCConfig(),
	} {
		log := &eventLog{}
		w := tracedWorker(t, prog, cfg, log)
		var checked uint64
		for _, n := range []uint64{1, 97, 5000, 20000} {
			if _, err := w.Run(g, n); err != nil {
				t.Fatal(err)
			}
			rx := map[uint64]uint64{}
			for _, ev := range log.evs {
				switch ev.Kind {
				case sim.TraceRx:
					rx[ev.A] = ev.Cycle
				case sim.TraceStreamDone:
					at, ok := rx[ev.A]
					if !ok {
						t.Fatalf("%s: done at %#x without an rx in its Run", name, ev.A)
					}
					if ev.C != ev.Cycle-at {
						t.Fatalf("%s: done at %#x reports C = %d, rx→done span is %d", name, ev.A, ev.C, ev.Cycle-at)
					}
					delete(rx, ev.A)
					checked++
				}
			}
			if len(rx) != 0 {
				t.Fatalf("%s: %d rx left unmatched when Run(%d) returned", name, len(rx), n)
			}
			log.evs = log.evs[:0]
		}
		if checked != 1+97+5000+20000 {
			t.Fatalf("%s: checked %d streams", name, checked)
		}
	}
}

// TestConfigValidation enumerates every invalid rt.Config error path
// with a substring the rejection must carry, so the guards (including
// the ring-wrap bound) cannot silently rot.
func TestConfigValidation(t *testing.T) {
	prog, _ := buildNAT(t, 16)
	core, err := sim.NewCore(sim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		name string
		cfg  rt.Config
		want string
		is   error // the sentinel err must wrap, if any
	}{
		{"zero tasks", rt.Config{Tasks: 0, Batch: 32, RingSlots: 64, SlotBytes: 2048}, "Tasks must be positive", nil},
		{"negative tasks", rt.Config{Tasks: -1, Batch: 32, RingSlots: 64, SlotBytes: 2048}, "Tasks must be positive", nil},
		{"zero batch", rt.Config{Tasks: 4, Batch: 0, RingSlots: 64, SlotBytes: 2048}, "Batch must be positive", nil},
		{"negative batch", rt.Config{Tasks: 4, Batch: -8, RingSlots: 64, SlotBytes: 2048}, "Batch must be positive", nil},
		{"zero ring slots", rt.Config{Tasks: 4, Batch: 32, RingSlots: 0, SlotBytes: 2048}, "ring geometry", nil},
		{"negative ring slots", rt.Config{Tasks: 4, Batch: 32, RingSlots: -1, SlotBytes: 2048}, "ring geometry", nil},
		{"zero slot bytes", rt.Config{Tasks: 4, Batch: 32, RingSlots: 64, SlotBytes: 0}, "ring geometry", nil},
		{"ring wrap guard", rt.Config{Tasks: 16, Batch: 32, RingSlots: 47, SlotBytes: 2048}, "RingSlots", rt.ErrRingTooSmall},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := rt.NewWorker(core, mem.NewAddressSpace(), prog, tt.cfg)
			if err == nil {
				t.Fatalf("config accepted: %+v", tt.cfg)
			}
			if !strings.Contains(err.Error(), tt.want) {
				t.Fatalf("error %q does not contain %q", err, tt.want)
			}
			if tt.is != nil && !errors.Is(err, tt.is) {
				t.Fatalf("error %q does not wrap %q", err, tt.is)
			}
		})
	}
	ok := rt.Config{Tasks: 4, Batch: 32, RingSlots: 64, SlotBytes: 2048}
	if _, err := rt.NewWorker(core, mem.NewAddressSpace(), prog, ok); err != nil {
		t.Fatalf("minimal valid config rejected: %v", err)
	}
	// One slot past the wrap guard's row: exactly Tasks+Batch is safe.
	boundary := rt.Config{Tasks: 16, Batch: 32, RingSlots: 48, SlotBytes: 2048}
	if _, err := rt.NewWorker(core, mem.NewAddressSpace(), prog, boundary); err != nil {
		t.Fatalf("boundary config rejected: %v", err)
	}
}

func TestRunProcessesExactly(t *testing.T) {
	prog, g := buildNAT(t, 64)
	w := newWorker(t, prog, rt.DefaultConfig())
	res, err := w.Run(g, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Packets != 1000 {
		t.Fatalf("Packets = %d, want 1000", res.Packets)
	}
	if res.Bits != 1000*64*8 {
		t.Fatalf("Bits = %v", res.Bits)
	}
	if res.Cycles == 0 || res.FreqHz == 0 {
		t.Fatalf("window empty: %+v", res)
	}
}

// drainable returns a finite source of g's next n packets. The
// generator recycles its packet structs, so n stays well below its
// pool for the packets to remain distinct.
func drainable(g *traffic.FlowGen, n int) *schedSource {
	src := &schedSource{pkts: make([]*pkt.Packet, n)}
	for i := range src.pkts {
		src.pkts[i] = g.Next()
	}
	return src
}

func TestRunExhaustedSource(t *testing.T) {
	prog, g := buildNAT(t, 64)
	w := newWorker(t, prog, rt.DefaultConfig())
	src := drainable(g, 100)
	res, err := w.Run(src, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Packets != 100 {
		t.Fatalf("Packets = %d, want 100", res.Packets)
	}
	// A second Run on the drained source does nothing.
	res, err = w.Run(src, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Packets != 0 {
		t.Fatalf("drained source produced %d packets", res.Packets)
	}
}

// TestRTCConfigValidation: the run-to-completion baseline goes through
// the same guards as any worker, so a bad rx batch or ring geometry is
// rejected however few tasks it runs.
func TestRTCConfigValidation(t *testing.T) {
	prog, _ := buildNAT(t, 16)
	core, err := sim.NewCore(sim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for name, mut := range map[string]func(*rt.Config){
		"zero batch":      func(c *rt.Config) { c.Batch = 0 },
		"zero ring slots": func(c *rt.Config) { c.RingSlots = 0 },
		"zero slot bytes": func(c *rt.Config) { c.SlotBytes = 0 },
	} {
		cfg := rt.RTCConfig()
		mut(&cfg)
		if _, err := rt.NewWorker(core, mem.NewAddressSpace(), prog, cfg); err == nil {
			t.Fatalf("%s: RTC config accepted: %+v", name, cfg)
		}
	}
}

// TestRTCRunBounded pins the run-to-completion baseline: RTCConfig runs
// a bounded window like any worker, but never switches tasks or issues
// a prefetch, and still charges the declared accesses.
func TestRTCRunBounded(t *testing.T) {
	prog, g := buildNAT(t, 64)
	w := newWorker(t, prog, rt.RTCConfig())
	res, err := w.Run(g, 777)
	if err != nil {
		t.Fatal(err)
	}
	if res.Packets != 777 {
		t.Fatalf("Packets = %d, want 777", res.Packets)
	}
	if res.Counters.TaskSwitches != 0 {
		t.Fatalf("RTC performed %d task switches", res.Counters.TaskSwitches)
	}
	if res.Counters.PrefetchIssued != 0 {
		t.Fatalf("RTC issued %d prefetches", res.Counters.PrefetchIssued)
	}
	if res.AccessCycles == 0 {
		t.Fatal("AccessCycles not accumulated")
	}
}

// TestRTCRunExhausted: an RTC window with no packet bound ends when its
// source drains.
func TestRTCRunExhausted(t *testing.T) {
	prog, g := buildNAT(t, 64)
	w := newWorker(t, prog, rt.RTCConfig())
	src := drainable(g, 50)
	res, err := w.Run(src, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Packets != 50 {
		t.Fatalf("Packets = %d, want 50", res.Packets)
	}
	// A second Run on the drained source does nothing.
	res, err = w.Run(src, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Packets != 0 {
		t.Fatalf("drained source produced %d packets", res.Packets)
	}
}

// TestRunWindowsAreDeltas: each Run reports its own window, and two
// consecutive windows Add up to exactly the one window a fresh worker
// reports over the same packets (the windows end on burst boundaries,
// so both runs schedule identically).
func TestRunWindowsAreDeltas(t *testing.T) {
	prog, g := buildNAT(t, 64)
	w := newWorker(t, prog, rt.DefaultConfig())
	r1, err := w.Run(g, 512)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := w.Run(g, 512)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Counters.Cycles >= r1.Counters.Cycles+r2.Cycles {
		t.Fatal("second window includes first window's counters")
	}
	// Warm run should be no slower than cold (same packet count).
	if r2.Cycles > r1.Cycles*3/2 {
		t.Fatalf("warm window much slower: %d vs %d", r2.Cycles, r1.Cycles)
	}
	prog, g = buildNAT(t, 64)
	whole, err := newWorker(t, prog, rt.DefaultConfig()).Run(g, 1024)
	if err != nil {
		t.Fatal(err)
	}
	if sum := r1.Add(r2); sum != whole {
		t.Fatalf("windows add to %+v, the whole window is %+v", sum, whole)
	}
}

func TestResultMath(t *testing.T) {
	r := rt.Result{Packets: 1000, Bits: 512000, Cycles: 1000000, FreqHz: 1e9}
	if got := r.Gbps(); got < 0.5119 || got > 0.5121 {
		t.Fatalf("Gbps = %v", got)
	}
	if got := r.Mpps(); got < 0.99 || got > 1.01 {
		t.Fatalf("Mpps = %v", got)
	}
	if got := r.CyclesPerPacket(); got != 1000 {
		t.Fatalf("CyclesPerPacket = %v", got)
	}
	r.Counters.L1Misses = 2000
	l1, _, _ := r.MissesPerPacket()
	if l1 != 2 {
		t.Fatalf("l1 misses per packet = %v", l1)
	}
	var zero rt.Result
	if zero.Gbps() != 0 || zero.Mpps() != 0 || zero.CyclesPerPacket() != 0 {
		t.Fatal("zero result must report zeros")
	}
	a, b, c := zero.MissesPerPacket()
	if a != 0 || b != 0 || c != 0 {
		t.Fatal("zero result misses per packet must be zero")
	}
}

func TestPrefetchingHelps(t *testing.T) {
	const flows, packets = 32768, 20000

	run := func(prefetch bool) rt.Result {
		prog, g := buildNAT(t, flows)
		cfg := rt.DefaultConfig()
		cfg.Prefetch = prefetch
		w := newWorker(t, prog, cfg)
		if _, err := w.Run(g, 5000); err != nil { // warm
			t.Fatal(err)
		}
		res, err := w.Run(g, packets)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	with := run(true)
	without := run(false)
	if with.Cycles >= without.Cycles {
		t.Fatalf("prefetching did not help: with=%d without=%d cycles", with.Cycles, without.Cycles)
	}
	if with.Counters.PrefetchIssued == 0 {
		t.Fatal("no prefetches issued with prefetching on")
	}
	if without.Counters.PrefetchIssued != 0 {
		t.Fatal("prefetches issued with prefetching off")
	}
}

// TestInterleavingShape asserts the paper's Figure 11 shape: one task
// is slower than many, and 64 tasks are slower than 16. At
// DefaultConfig's 2048-B rx slot stride that 64-task drop is mostly
// header-line aliasing, not cache contention for state: every packet
// header maps to one of two L1 sets (ROADMAP item 2). Here it reads
// 7.94 → 6.85 Gbit/s at 2048 B against 8.130 → 8.126 at a DPDK-like
// 2304-B stride, so the assertion pins the default ring's shape.
func TestInterleavingShape(t *testing.T) {
	const flows, packets = 32768, 30000
	gbps := func(tasks int) float64 {
		prog, g := buildNAT(t, flows)
		cfg := rt.DefaultConfig()
		cfg.Tasks = tasks
		w := newWorker(t, prog, cfg)
		if _, err := w.Run(g, 5000); err != nil {
			t.Fatal(err)
		}
		res, err := w.Run(g, packets)
		if err != nil {
			t.Fatal(err)
		}
		return res.Gbps()
	}
	one, sixteen, sixtyFour := gbps(1), gbps(16), gbps(64)
	if sixteen < one*1.5 {
		t.Fatalf("16 tasks (%.2f Gbps) not clearly faster than 1 (%.2f)", sixteen, one)
	}
	if sixtyFour >= sixteen {
		t.Fatalf("64 tasks (%.2f Gbps) did not degrade from 16 (%.2f)", sixtyFour, sixteen)
	}
}

func TestEngineParallelCores(t *testing.T) {
	setups := make([]rt.CoreSetup, 4)
	for i := range setups {
		setups[i] = rt.CoreSetup{
			NewWorker: func(core *sim.Core) (*rt.Worker, rt.Source, error) {
				as := mem.NewAddressSpace()
				n, err := nat.New(as, nat.Config{MaxFlows: 256})
				if err != nil {
					return nil, nil, err
				}
				g, err := traffic.NewFlowGen(traffic.FlowGenConfig{Flows: 256, PacketBytes: 64, Seed: 3})
				if err != nil {
					return nil, nil, err
				}
				for f := 0; f < 256; f++ {
					if err := n.AddFlow(g.FlowTuple(f), int32(f)); err != nil {
						return nil, nil, err
					}
				}
				prog, err := n.Program()
				if err != nil {
					return nil, nil, err
				}
				w, err := rt.NewWorker(core, as, prog, rt.DefaultConfig())
				return w, g, err
			},
		}
	}
	eng, err := rt.NewEngine(sim.DefaultConfig(), setups)
	if err != nil {
		t.Fatal(err)
	}
	results, err := eng.Run(2000)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 4 {
		t.Fatalf("results = %d cores", len(results))
	}
	agg := rt.Aggregate(results)
	if agg.Packets != 8000 {
		t.Fatalf("aggregate packets = %d, want 8000", agg.Packets)
	}
	// Four identical cores must scale ~linearly vs one.
	if agg.Gbps() < results[0].Gbps()*3 {
		t.Fatalf("4-core aggregate %.2f Gbps < 3x single core %.2f", agg.Gbps(), results[0].Gbps())
	}
}

func TestEngineValidation(t *testing.T) {
	if _, err := rt.NewEngine(sim.DefaultConfig(), nil); err == nil {
		t.Fatal("empty engine accepted")
	}
}

func TestEngineWorkerError(t *testing.T) {
	eng, err := rt.NewEngine(sim.DefaultConfig(), []rt.CoreSetup{{
		NewWorker: func(core *sim.Core) (*rt.Worker, rt.Source, error) {
			return nil, nil, errFake
		},
	}})
	if err != nil {
		t.Fatal(err)
	}
	_, err = eng.Run(10)
	if err == nil {
		t.Fatal("worker construction error not surfaced")
	}
	if !errors.Is(err, errFake) {
		t.Fatalf("error %q lost the cause", err)
	}
	if !strings.Contains(err.Error(), "core 0") {
		t.Fatalf("error %q does not name the failing core", err)
	}
}

// TestEngineJoinsAllCoreErrors pins the errors.Join contract: when
// several cores fail, every failure is reported with its core index —
// none is masked by the first.
func TestEngineJoinsAllCoreErrors(t *testing.T) {
	okSetup := natSetup(64, 5)
	fail := func(e error) rt.CoreSetup {
		return rt.CoreSetup{NewWorker: func(core *sim.Core) (*rt.Worker, rt.Source, error) {
			return nil, nil, e
		}}
	}
	eng, err := rt.NewEngine(sim.DefaultConfig(), []rt.CoreSetup{
		fail(errFake), okSetup, fail(errFake2),
	})
	if err != nil {
		t.Fatal(err)
	}
	_, err = eng.Run(10)
	if err == nil {
		t.Fatal("multi-core failure not surfaced")
	}
	if !errors.Is(err, errFake) || !errors.Is(err, errFake2) {
		t.Fatalf("joined error %q lost a cause", err)
	}
	for _, want := range []string{"core 0", "core 2"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("joined error %q does not name %q", err, want)
		}
	}
	if strings.Contains(err.Error(), "core 1") {
		t.Fatalf("joined error %q blames the healthy core", err)
	}
}

// TestEngineReusesPooledCores pins the engine's core pool: a second Run
// must recycle the first Run's reset cores instead of
// rebuilding the megabyte-scale cache arrays, and the recycled cores
// must produce identical simulated results.
func TestEngineReusesPooledCores(t *testing.T) {
	setups := []rt.CoreSetup{natSetup(256, 7), natSetup(256, 7)}
	eng, err := rt.NewEngine(sim.DefaultConfig(), setups)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := eng.Run(1000)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := eng.Run(1000)
	if err != nil {
		t.Fatal(err)
	}
	news, reuses := eng.PoolStats()
	// Four Gets total; at most one fresh build per concurrent goroutine
	// (a goroutine that finishes before its sibling starts legitimately
	// hands its reset core straight over, even within one Run).
	if news+reuses != 4 {
		t.Fatalf("pool served %d+%d gets, want 4", news, reuses)
	}
	if news > 2 {
		t.Fatalf("built %d cores for a 2-core engine", news)
	}
	if reuses < 2 {
		t.Fatalf("recycled only %d cores across two runs", reuses)
	}
	// Same program, same source seed, reset core: the reset-vs-fresh
	// guarantee means the second run replays the first bit-identically.
	for i := range r1 {
		if r1[i].Cycles != r2[i].Cycles || r1[i].Counters != r2[i].Counters {
			t.Fatalf("core %d: pooled rerun diverged: %+v vs %+v", i, r1[i], r2[i])
		}
	}
}

// natSetup builds an engine CoreSetup running a self-contained NAT over
// `flows` flows with the given traffic seed.
func natSetup(flows int, seed int64) rt.CoreSetup {
	return rt.CoreSetup{
		NewWorker: func(core *sim.Core) (*rt.Worker, rt.Source, error) {
			as := mem.NewAddressSpace()
			n, err := nat.New(as, nat.Config{MaxFlows: flows})
			if err != nil {
				return nil, nil, err
			}
			g, err := traffic.NewFlowGen(traffic.FlowGenConfig{Flows: flows, PacketBytes: 64, Seed: seed})
			if err != nil {
				return nil, nil, err
			}
			for f := 0; f < flows; f++ {
				if err := n.AddFlow(g.FlowTuple(f), int32(f)); err != nil {
					return nil, nil, err
				}
			}
			prog, err := n.Program()
			if err != nil {
				return nil, nil, err
			}
			w, err := rt.NewWorker(core, as, prog, rt.DefaultConfig())
			return w, g, err
		},
	}
}

var (
	errFake  = &fakeError{}
	errFake2 = &fakeError2{}
)

type fakeError struct{}

func (*fakeError) Error() string { return "fake" }

type fakeError2 struct{}

func (*fakeError2) Error() string { return "fake2" }

func TestAggregateEmpty(t *testing.T) {
	agg := rt.Aggregate(nil)
	if agg.Packets != 0 || agg.Gbps() != 0 {
		t.Fatalf("empty aggregate = %+v", agg)
	}
}

// copySource hands out a private copy of each of src's packets and
// keeps every copy, so the frames a run leaves can be read afterwards.
type copySource struct {
	src  rt.Source
	pkts []*pkt.Packet
}

func (s *copySource) Next() *pkt.Packet {
	p := s.src.Next()
	if p == nil {
		return nil
	}
	c := *p
	c.Data = slices.Clone(p.Data)
	s.pkts = append(s.pkts, &c)
	return &c
}

// TestRingAtMinimumSize: a ring of exactly Tasks+Batch slots, the
// smallest the wrap guard accepts, wraps many times over a run and
// still leaves every frame byte-identical to a default-ring run's, with
// no packet dropped and no error, under RTCConfig and a 64-task
// interleaved config alike.
func TestRingAtMinimumSize(t *testing.T) {
	const flows, packets = 256, 3000
	run := func(t *testing.T, cfg rt.Config) []*pkt.Packet {
		t.Helper()
		n, prog, g := newNAT(t, flows)
		src := &copySource{src: g}
		res, err := newWorker(t, prog, cfg).Run(src, packets)
		if err != nil {
			t.Fatal(err)
		}
		if res.Packets != packets || n.Drops() != 0 {
			t.Fatalf("RingSlots %d: completed %d of %d packets, %d dropped", cfg.RingSlots, res.Packets, packets, n.Drops())
		}
		return src.pkts
	}
	for _, tc := range []struct {
		name string
		cfg  rt.Config
	}{{"rtc", rt.RTCConfig()}, {"il64", rt.ConfigFor(64)}} {
		t.Run(tc.name, func(t *testing.T) {
			small := tc.cfg
			small.RingSlots = small.Tasks + small.Batch
			want, got := run(t, tc.cfg), run(t, small)
			if len(got) != len(want) {
				t.Fatalf("minimum ring received %d frames, default ring %d", len(got), len(want))
			}
			for i := range want {
				if !bytes.Equal(got[i].Data, want[i].Data) {
					t.Fatalf("frame %d differs with RingSlots %d:\n got %x\nwant %x", i, small.RingSlots, got[i].Data, want[i].Data)
				}
			}
		})
	}
}

// TestExhaustionUnderBothConfigs: with one MSHR the prefetcher is
// exhausted almost at once. The interleaved worker counts the
// prefetches it drops and the run-to-completion worker issues none, and
// both still complete every offered packet. Under RTCConfig as under
// any config, a ring too small for Tasks+Batch is a NewWorker error
// that is rt.ErrRingTooSmall.
func TestExhaustionUnderBothConfigs(t *testing.T) {
	const offered = 2000
	simCfg := sim.DefaultConfig()
	simCfg.MSHRs = 1
	for _, tc := range []struct {
		name string
		cfg  rt.Config
	}{{"interleaved", rt.ConfigFor(16)}, {"rtc", rt.RTCConfig()}} {
		cfg := tc.cfg
		t.Run(tc.name, func(t *testing.T) {
			prog, g := buildNAT(t, 4096)
			core, err := sim.NewCore(simCfg)
			if err != nil {
				t.Fatal(err)
			}
			w, err := rt.NewWorker(core, mem.NewAddressSpace(), prog, cfg)
			if err != nil {
				t.Fatal(err)
			}
			res, err := w.Run(drainable(g, offered), 0)
			if err != nil {
				t.Fatal(err)
			}
			if res.Packets != offered {
				t.Fatalf("completed %d of %d packets", res.Packets, offered)
			}
			c := res.Counters
			if cfg.Prefetch && c.PrefetchDropped == 0 {
				t.Fatalf("one MSHR under %d tasks dropped no prefetch: %+v", cfg.Tasks, c)
			}
			if !cfg.Prefetch && c.PrefetchIssued+c.PrefetchDropped != 0 {
				t.Fatalf("RTC issued %d and dropped %d prefetches", c.PrefetchIssued, c.PrefetchDropped)
			}

			small := cfg
			small.RingSlots = cfg.Tasks + cfg.Batch - 1
			_, err = rt.NewWorker(core, mem.NewAddressSpace(), prog, small)
			if !errors.Is(err, rt.ErrRingTooSmall) {
				t.Fatalf("RingSlots %d < Tasks+Batch %d: err = %v", small.RingSlots, cfg.Tasks+cfg.Batch, err)
			}
		})
	}
}
