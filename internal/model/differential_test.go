package model_test

// Differential replay: the compiled step-plan executor must drive the
// simulated core with exactly the access sequence the interpreted
// reference executor (reference_test.go) issues. This harness generates
// randomized programs — random state graphs, random declared spans over
// every base kind, aligned and unaligned pools — runs each stream
// through both executors on separate cores with the access log
// attached, and asserts the (addr, size, kind, cycle) sequences, the PMU
// counters, the clocks and the access-cycle accounting are identical.
// TestDifferentialReplayEvents extends the comparison to the trace-event
// stream under the real runtimes (see refsched_test.go).

import (
	"math/rand"
	"testing"

	"github.com/gunfu-nfv/gunfu/internal/mem"
	"github.com/gunfu-nfv/gunfu/internal/model"
	"github.com/gunfu-nfv/gunfu/internal/pkt"
	"github.com/gunfu-nfv/gunfu/internal/rt"
	"github.com/gunfu-nfv/gunfu/internal/sim"
)

// diffPrograms is the number of randomized programs replayed. The
// acceptance bar for the harness is at least 100.
const diffPrograms = 128

// diffWorld is one generated program plus the shared simulated layout
// both executors resolve against.
type diffWorld struct {
	prog *model.Program
	// as is the address space after the program's own reservations; a
	// runtime built on a copy of it lands on the same addresses as any
	// other built on another copy.
	as      mem.AddressSpace
	pktAddr uint64
	dynBase uint64
	dynSize uint64
}

// diffResult is everything one executor side produced.
type diffResult struct {
	log          []sim.MemAccess
	ctr          sim.Counters
	clock        uint64
	accessCycles uint64
}

// randSpan draws a declared span for one base kind, sized to stay inside
// that base's backing storage and to sometimes straddle line boundaries.
func randSpan(rng *rand.Rand, base model.BaseKind, limit uint64) model.FieldRef {
	off := uint64(rng.Intn(int(limit)))
	max := limit - off
	if max > 96 {
		max = 96
	}
	size := 1 + uint64(rng.Intn(int(max)))
	return model.FieldRef{Explicit: &model.Span{Base: base, Off: off, Size: size}}
}

// buildRandomProgram generates one program over a fresh address space.
// Pool entry sizes are drawn from aligned and unaligned choices so the
// plan compiler's pre-split and span-fallback lowerings are both
// exercised.
func buildRandomProgram(t *testing.T, rng *rand.Rand) *diffWorld {
	t.Helper()
	as := mem.NewAddressSpace()
	if rng.Intn(2) == 0 {
		// Skew every later reservation off line alignment.
		as.Reserve(uint64(8+rng.Intn(48)), 8)
	}
	entrySizes := []uint64{96, 128, 256}
	perFlow, err := mem.NewPool(as, "pf", entrySizes[rng.Intn(len(entrySizes))], 64)
	if err != nil {
		t.Fatal(err)
	}
	var subFlow *mem.Pool
	if rng.Intn(4) != 0 {
		subSizes := []uint64{48, 64, 128}
		subFlow, err = mem.NewPool(as, "sf", subSizes[rng.Intn(len(subSizes))], 16)
		if err != nil {
			t.Fatal(err)
		}
	}
	control := mem.Region{Name: "ctl", Base: as.Reserve(512, uint64(8<<rng.Intn(4))), Size: 512}
	w := &diffWorld{
		pktAddr: as.Reserve(2048, 64) + uint64(rng.Intn(3))*8,
		dynBase: as.Reserve(4096, 64),
		dynSize: 4096,
	}

	bases := []struct {
		kind  model.BaseKind
		limit uint64
	}{
		{model.BasePerFlow, perFlow.EntrySize()},
		{model.BasePacket, 128},
		{model.BaseControl, control.Size},
		{model.BaseDynamic, 256},
	}
	if subFlow != nil {
		bases = append(bases, struct {
			kind  model.BaseKind
			limit uint64
		}{model.BaseSubFlow, subFlow.EntrySize()})
	}
	randRefs := func(n int) []model.FieldRef {
		refs := make([]model.FieldRef, 0, n)
		for i := 0; i < rng.Intn(n+1); i++ {
			b := bases[rng.Intn(len(bases))]
			refs = append(refs, randSpan(rng, b.kind, b.limit))
		}
		return refs
	}

	b := model.NewBuilder("diff")
	b.AddModule("m", model.Binding{PerFlow: perFlow, SubFlow: subFlow, Control: control})
	e0 := b.Event("e0")
	e1 := b.Event("e1")
	nStates := 2 + rng.Intn(5)
	dynBase, dynSize := w.dynBase, w.dynSize

	// The start state is the stream's classifier: it binds the flow
	// indexes and the cursor from the packet, so the program runs the
	// same under a bare Exec loop and under a real runtime (whose
	// ResetStream leaves the indexes unmatched). It may only touch bases
	// that resolve before matching.
	early := bases[1:3] // packet, control
	initRefs := make([]model.FieldRef, 0, 2)
	for i := 0; i < rng.Intn(3); i++ {
		eb := early[rng.Intn(len(early))]
		initRefs = append(initRefs, randSpan(rng, eb.kind, eb.limit))
	}
	b.AddState("m", "init", model.Action{
		Name:  "ainit",
		Cost:  uint64(rng.Intn(60)),
		Reads: initRefs,
		Fn: func(e *model.Exec) model.EventID {
			k := uint64(e.Pkt.Data[0])
			e.FlowIdx = int32(k % uint64(perFlow.Count()))
			if subFlow != nil {
				e.SubIdx = int32(k % uint64(subFlow.Count()))
			}
			e.Cur.Addr = dynBase
			e.Temp[0] = 0
			return e1
		},
	})
	b.AddTransition("m.init", "e1", "m."+stateName(0))
	for i := 0; i < nStates; i++ {
		stateIdx := uint64(i)
		b.AddState("m", stateName(i), model.Action{
			Name:   "a" + stateName(i),
			Cost:   uint64(rng.Intn(60)),
			Reads:  randRefs(3),
			Writes: randRefs(2),
			Fn: func(e *model.Exec) model.EventID {
				// Deterministic in Exec state only: both sides replay the
				// same visit sequence, so Temp/CS and the packet agree at every call.
				e.Temp[0]++
				e.Cur.Addr = dynBase + (e.Temp[0]*2654435761+uint64(e.Pkt.Data[0])*97+stateIdx*131)%(dynSize-512)
				h := e.Temp[0]*0x9e3779b9 + uint64(e.Pkt.Data[0])*31 + stateIdx*7
				if e.Temp[0] <= 32 && h%4 == 0 {
					return e0
				}
				return e1
			},
		})
	}
	for i := 0; i < nStates; i++ {
		// e1 always advances (guaranteeing termination once the action's
		// visit budget forces it); e0 jumps anywhere, loops included.
		next := model.EndName
		if i+1 < nStates {
			next = "m." + stateName(i+1)
		}
		b.AddTransition("m."+stateName(i), "e1", next)
		b.AddTransition("m."+stateName(i), "e0", "m."+stateName(rng.Intn(nStates)))
	}
	b.SetStart("m.init")
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	w.prog = prog
	w.as = *as
	return w
}

func stateName(i int) string {
	return string(rune('A' + i))
}

// diffSide is one executor's entry points.
type diffSide struct {
	step     func(*model.Exec) error
	ensure   func(*model.Exec) bool
	prefetch func(*model.Exec)
}

// replay runs the given number of packet streams through one executor
// side on a fresh core, logging every charged access.
func replay(t *testing.T, w *diffWorld, s diffSide, packets int) diffResult {
	t.Helper()
	core, err := sim.NewCore(sim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var res diffResult
	core.SetAccessLog(func(a sim.MemAccess) { res.log = append(res.log, a) })
	p := &pkt.Packet{Addr: w.pktAddr, Data: make([]byte, 128)}
	e := &model.Exec{Core: core}
	for seq := 0; seq < packets; seq++ {
		p.Data[0] = byte(seq)
		e.ResetStream(p, w.prog.Start())
		for visits := 0; !e.Done; visits++ {
			if visits > 4096 {
				t.Fatalf("stream did not terminate (program %s)", w.prog.Name())
			}
			if !e.Prefetched {
				// Alternate between the fused P-state visit and the blind
				// prefetch issue so both code paths are replayed.
				if (seq+visits)%2 == 0 {
					if !s.ensure(e) {
						core.TaskSwitch()
						continue
					}
				} else {
					s.prefetch(e)
					core.TaskSwitch()
					continue
				}
			}
			if err := s.step(e); err != nil {
				t.Fatalf("step: %v", err)
			}
			core.TaskSwitch()
		}
		res.accessCycles += e.AccessCycles
		e.AccessCycles = 0
	}
	res.ctr = core.Counters()
	res.clock = core.Now()
	return res
}

// sides returns the compiled and interpreted executor entry points for
// one generated program.
func sides(w *diffWorld) (compiled, interpreted diffSide) {
	compiled = diffSide{
		step:     w.prog.Step,
		ensure:   w.prog.EnsurePrefetched,
		prefetch: w.prog.PrefetchCurrent,
	}
	interpreted = diffSide{
		step: w.prog.StepInterpreted,
		ensure: func(e *model.Exec) bool {
			// The reference expansion of EnsurePrefetched: residency
			// check, then (on a miss) the full prefetch issue. Either
			// way the P-state ends up set.
			if w.prog.ResidentCurrentInterpreted(e) {
				e.Prefetched = true
				return true
			}
			w.prog.PrefetchCurrentInterpreted(e)
			return false
		},
		prefetch: w.prog.PrefetchCurrentInterpreted,
	}
	return compiled, interpreted
}

// diffCompare asserts two replay results are bit-identical.
func diffCompare(t *testing.T, n int, label string, got, want diffResult) {
	t.Helper()
	if len(got.log) != len(want.log) {
		t.Fatalf("program %d: %d accesses %s vs %d reference", n, len(got.log), label, len(want.log))
	}
	for i := range want.log {
		if got.log[i] != want.log[i] {
			t.Fatalf("program %d access %d: %s %+v != reference %+v", n, i, label, got.log[i], want.log[i])
		}
	}
	if got.ctr != want.ctr {
		t.Fatalf("program %d counters: %s %+v != reference %+v", n, label, got.ctr, want.ctr)
	}
	if got.clock != want.clock {
		t.Fatalf("program %d clock: %s %d != reference %d", n, label, got.clock, want.clock)
	}
	if got.accessCycles != want.accessCycles {
		t.Fatalf("program %d access cycles: %s %d != reference %d", n, label, got.accessCycles, want.accessCycles)
	}
}

// TestDifferentialReplay replays randomized programs through the
// interpreted reference executor and the compiled plan executor and
// requires bit-identical access sequences, counters and clocks.
func TestDifferentialReplay(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for n := 0; n < diffPrograms; n++ {
		w := buildRandomProgram(t, rng)
		packets := 2 + rng.Intn(3)
		compiled, interpreted := sides(w)
		want := replay(t, w, interpreted, packets)
		diffCompare(t, n, "compiled", replay(t, w, compiled, packets), want)
	}
}

// eventLog collects a core's trace stream; it takes batches, so the
// compiled side also exercises slice delivery end to end.
type eventLog struct{ evs []sim.TraceEvent }

func (l *eventLog) Event(ev sim.TraceEvent)         { l.evs = append(l.evs, ev) }
func (l *eventLog) EventBatch(evs []sim.TraceEvent) { l.evs = append(l.evs, evs...) }

// packetSource hands out n fresh 128-byte packets, each tagged with its
// index for the generated programs' classifier state.
type packetSource struct {
	left int
	next byte
}

func (s *packetSource) Next() *pkt.Packet {
	if s.left == 0 {
		return nil
	}
	s.left--
	p := &pkt.Packet{Data: make([]byte, 128), WireLen: 128}
	p.Data[0] = s.next
	s.next++
	return p
}

// runner is the Run contract the real workers and refWorker share.
type runner interface {
	Run(src rt.Source, maxPackets uint64) (rt.Result, error)
}

// tracedRun is everything one side of the event differential produced.
type tracedRun struct {
	diffResult
	evs     []sim.TraceEvent
	windows [2]rt.Result
}

// runTraced runs 41 packets as a 9-packet window then a drain — two Run
// returns, so the stream crosses a flush point mid-way — on a fresh
// traced core, with the access log attached when logged is set (which
// also takes the core off its single-line fast paths).
func runTraced(t *testing.T, w *diffWorld, logged bool, build func(*sim.Core, *mem.AddressSpace) runner) tracedRun {
	t.Helper()
	core, err := sim.NewCore(sim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var out tracedRun
	log := &eventLog{}
	core.SetTracer(log)
	if logged {
		core.SetAccessLog(func(a sim.MemAccess) { out.log = append(out.log, a) })
	}
	as := w.as
	r := build(core, &as)
	src := &packetSource{left: 41}
	for i, n := range []uint64{9, 0} {
		if out.windows[i], err = r.Run(src, n); err != nil {
			t.Fatal(err)
		}
		if i == 0 && len(log.evs) == 0 {
			t.Fatal("first window's events not delivered by the time Run returned")
		}
	}
	out.evs = log.evs
	out.ctr, out.clock = core.Counters(), core.Now()
	out.accessCycles = out.windows[0].AccessCycles + out.windows[1].AccessCycles
	return out
}

// eventConfig draws the worker tuning the event differentials run under.
func eventConfig(rng *rand.Rand) rt.Config {
	cfg := rt.DefaultConfig()
	cfg.Tasks = 2 + rng.Intn(7)
	cfg.Batch = 8
	cfg.RingSlots = 32
	return cfg
}

// realWorker builds the production worker for mode over w's program:
// rt.Worker under cfg, or under rt.RTCConfig with cfg's I/O settings.
func realWorker(t *testing.T, w *diffWorld, mode refMode, cfg rt.Config) func(*sim.Core, *mem.AddressSpace) runner {
	if mode == refRTC {
		rtc := rt.RTCConfig()
		rtc.Batch, rtc.RxCost, rtc.RingSlots, rtc.SlotBytes = cfg.Batch, cfg.RxCost, cfg.RingSlots, cfg.SlotBytes
		cfg = rtc
	}
	return func(core *sim.Core, as *mem.AddressSpace) runner {
		r, err := rt.NewWorker(core, as, w.prog, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
}

// compareTraced requires two traced runs of program n to agree in every
// field of every trace event, in the per-window results, and in the
// access log, counters and clock.
func compareTraced(t *testing.T, n int, label string, got, want tracedRun) {
	t.Helper()
	if len(got.evs) != len(want.evs) {
		t.Fatalf("program %d %s: %d events, want %d", n, label, len(got.evs), len(want.evs))
	}
	for i := range want.evs {
		if got.evs[i] != want.evs[i] {
			t.Fatalf("program %d %s event %d: %+v, want %+v", n, label, i, got.evs[i], want.evs[i])
		}
	}
	if got.windows != want.windows {
		t.Fatalf("program %d %s windows: %+v, want %+v", n, label, got.windows, want.windows)
	}
	diffCompare(t, n, label, got.diffResult, want.diffResult)
}

// TestDifferentialReplayEvents traces the randomized corpus through the
// real rt.Worker — under RTCConfig and under an interleaved config —
// running the compiled executor, and through the reference schedulers running the
// interpreted executor, and requires the two trace-event streams to be
// identical in every field of every event — along with the access logs,
// counters, clocks and per-window results.
func TestDifferentialReplayEvents(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for n := 0; n < diffPrograms; n++ {
		w := buildRandomProgram(t, rng)
		cfg := eventConfig(rng)
		for _, m := range []struct {
			name string
			mode refMode
		}{{"rtc", refRTC}, {"rr", refRR}} {
			ref := func(core *sim.Core, as *mem.AddressSpace) runner {
				return newRefWorker(core, as, w.prog, m.mode, cfg)
			}
			for _, logged := range []bool{true, false} {
				want := runTraced(t, w, logged, ref)
				got := runTraced(t, w, logged, realWorker(t, w, m.mode, cfg))
				compareTraced(t, n, "compiled/"+m.name, got, want)
			}
		}
	}
}
