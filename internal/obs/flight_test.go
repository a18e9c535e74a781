package obs_test

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"github.com/gunfu-nfv/gunfu/internal/obs"
	"github.com/gunfu-nfv/gunfu/internal/sim"
)

func TestFlightRecorderRingOrder(t *testing.T) {
	f := obs.NewFlightRecorder(1) // rounds up to the 64 minimum
	if f.Cap() != 64 {
		t.Fatalf("cap = %d", f.Cap())
	}
	// Underfull: everything retained, in order.
	for i := 0; i < 10; i++ {
		f.Event(sim.TraceEvent{Cycle: uint64(i), Kind: sim.TraceTaskSwitch})
	}
	if f.Len() != 10 {
		t.Fatalf("len = %d", f.Len())
	}
	snap := f.Snapshot()
	for i, ev := range snap {
		if ev.Cycle != uint64(i) {
			t.Fatalf("event %d cycle = %d", i, ev.Cycle)
		}
	}
	// Overflow: only the newest Cap events survive, oldest first.
	for i := 10; i < 200; i++ {
		f.Event(sim.TraceEvent{Cycle: uint64(i), Kind: sim.TraceTaskSwitch})
	}
	if f.Len() != 64 {
		t.Fatalf("after wrap len = %d", f.Len())
	}
	snap = f.Snapshot()
	if len(snap) != 64 {
		t.Fatalf("snapshot len = %d", len(snap))
	}
	for i, ev := range snap {
		if want := uint64(200 - 64 + i); ev.Cycle != want {
			t.Fatalf("wrapped event %d cycle = %d, want %d", i, ev.Cycle, want)
		}
	}
	f.Reset()
	if f.Len() != 0 || len(f.Snapshot()) != 0 {
		t.Fatal("reset did not empty ring")
	}
}

func TestFlightRecorderEventZeroAlloc(t *testing.T) {
	f := obs.NewFlightRecorder(256)
	ev := sim.TraceEvent{Cycle: 1, Kind: sim.TraceStall, Cause: sim.CauseDRAM}
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 1000; i++ {
			f.Event(ev)
		}
	})
	if allocs != 0 {
		t.Fatalf("Event allocates %.1f/run, want 0", allocs)
	}
	// The batch entry point, alone and as the agent attaches it: next
	// to a latency probe under Multi.
	batch := make([]sim.TraceEvent, 100)
	for i := range batch {
		batch[i] = sim.TraceEvent{Cycle: uint64(i), A: 0x1000, Kind: sim.TraceRx}
		if i%2 == 1 {
			batch[i].Kind = sim.TraceStreamDone
		}
	}
	taps := obs.Multi(f, obs.NewLatencyProbe()).(sim.BatchTracer)
	taps.EventBatch(batch) // first use sizes the probe's map and histogram
	for name, bt := range map[string]sim.BatchTracer{"FlightRecorder": f, "Multi(FlightRecorder, LatencyProbe)": taps} {
		allocs = testing.AllocsPerRun(100, func() {
			for i := 0; i < 10; i++ {
				bt.EventBatch(batch)
			}
		})
		if allocs != 0 {
			t.Fatalf("%s.EventBatch allocates %.1f/run, want 0", name, allocs)
		}
	}
}

// TestFlightRecorderBatchMatchesEvents: feeding the ring slices — ones
// that wrap it, and one larger than it — leaves exactly what feeding it
// the same events one at a time leaves.
func TestFlightRecorderBatchMatchesEvents(t *testing.T) {
	single, batched := obs.NewFlightRecorder(64), obs.NewFlightRecorder(64)
	var evs []sim.TraceEvent
	for i := 0; i < 500; i++ {
		evs = append(evs, sim.TraceEvent{Cycle: uint64(i), Kind: sim.TraceKind(1 + i%(sim.TraceKindCount-1))})
	}
	for at, n := range []int{0, 1, 40, 40, 7, 300, 64, 48} { // sums to 500
		chunk := evs[:n]
		evs = evs[n:]
		for _, ev := range chunk {
			single.Event(ev)
		}
		batched.EventBatch(chunk)
		if !reflect.DeepEqual(batched.Snapshot(), single.Snapshot()) {
			t.Fatalf("after batch %d (%d events) the rings differ", at, n)
		}
	}
	if len(evs) != 0 {
		t.Fatalf("%d events left over", len(evs))
	}
	if batched.Len() != 64 {
		t.Fatalf("len = %d", batched.Len())
	}
}

// TestFlightDumpPerfetto runs a real traced workload through a small
// ring and checks the dump is loadable Chrome trace JSON covering only
// the newest events — the black-box contract.
func TestFlightDumpPerfetto(t *testing.T) {
	prog, _, _ := buildNAT(t, 16)
	f := obs.NewFlightRecorder(512)
	res := runTraced(t, 2000, f)

	if 2*res.Packets <= uint64(f.Cap()) { // at least rx + done per packet
		t.Fatalf("workload too small to wrap: %d packets", res.Packets)
	}
	var buf bytes.Buffer
	if err := f.DumpPerfetto(&buf, prog, sim.DefaultConfig().FreqHz); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("dump is not valid JSON: %v", err)
	}
	// Metadata plus a window of real events; every timestamped record
	// sits inside the simulated run.
	var slices int
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" {
			slices++
		}
	}
	if slices == 0 {
		t.Fatalf("dump has no duration slices (%d events)", len(doc.TraceEvents))
	}
	if err := f.DumpPerfetto(&buf, nil, 1e9); err == nil {
		t.Fatal("nil program accepted")
	}
}

func TestLatencyProbe(t *testing.T) {
	p := obs.NewLatencyProbe()
	// Two streams done with rx→done spans 50 and 200; an rx is ignored.
	p.Event(sim.TraceEvent{Kind: sim.TraceRx, A: 0x1000, Cycle: 100})
	p.Event(sim.TraceEvent{Kind: sim.TraceStreamDone, A: 0x1000, Cycle: 150, C: 50})
	p.Event(sim.TraceEvent{Kind: sim.TraceStreamDone, A: 0x2000, Cycle: 400, C: 200})
	h := p.TakeWindow()
	if h.Count() != 2 || h.Min() != 50 || h.Max() != 200 {
		t.Fatalf("count/min/max = %d/%d/%d", h.Count(), h.Min(), h.Max())
	}
	if p.TakeWindow().Count() != 0 {
		t.Fatal("TakeWindow did not reset")
	}
	p.EventBatch([]sim.TraceEvent{{Kind: sim.TraceStreamDone, A: 0x3000, Cycle: 1600, C: 600}})
	if h := p.TakeWindow(); h.Count() != 1 || h.Min() != 600 {
		t.Fatalf("next window's latency = %d (count %d)", h.Min(), h.Count())
	}
	if h.Count() != 2 {
		t.Fatalf("a taken window changed after the next one: count %d", h.Count())
	}
}

// TestLatencyProbeMatchesCollector pins a standalone probe against
// Collector's latency histogram on a real run: both fold every
// stream-done's span, so the distributions are the same.
func TestLatencyProbeMatchesCollector(t *testing.T) {
	prog, _, _ := buildNAT(t, 64)
	col := obs.NewCollector(prog, sim.DefaultConfig().FreqHz)
	probe := obs.NewLatencyProbe()
	res := runTraced(t, 1500, col, probe)

	ph, ch := probe.TakeWindow(), obs.CollectorLatency(col)
	if ph.Count() != res.Packets || ph.Count() != ch.Count() {
		t.Fatalf("probe %d, collector %d, packets %d", ph.Count(), ch.Count(), res.Packets)
	}
	for _, q := range []float64{0.5, 0.95, 0.99, 1} {
		if ph.Quantile(q) != ch.Quantile(q) {
			t.Fatalf("q=%v: probe %d, collector %d", q, ph.Quantile(q), ch.Quantile(q))
		}
	}
}
