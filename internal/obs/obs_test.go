package obs_test

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"github.com/gunfu-nfv/gunfu/internal/mem"
	"github.com/gunfu-nfv/gunfu/internal/model"
	"github.com/gunfu-nfv/gunfu/internal/nf/nat"
	"github.com/gunfu-nfv/gunfu/internal/obs"
	"github.com/gunfu-nfv/gunfu/internal/rt"
	"github.com/gunfu-nfv/gunfu/internal/sim"
	"github.com/gunfu-nfv/gunfu/internal/traffic"
)

// buildNAT returns a pre-populated NAT program and matching generator.
func buildNAT(t testing.TB, flows int) (*model.Program, *traffic.FlowGen, *mem.AddressSpace) {
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
	return prog, g, as
}

// sumTracer cross-checks the event stream against the PMU block.
type sumTracer struct {
	stall    uint64
	pfIss    uint64
	pfUse    uint64
	pfLate   uint64
	pfDrop   uint64
	pfRedun  uint64
	switches uint64
	events   uint64
}

func (s *sumTracer) Event(ev sim.TraceEvent) {
	s.events++
	switch ev.Kind {
	case sim.TraceStall:
		s.stall += ev.A
		if ev.Cause == sim.CausePrefetchLate {
			s.pfLate++
		}
	case sim.TracePrefetchIssued:
		s.pfIss++
	case sim.TracePrefetchUseful:
		s.pfUse++
	case sim.TracePrefetchDropped:
		s.pfDrop++
	case sim.TracePrefetchRedundant:
		s.pfRedun++
	case sim.TraceTaskSwitch:
		s.switches++
	}
}

// runTraced executes a NAT workload with the given tracers attached
// from the first packet.
func runTraced(t *testing.T, packets uint64, tracers ...sim.Tracer) rt.Result {
	t.Helper()
	prog, g, as := buildNAT(t, 1024)
	core, err := sim.NewCore(sim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	w, err := rt.NewWorker(core, as, prog, rt.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	core.SetTracer(obs.Multi(tracers...))
	res, err := w.Run(g, packets)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestCollectorMatchesCounters(t *testing.T) {
	prog, _, _ := buildNAT(t, 16)
	col := &countingCollector{Collector: obs.NewCollector(prog, sim.DefaultConfig().FreqHz)}
	sums := &sumTracer{}
	res := runTraced(t, 3000, col, sums)

	if sums.events == 0 || col.n != sums.events {
		t.Fatalf("events: collector %d, checker %d", col.n, sums.events)
	}
	c := res.Counters
	if sums.stall != c.StallCycles {
		t.Fatalf("stall events sum %d, PMU %d", sums.stall, c.StallCycles)
	}
	if sums.pfIss != c.PrefetchIssued || sums.pfUse != c.PrefetchUseful ||
		sums.pfLate != c.PrefetchLate || sums.pfDrop != c.PrefetchDropped ||
		sums.pfRedun != c.PrefetchRedundant {
		t.Fatalf("prefetch events iss/use/late/drop/red = %d/%d/%d/%d/%d, PMU %d/%d/%d/%d/%d",
			sums.pfIss, sums.pfUse, sums.pfLate, sums.pfDrop, sums.pfRedun,
			c.PrefetchIssued, c.PrefetchUseful, c.PrefetchLate, c.PrefetchDropped, c.PrefetchRedundant)
	}
	if sums.switches != c.TaskSwitches {
		t.Fatalf("switch events %d, PMU %d", sums.switches, c.TaskSwitches)
	}
}

func TestCollectorLatencyAndTables(t *testing.T) {
	prog, _, _ := buildNAT(t, 16)
	col := obs.NewCollector(prog, sim.DefaultConfig().FreqHz)
	res := runTraced(t, 2000, col)

	lat := obs.CollectorLatency(col)
	if lat.Count() != res.Packets {
		t.Fatalf("latency samples %d, packets %d", lat.Count(), res.Packets)
	}
	if lat.Quantile(0.5) == 0 || lat.Quantile(0.99) < lat.Quantile(0.5) {
		t.Fatalf("degenerate quantiles: p50=%d p99=%d", lat.Quantile(0.5), lat.Quantile(0.99))
	}

	tables := col.Tables()
	if len(tables) != 4 {
		t.Fatalf("tables = %d", len(tables))
	}
	for _, tab := range tables {
		if tab.NumRows() == 0 {
			t.Fatalf("table %q empty", tab.Title)
		}
		var buf bytes.Buffer
		if err := tab.Render(&buf); err != nil {
			t.Fatalf("render %q: %v", tab.Title, err)
		}
	}

	// The per-action table must attribute at least as many executions as
	// packets (each stream runs >= 1 action) and name real NAT states.
	actions := col.ActionTable()
	execCol, err := actions.ColumnIndex("execs")
	if err != nil {
		t.Fatal(err)
	}
	var execs float64
	for r := 0; r < actions.NumRows(); r++ {
		v, err := actions.CellFloat(r, execCol)
		if err != nil {
			t.Fatal(err)
		}
		execs += v
	}
	if execs < float64(res.Packets) {
		t.Fatalf("attributed execs %.0f < packets %d", execs, res.Packets)
	}
	cell, err := actions.Cell(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if cell == "" {
		t.Fatal("unnamed control state in attribution")
	}
}

// TestLatencyTableZeroClock: without a clock every usec cell, mean
// included, reads 0 rather than a division by zero.
func TestLatencyTableZeroClock(t *testing.T) {
	prog, _, _ := buildNAT(t, 16)
	col := obs.NewCollector(prog, 0)
	runTraced(t, 500, col)
	if obs.CollectorLatency(col).Count() == 0 {
		t.Fatal("no latency samples")
	}
	var buf bytes.Buffer
	if err := col.LatencyTable().Render(&buf); err != nil {
		t.Fatal(err)
	}
	if out := buf.String(); strings.Contains(out, "Inf") || strings.Contains(out, "NaN") {
		t.Fatalf("zero-clock latency table:\n%s", out)
	}
}

func TestChromeTraceJSON(t *testing.T) {
	prog, _, _ := buildNAT(t, 16)
	tw := obs.NewTraceWriter(prog, sim.DefaultConfig().FreqHz)
	runTraced(t, 500, tw)

	if tw.Len() == 0 {
		t.Fatal("no events recorded")
	}
	var buf bytes.Buffer
	if err := tw.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}

	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   *float64       `json:"ts"`
			Dur  float64        `json:"dur"`
			Pid  *int           `json:"pid"`
			Tid  *int           `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ns" {
		t.Fatalf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("no trace events")
	}
	kinds := map[string]int{}
	named := map[string]bool{}
	for i, ev := range doc.TraceEvents {
		if ev.Name == "" || ev.Ph == "" {
			t.Fatalf("event %d missing name/ph: %+v", i, ev)
		}
		if ev.Ts == nil || ev.Pid == nil || ev.Tid == nil {
			t.Fatalf("event %d missing ts/pid/tid", i)
		}
		if *ev.Ts < 0 || ev.Dur < 0 {
			t.Fatalf("event %d negative time: ts=%v dur=%v", i, *ev.Ts, ev.Dur)
		}
		kinds[ev.Ph]++
		if ev.Ph == "M" && ev.Name == "thread_name" {
			if name, ok := ev.Args["name"].(string); ok {
				named[name] = true
			}
		}
	}
	if kinds["M"] == 0 || kinds["X"] == 0 || kinds["i"] == 0 {
		t.Fatalf("missing phases: %v", kinds)
	}
	// Every NFTask slot in the default config gets a named track.
	if !named["dispatch"] || !named["task 0"] {
		t.Fatalf("tracks not named: %v", named)
	}
}

func TestMulti(t *testing.T) {
	if obs.Multi() != nil || obs.Multi(nil, nil) != nil {
		t.Fatal("empty Multi must be nil")
	}
	a, b := &sumTracer{}, &sumTracer{}
	if got := obs.Multi(nil, a); got != sim.Tracer(a) {
		t.Fatal("single Multi must unwrap")
	}
	m := obs.Multi(a, b)
	m.Event(sim.TraceEvent{Kind: sim.TraceTaskSwitch})
	if a.switches != 1 || b.switches != 1 {
		t.Fatalf("fan-out failed: %d/%d", a.switches, b.switches)
	}
	// A batch reaches slice-taking and per-event members alike, whole.
	f := obs.NewFlightRecorder(64)
	batch := []sim.TraceEvent{{Kind: sim.TraceTaskSwitch}, {Kind: sim.TraceStall, A: 9}, {Kind: sim.TraceTaskSwitch}}
	obs.Multi(a, f).(sim.BatchTracer).EventBatch(batch)
	if a.switches != 3 || a.stall != 9 || !reflect.DeepEqual(f.Snapshot(), batch) {
		t.Fatalf("batch fan-out failed: plain member %d switches / %d stall, ring %v", a.switches, a.stall, f.Snapshot())
	}
}

// kindsTracer declares a fixed kind set.
type kindsTracer struct {
	sumTracer
	kinds sim.TraceKinds
}

func (k *kindsTracer) TraceKinds() sim.TraceKinds { return k.kinds }

// TestMultiKinds: Multi declares the union of its members' kinds, and a
// member that declares none widens it to every kind.
func TestMultiKinds(t *testing.T) {
	done := sim.KindSet(sim.TraceStreamDone)
	access := &kindsTracer{kinds: sim.KindSet(sim.TraceAccess)}
	if got := sim.KindsOf(obs.NewLatencyProbe()); got != done {
		t.Fatalf("LatencyProbe kinds = %#x, want done %#x", got, done)
	}
	if got, want := sim.KindsOf(obs.Multi(obs.NewLatencyProbe(), access)), done|sim.KindSet(sim.TraceAccess); got != want {
		t.Fatalf("Multi(probe, access) kinds = %#x, want %#x", got, want)
	}
	if got := sim.KindsOf(obs.Multi(obs.NewLatencyProbe(), access, obs.NewFlightRecorder(64))); got != sim.AllTraceKinds {
		t.Fatalf("Multi with a kind-less member = %#x, want every kind %#x", got, sim.AllTraceKinds)
	}
	if sim.KindsOf(nil) != 0 || sim.KindsOf(&sumTracer{}) != sim.AllTraceKinds {
		t.Fatal("KindsOf: nil must consume nothing, a kind-less tracer everything")
	}
}

// TestCollectorSparesTaskSwitches: no Collector table reads a task
// switch, so a core whose only tracer is a Collector builds none of
// those events, though the run switches tasks; the Collector sees
// exactly the full stream's events of its declared kinds.
func TestCollectorSparesTaskSwitches(t *testing.T) {
	prog, _, _ := buildNAT(t, 16)
	col := &countingCollector{Collector: obs.NewCollector(prog, sim.DefaultConfig().FreqHz)}
	core, err := sim.NewCore(sim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	core.SetTracer(col)
	if core.Kinds().Has(sim.TraceTaskSwitch) {
		t.Fatal("a Collector-only core emits task-switch events")
	}
	res := runTraced(t, 2000, col)
	full := &kindCounter{}
	runTraced(t, 2000, full)
	if res.Counters.TaskSwitches == 0 || full[sim.TraceTaskSwitch] == 0 {
		t.Fatal("the workload made no task switches")
	}
	var want uint64
	for k, n := range full {
		if sim.KindsOf(col).Has(sim.TraceKind(k)) {
			want += n
		}
	}
	if col.n != want {
		t.Fatalf("collector consumed %d events, full stream has %d of its kinds", col.n, want)
	}
}

// countingCollector is a Collector that counts the events handed to it.
type countingCollector struct {
	*obs.Collector
	n uint64
}

func (c *countingCollector) Event(ev sim.TraceEvent) {
	c.n++
	c.Collector.Event(ev)
}

func (c *countingCollector) EventBatch(evs []sim.TraceEvent) {
	c.n += uint64(len(evs))
	c.Collector.EventBatch(evs)
}

// kindCounter is an undeclared tracer: beside it, the core emits every
// kind, and it counts what it sees by kind.
type kindCounter [sim.TraceKindCount]uint64

func (k *kindCounter) Event(ev sim.TraceEvent) { k[ev.Kind]++ }

// TestKindsInvisibleToOutput: a declared kind set only spares the core
// the events a tracer ignores. Collector's tables and TraceWriter's
// JSON are the same bytes whether the tracer runs alone (its own kinds)
// or beside an undeclared tracer under Multi (every kind).
func TestKindsInvisibleToOutput(t *testing.T) {
	prog, _, _ := buildNAT(t, 16)
	freq := sim.DefaultConfig().FreqHz
	for _, tc := range []struct {
		name    string
		tracer  func() sim.Tracer
		render  func(sim.Tracer, *bytes.Buffer) error
		ignored []sim.TraceKind
	}{
		{"Collector.Tables", func() sim.Tracer { return obs.NewCollector(prog, freq) },
			func(tr sim.Tracer, buf *bytes.Buffer) error {
				for _, tab := range tr.(*obs.Collector).Tables() {
					if err := tab.Render(buf); err != nil {
						return err
					}
				}
				return nil
			}, []sim.TraceKind{sim.TraceTransition, sim.TracePrefetchRedundant, sim.TraceTaskSwitch}},
		{"TraceWriter.WriteJSON", func() sim.Tracer { return obs.NewTraceWriter(prog, freq) },
			func(tr sim.Tracer, buf *bytes.Buffer) error { return tr.(*obs.TraceWriter).WriteJSON(buf) },
			[]sim.TraceKind{sim.TraceAccess, sim.TraceActionBegin, sim.TracePrefetchUseful}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			alone, beside := tc.tracer(), tc.tracer()
			for _, k := range tc.ignored {
				if sim.KindsOf(alone).Has(k) {
					t.Fatalf("declares %v, which it ignores", k)
				}
			}
			full := &kindCounter{}
			runTraced(t, 2000, alone)
			runTraced(t, 2000, beside, full)
			// The comparison is only meaningful if the full stream carried
			// kinds the tracer alone was spared.
			var spared uint64
			for _, k := range tc.ignored {
				spared += full[k]
			}
			if spared == 0 {
				t.Fatalf("the full stream carried none of %v", tc.ignored)
			}
			var a, b bytes.Buffer
			if err := tc.render(alone, &a); err != nil {
				t.Fatal(err)
			}
			if err := tc.render(beside, &b); err != nil {
				t.Fatal(err)
			}
			if a.Len() == 0 || !bytes.Equal(a.Bytes(), b.Bytes()) {
				t.Fatalf("output differs: alone %d bytes, beside a full-stream tracer %d bytes", a.Len(), b.Len())
			}
		})
	}
}
