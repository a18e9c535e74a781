package director

import (
	"encoding/json"
	"io"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/gunfu-nfv/gunfu/internal/obs"
	"github.com/gunfu-nfv/gunfu/internal/rt"
	"github.com/gunfu-nfv/gunfu/internal/sim"
)

func TestSLOCheck(t *testing.T) {
	// A window: 1000 packets in 1e6 cycles at 1 GHz = 1 Mpps, 40% stall.
	rep := StatsReport{
		Agent: "w", NF: "nat",
		Result:  rt.Result{Packets: 1000, Cycles: 1e6, FreqHz: 1e9, Counters: sim.Counters{Cycles: 1e6, StallCycles: 4e5}},
		Latency: latencyHist(100, 200, 3000),
	}
	cases := []struct {
		name string
		slo  SLO
		want int
	}{
		{"zero SLO checks nothing", SLO{}, 0},
		{"all pass", SLO{MaxStallFraction: 0.5, MinMpps: 0.5, MaxP99LatencyCycles: 5000}, 0},
		{"stall breach", SLO{MaxStallFraction: 0.3}, 1},
		{"throughput breach", SLO{MinMpps: 2}, 1},
		{"latency breach", SLO{MaxP99LatencyCycles: 1000}, 1},
		{"all breach", SLO{MaxStallFraction: 0.3, MinMpps: 2, MaxP99LatencyCycles: 1000}, 3},
	}
	for _, c := range cases {
		if got := c.slo.Check(rep); len(got) != c.want {
			t.Fatalf("%s: reasons = %v, want %d", c.name, got, c.want)
		}
	}
	// Latency SLO is skipped when the heartbeat carries no histogram.
	noLat := rep
	noLat.Latency = nil
	if got := (SLO{MaxP99LatencyCycles: 1}).Check(noLat); len(got) != 0 {
		t.Fatalf("latency SLO checked without histogram: %v", got)
	}
}

// TestMonitorSLOTransitions pins the SLO edge: OnBreach fires once per
// healthy→unhealthy transition, a healthy window re-arms, and agents
// are tracked independently.
func TestMonitorSLOTransitions(t *testing.T) {
	var breaches []Breach
	m := NewMonitor()
	m.SLO = SLO{MinMpps: 1}
	m.OnBreach = func(b Breach) { breaches = append(breaches, b) }

	good := StatsReport{Agent: "w1", NF: "nat", Result: rt.Result{Packets: 2000, Cycles: 1e6, FreqHz: 1e9}}
	bad := good
	bad.Packets = 10

	m.Observe(good)
	if len(breaches) != 0 {
		t.Fatalf("healthy window flagged: %v", breaches)
	}
	bad.Window = 1
	m.Observe(bad)
	bad.Window = 2
	m.Observe(bad) // still unhealthy: no second firing
	if len(breaches) != 1 {
		t.Fatalf("OnBreach fired %d times, want once per transition", len(breaches))
	}
	b := breaches[0]
	if b.Agent != "w1" || b.NF != "nat" || b.Window != 1 || len(b.Reasons) != 1 {
		t.Fatalf("breach = %+v", b)
	}
	if !strings.Contains(b.Reasons[0], "Mpps") {
		t.Fatalf("reason = %q", b.Reasons[0])
	}

	// A healthy window re-arms; the next breach fires again.
	good.Window = 3
	m.Observe(good)
	bad.Window = 4
	m.Observe(bad)
	if len(breaches) != 2 || breaches[1].Agent != "w1" || breaches[1].Window != 4 {
		t.Fatalf("breaches after recovery = %+v", breaches)
	}

	// Agents are tracked independently: w1 is unhealthy, w2's first bad
	// window is its own transition.
	other := bad
	other.Agent = "w2"
	m.Observe(other)
	if len(breaches) != 3 || breaches[2].Agent != "w2" {
		t.Fatalf("per-agent health not independent: %+v", breaches)
	}
}

func TestMonitorLatencyAggregation(t *testing.T) {
	m := NewMonitor()
	// Two agents, two windows each; cluster view merges all four.
	m.Observe(StatsReport{Agent: "a", NF: "nat", Window: 0, Latency: latencyHist(10, 20)})
	m.Observe(StatsReport{Agent: "a", NF: "nat", Window: 1, Latency: latencyHist(30)})
	m.Observe(StatsReport{Agent: "b", NF: "nat", Window: 0, Latency: latencyHist(1000, 2000)})
	m.Observe(StatsReport{Agent: "c", NF: "nat", Window: 0}) // no latency requested

	cl := m.ClusterLatency()
	if cl.Count() != 5 || cl.Min() != 10 || cl.Max() != 2000 {
		t.Fatalf("cluster count/min/max = %d/%d/%d", cl.Count(), cl.Min(), cl.Max())
	}
	// Returned histograms are copies: mutating one must not leak back.
	cl.Add(1 << 40)
	if m.ClusterLatency().Count() != 5 {
		t.Fatal("ClusterLatency leaked internal state")
	}
}

// TestMonitorConcurrent hammers Observe, Table and a scrape from
// several goroutines; run under -race this pins the fold's locking.
func TestMonitorConcurrent(t *testing.T) {
	m := NewMonitor()
	m.SLO = SLO{MinMpps: 1}
	var fired sync.Map
	m.OnBreach = func(b Breach) { fired.Store(b.Agent, true) }
	reg := obs.NewRegistry()
	m.Register(reg)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			agent := agentName(g)
			for i := 0; i < 200; i++ {
				m.Observe(StatsReport{
					Agent: agent, NF: "nat", Window: i,
					Result:  rt.Result{Packets: uint64(10 + i%2*10000), Cycles: 1e6, FreqHz: 1e9},
					Latency: latencyHist(uint64(i + 1)),
				})
				if i%50 == 0 {
					_ = m.Table()
					_ = reg.Expose(io.Discard)
				}
			}
		}(g)
	}
	wg.Wait()
	if cl := m.ClusterLatency(); cl.Count() != 800 {
		t.Fatalf("cluster samples = %d", cl.Count())
	}
	for g := 0; g < 4; g++ {
		if _, ok := fired.Load(agentName(g)); !ok {
			t.Fatalf("agent %s never breached", agentName(g))
		}
	}
}

// expose scrapes reg's exposition.
func expose(t *testing.T, reg *obs.Registry) string {
	t.Helper()
	var sb strings.Builder
	if err := reg.Expose(&sb); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// exposedSample returns the value reg exposes for series (a name with
// its rendered labels), failing t if there is none.
func exposedSample(t *testing.T, reg *obs.Registry, series string) float64 {
	t.Helper()
	out := expose(t, reg)
	for _, line := range strings.Split(out, "\n") {
		if v, ok := strings.CutPrefix(line, series+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatal(err)
			}
			return f
		}
	}
	t.Fatalf("no %s sample in:\n%s", series, out)
	return 0
}

// TestMonitorExposition pins Register's families on one deployment:
// volume counters and the PMU block total the run, gunfu_window holds
// the last window's rates, and a deployment of another NF swaps the
// info series.
func TestMonitorExposition(t *testing.T) {
	reg := obs.NewRegistry()
	m := NewMonitor()
	m.Register(reg)
	m.Observe(StatsReport{
		Agent: "w", NF: "nat", Window: 0,
		Result: rt.Result{
			Packets: 1000, Bits: 512000, Cycles: 1e6, FreqHz: 1e9,
			Counters: sim.Counters{
				Cycles: 1e6, Instructions: 15e5, StallCycles: 25e4,
				Reads: 4000, Writes: 1000, L1Hits: 4500, L1Misses: 500,
				PrefetchIssued: 400, PrefetchUseful: 300, TaskSwitches: 900,
			},
		},
		Latency: latencyHist(100, 200, 400, 800),
	})
	m.Observe(StatsReport{
		Agent: "w", NF: "nat", Window: 1,
		Result: rt.Result{
			Packets: 500, Bits: 256000, Cycles: 5e5, FreqHz: 1e9,
			Counters: sim.Counters{Cycles: 5e5, Instructions: 1e6, L1Hits: 2000, StallCycles: 1e5},
		},
		Latency: latencyHist(1600),
	})

	out := expose(t, reg)
	for _, want := range []string{
		"gunfu_stats_windows_total 2\n",
		"gunfu_packets_total 1500\n",
		"gunfu_cycles_total 1500000\n",
		"gunfu_stall_cycles_total 350000\n",
		"gunfu_task_switches_total 900\n",
		`gunfu_pmu_total{counter="l1_hits"} 6500` + "\n",
		`gunfu_pmu_total{counter="instructions"} 2500000` + "\n",
		`gunfu_window{rate="ipc"} 2` + "\n", // last window only
		`gunfu_window{rate="stall_fraction"} 0.2` + "\n",
		`gunfu_window{rate="mpps"} 1` + "\n",
		`gunfu_deployment_info{nf="nat"} 1` + "\n",
		"gunfu_latency_cycles_count 5\n",
		`gunfu_latency_cycles{quantile="0.5"} `,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}

	// A redeploy to a different NF swaps the info series.
	m.Observe(StatsReport{Agent: "w", NF: "sfc", Window: 0, Result: rt.Result{Packets: 1, Cycles: 1, FreqHz: 1e9}})
	out = expose(t, reg)
	if !strings.Contains(out, `gunfu_deployment_info{nf="sfc"} 1`+"\n") {
		t.Fatalf("info not swapped:\n%s", out)
	}
	if strings.Contains(out, `gunfu_deployment_info{nf="nat"}`) {
		t.Fatal("stale deployment_info series survived")
	}
}

// TestSLOBreachTriggersFlightDump is the paper-trail e2e: a deployment
// that cannot meet an impossible throughput SLO breaches on its first
// heartbeat, the monitor asks the offending worker for a flight dump
// mid-run, and the worker answers with a Perfetto-loadable trace file.
func TestSLOBreachTriggersFlightDump(t *testing.T) {
	d := New()
	addr, err := d.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	a, err := NewAgent("w-slo", DefaultRegistry())
	if err != nil {
		t.Fatal(err)
	}
	a.FlightEvents = 4096
	a.DumpDir = t.TempDir()
	type hook struct {
		info  DumpInfo
		trace []byte
	}
	hooked := make(chan hook, 4)
	a.OnDump = func(info DumpInfo, trace []byte) {
		hooked <- hook{info, append([]byte(nil), trace...)}
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = a.Run(addr)
	}()
	defer func() {
		_ = d.Close()
		wg.Wait()
	}()
	if err := d.WaitAgents(1, 5*time.Second); err != nil {
		t.Fatal(err)
	}

	// No simulated core sustains 1e6 Mpps: every window breaches.
	mon := NewMonitor()
	mon.SLO = SLO{MinMpps: 1e6}
	var breaches atomic.Int32
	mon.OnBreach = func(b Breach) {
		breaches.Add(1)
		if err := d.RequestFlightDump(b.Agent); err != nil {
			t.Errorf("dump request: %v", err)
		}
	}
	d.SetStatsHandler(mon.Observe)
	dumps := make(chan DumpInfo, 4)
	d.SetDumpHandler(func(info DumpInfo) { dumps <- info })

	res, err := d.Deploy("w-slo", DeploySpec{
		NF: "nat", Flows: 1024, Packets: 4000, Warmup: 200,
		PacketBytes: 64, Tasks: 8, Seed: 7, StatsEvery: 1000, Latency: true,
	}, 60*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if res.Packets != 4000 {
		t.Fatalf("packets = %d", res.Packets)
	}
	// Four bad windows, one healthy→unhealthy edge: one breach.
	if n := breaches.Load(); n != 1 {
		t.Fatalf("breaches = %d, want 1", n)
	}

	var info DumpInfo
	select {
	case info = <-dumps:
	case <-time.After(10 * time.Second):
		t.Fatal("no dump notice within 10s")
	}
	if info.Error != "" {
		t.Fatalf("dump failed: %s", info.Error)
	}
	if info.Agent != "w-slo" || info.Events == 0 || info.Path == "" {
		t.Fatalf("dump info = %+v", info)
	}
	raw, err := os.ReadFile(info.Path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("dump is not valid trace JSON: %v", err)
	}
	var slices int
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" {
			slices++
		}
	}
	if slices == 0 {
		t.Fatalf("dump has no duration slices (%d events)", len(doc.TraceEvents))
	}

	// The agent-local OnDump hook saw the same dump, bytes included.
	select {
	case h := <-hooked:
		if h.info.Path != info.Path || len(h.trace) != len(raw) {
			t.Fatalf("hook saw %+v (%d bytes), wire said %+v (%d bytes)",
				h.info, len(h.trace), info, len(raw))
		}
	case <-time.After(5 * time.Second):
		t.Fatal("agent OnDump hook never fired")
	}

	// Latency telemetry flowed end to end into cluster aggregation.
	cl := mon.ClusterLatency()
	if cl.Count() != 4000 {
		t.Fatalf("cluster latency samples = %d", cl.Count())
	}
	if cl.Quantile(0.99) == 0 {
		t.Fatal("p99 latency is zero")
	}
}

// TestDumpOnIdleAgent asks an agent that has already finished its
// deployment for a dump: the request is served from the idle loop.
func TestDumpOnIdleAgent(t *testing.T) {
	d := New()
	addr, err := d.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewAgent("w-idle", DefaultRegistry())
	if err != nil {
		t.Fatal(err)
	}
	a.FlightEvents = 1024
	a.DumpDir = t.TempDir()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = a.Run(addr)
	}()
	defer func() {
		_ = d.Close()
		wg.Wait()
	}()
	if err := d.WaitAgents(1, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	dumps := make(chan DumpInfo, 1)
	d.SetDumpHandler(func(info DumpInfo) { dumps <- info })

	// Before any deployment the ring has nothing to say.
	if err := d.RequestFlightDump("w-idle"); err != nil {
		t.Fatal(err)
	}
	select {
	case info := <-dumps:
		if info.Error == "" {
			t.Fatalf("pre-deployment dump must fail, got %+v", info)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("no dump notice within 10s")
	}

	if _, err := d.Deploy("w-idle", DeploySpec{
		NF: "nat", Flows: 256, Packets: 1500, PacketBytes: 64, Tasks: 8, Seed: 8,
	}, 60*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := d.RequestFlightDump("w-idle"); err != nil {
		t.Fatal(err)
	}
	select {
	case info := <-dumps:
		if info.Error != "" || info.Events == 0 {
			t.Fatalf("idle dump = %+v", info)
		}
		if _, err := os.Stat(info.Path); err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("no dump notice within 10s")
	}

	if err := d.RequestFlightDump("ghost"); err == nil {
		t.Fatal("unknown agent accepted")
	}
}

// TestMonitorRestartResets pins the churn contract: a heartbeat whose
// window index regresses means the deployment restarted (agent died
// mid-run and the retry re-ran it), and the abandoned run's totals and
// latency windows must vanish from the table, the cluster latency and
// the exposition alike instead of double-counting.
func TestMonitorRestartResets(t *testing.T) {
	m := NewMonitor()
	reg := obs.NewRegistry()
	m.Register(reg)
	m.Observe(StatsReport{Agent: "a", NF: "nat", Window: 0, Result: rt.Result{Packets: 100}, Latency: latencyHist(10)})
	m.Observe(StatsReport{Agent: "a", NF: "nat", Window: 1, Result: rt.Result{Packets: 100}, Latency: latencyHist(20)})
	// The restart: window 0 again.
	m.Observe(StatsReport{Agent: "a", NF: "nat", Window: 0, Result: rt.Result{Packets: 50}, Latency: latencyHist(30)})

	tab := m.Table()
	col, err := tab.ColumnIndex("total pkts")
	if err != nil {
		t.Fatal(err)
	}
	if total, err := tab.CellFloat(0, col); err != nil || total != 50 {
		t.Fatalf("total pkts after restart = %v (%v), want 50", total, err)
	}
	if cl := m.ClusterLatency(); cl.Count() != 1 || cl.Min() != 30 {
		t.Fatalf("cluster latency after restart = %d samples, min %d", cl.Count(), cl.Min())
	}
	// The exposition reads the same fold: the abandoned run is gone
	// from /metrics too.
	out := expose(t, reg)
	for _, want := range []string{"gunfu_packets_total 50\n", "gunfu_latency_cycles_count 1\n", "gunfu_stats_windows_total 1\n"} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition after restart missing %q:\n%s", want, out)
		}
	}

	// A same-window duplicate (replayed heartbeat) is treated the same
	// way — the totals never exceed what one run produced.
	m.Observe(StatsReport{Agent: "a", NF: "nat", Window: 0, Result: rt.Result{Packets: 50}, Latency: latencyHist(40)})
	if total, err := m.Table().CellFloat(0, col); err != nil || total != 50 {
		t.Fatalf("total pkts after duplicate window = %v (%v)", total, err)
	}
}

// TestMonitorLiveness pins SetLive and the table's live column: a dead
// verdict flags the row (creating a placeholder for agents that died
// before their first heartbeat), and a revival clears it.
func TestMonitorLiveness(t *testing.T) {
	m := NewMonitor()
	m.SetLive("ghost", false)
	tab := m.Table()
	if tab.NumRows() != 1 {
		t.Fatalf("rows = %d, want placeholder row", tab.NumRows())
	}
	col, err := tab.ColumnIndex("live")
	if err != nil {
		t.Fatal(err)
	}
	if cell, err := tab.Cell(0, col); err != nil || cell != "DEAD" {
		t.Fatalf("live cell = %q (%v)", cell, err)
	}
	m.SetLive("ghost", true)
	if cell, _ := m.Table().Cell(0, col); cell != "yes" {
		t.Fatalf("live cell after revival = %q", cell)
	}
}

// TestMonitorNoDuplicateBreachAcrossRestart: an agent that dies
// unhealthy, reconnects, and replays an equally unhealthy window must
// not fire a second breach — the restart rule drops the run's totals
// but not its health, since the healthy→unhealthy edge never
// re-occurred and re-firing would double the flight dumps.
func TestMonitorNoDuplicateBreachAcrossRestart(t *testing.T) {
	m := NewMonitor()
	m.SLO = SLO{MinMpps: 1}
	fired := 0
	m.OnBreach = func(Breach) { fired++ }
	bad := StatsReport{Agent: "w1", NF: "nat", Window: 0, Result: rt.Result{Packets: 10, Cycles: 1e6, FreqHz: 1e9}}
	m.Observe(bad)
	// Death, reconnect, re-run: the replayed run starts at window 0.
	m.Observe(bad)
	if fired != 1 {
		t.Fatalf("breaches fired = %d, want 1", fired)
	}
	// Only an actual recovery re-arms.
	good := bad
	good.Packets = 2000
	good.Window = 1
	m.Observe(good)
	bad.Window = 2
	m.Observe(bad)
	if fired != 2 {
		t.Fatalf("breaches after recovery = %d, want 2", fired)
	}
}

// TestStatsHandlerSwapMidRun swaps the director's stats handler while
// heartbeats stream; under -race this pins the handler locking.
func TestStatsHandlerSwapMidRun(t *testing.T) {
	d := New()
	addr, err := d.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewAgent("w-swap", DefaultRegistry())
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = a.Run(addr)
	}()
	defer func() {
		_ = d.Close()
		wg.Wait()
	}()
	if err := d.WaitAgents(1, 5*time.Second); err != nil {
		t.Fatal(err)
	}

	var aCount, bCount int
	var mu sync.Mutex
	handlerA := func(StatsReport) { mu.Lock(); aCount++; mu.Unlock() }
	handlerB := func(StatsReport) { mu.Lock(); bCount++; mu.Unlock() }
	d.SetStatsHandler(handlerA)

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; ; i++ {
			select {
			case <-time.After(time.Millisecond):
				if i%2 == 0 {
					d.SetStatsHandler(handlerB)
				} else {
					d.SetStatsHandler(handlerA)
				}
			case <-done:
				return
			}
		}
	}()

	if _, err := d.Deploy("w-swap", DeploySpec{
		NF: "nat", Flows: 512, Packets: 6000, PacketBytes: 64,
		Tasks: 8, Seed: 9, StatsEvery: 500,
	}, 60*time.Second); err != nil {
		t.Fatal(err)
	}
	done <- struct{}{}
	<-done

	mu.Lock()
	defer mu.Unlock()
	if aCount+bCount != 12 {
		t.Fatalf("handlers saw %d+%d heartbeats, want 12 total", aCount, bCount)
	}
}
