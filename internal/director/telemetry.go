package director

import (
	"fmt"
	"sync"

	"github.com/gunfu-nfv/gunfu/internal/obs"
	"github.com/gunfu-nfv/gunfu/internal/rt"
	"github.com/gunfu-nfv/gunfu/internal/stats"
)

// Monitor is the one fold of the TypeStats heartbeat stream: one
// record per agent holding its latest window, the current run's totals
// and latency, its SLO health and its liveness verdict. Every view of
// a deployment reads off it: Table (the live table), OnBreach (the SLO
// transition) and Register (the /metrics exposition). Plug Observe
// into Director.SetStatsHandler or Agent.OnStats. Monitor is safe for
// concurrent use (heartbeats arrive on per-connection goroutines).
//
// The restart rule: a heartbeat whose window index does not advance
// past the agent's previous one starts a new run — a new deployment, or
// the same one re-run after the agent died and reconnected — so the
// abandoned run's totals and latency are dropped, and every view
// describes the run that will actually complete instead of
// double-counting replayed windows.
type Monitor struct {
	// SLO is checked against every heartbeat; the zero SLO checks
	// nothing. Set it before the first Observe.
	SLO SLO
	// OnBreach, when set, runs on each healthy→unhealthy transition (not
	// once per bad window), on the goroutine that called Observe — the
	// hook that asks the offending worker for a flight dump. A healthy
	// window re-arms the agent; a restart does not, so a replayed bad
	// window never fires twice.
	OnBreach func(Breach)

	mu     sync.Mutex
	order  []string // agents in first-seen order
	agents map[string]*agentRecord
	newest *agentRecord // the last heartbeat's agent; nil before it
}

// agentRecord is the fold's state for one agent; windows and total
// (Latency included) cover its current run only.
type agentRecord struct {
	latest, total   StatsReport
	windows         int
	unhealthy, dead bool
}

// NewMonitor builds an empty monitor.
func NewMonitor() *Monitor {
	return &Monitor{agents: make(map[string]*agentRecord)}
}

// record returns the agent's record, giving a new agent a row.
func (m *Monitor) record(agent string) *agentRecord {
	a := m.agents[agent]
	if a == nil {
		a = &agentRecord{latest: StatsReport{Agent: agent}}
		m.agents[agent] = a
		m.order = append(m.order, agent)
	}
	return a
}

// Observe folds one heartbeat in and checks it against the SLO.
func (m *Monitor) Observe(r StatsReport) {
	m.mu.Lock()
	a := m.record(r.Agent)
	if a.windows > 0 && r.Window <= a.latest.Window {
		a.windows, a.total = 0, StatsReport{} // the restart rule
	}
	a.latest = r
	a.windows++
	t := &a.total
	t.Result = t.Result.Add(r.Result)
	if r.Latency != nil {
		if t.Latency == nil {
			t.Latency = &stats.Histogram{}
		}
		t.Latency.Merge(r.Latency)
	}
	m.newest = a
	reasons := m.SLO.Check(r)
	fire := len(reasons) > 0 && !a.unhealthy
	a.unhealthy = len(reasons) > 0
	onBreach := m.OnBreach
	m.mu.Unlock()
	if fire && onBreach != nil {
		onBreach(Breach{Agent: r.Agent, NF: r.NF, Window: r.Window, Reasons: reasons})
	}
}

// SetLive records an agent's liveness verdict — wire it to
// Director.SetLivenessHandler so the table can flag dead agents. An
// agent can die before its first heartbeat; it still gets a row.
func (m *Monitor) SetLive(agent string, live bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.record(agent).dead = !live
}

// ClusterLatency returns the merge of every agent's current-run latency
// windows — the cluster-level distribution a fleet dashboard quotes p99
// from. All histograms share one bucket geometry, so the merge is exact.
// The returned histogram is a copy.
func (m *Monitor) ClusterLatency() *stats.Histogram {
	m.mu.Lock()
	defer m.mu.Unlock()
	cluster := &stats.Histogram{}
	for _, name := range m.order {
		cluster.Merge(m.agents[name].total.Latency)
	}
	return cluster
}

// runs sums the agents' current runs (windows, volume and PMU block)
// and returns the newest heartbeat, nil before the first.
func (m *Monitor) runs() (windows int, sum rt.Result, newest *StatsReport) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, name := range m.order {
		a := m.agents[name]
		windows += a.windows
		sum = sum.Add(a.total.Result)
	}
	if m.newest != nil {
		r := m.newest.latest
		newest = &r
	}
	return windows, sum, newest
}

// Register exposes the fold on reg as the gunfu_* families, each
// defined here once. Every value is read off the fold at scrape time,
// so /metrics always agrees with Table:
//
//   - the volume counters and the raw PMU block (gunfu_pmu) sum the
//     agents' current runs, so a new deployment or a restart reads to a
//     scraper as a counter reset;
//   - gunfu_window holds the newest heartbeat's derived rates, and
//     gunfu_deployment_info names its NF;
//   - gunfu_latency_cycles summarises ClusterLatency.
//
// Hang the monitor off Agent.OnStats for a worker's own view, or off
// Director.SetStatsHandler for the cluster's.
func (m *Monitor) Register(reg *obs.Registry) {
	counter := func(name, help string, value func(windows int, sum rt.Result) float64) {
		reg.FamilyFunc(name, help, obs.TypeCounter, func(emit obs.Emit) { n, sum, _ := m.runs(); emit(value(n, sum)) })
	}
	counter("gunfu_stats_windows", "Telemetry heartbeats of the current runs.", func(n int, _ rt.Result) float64 { return float64(n) })
	counter("gunfu_packets", "Packets processed in the current runs.", func(_ int, s rt.Result) float64 { return float64(s.Packets) })
	counter("gunfu_bits", "Payload bits processed in the current runs.", func(_ int, s rt.Result) float64 { return s.Bits })
	counter("gunfu_cycles", "Simulated core cycles of the current runs.", func(_ int, s rt.Result) float64 { return float64(s.Cycles) })
	counter("gunfu_stall_cycles", "Simulated cycles stalled on memory in the current runs.",
		func(_ int, s rt.Result) float64 { return float64(s.Counters.StallCycles) })
	counter("gunfu_task_switches", "NFTask scheduler switches in the current runs.",
		func(_ int, s rt.Result) float64 { return float64(s.Counters.TaskSwitches) })
	reg.FamilyFunc("gunfu_pmu", "Raw PMU counter block of the current runs, one series per counter.", obs.TypeCounter,
		func(emit obs.Emit) {
			if n, sum, _ := m.runs(); n > 0 {
				c := sum.Counters
				for _, s := range []struct {
					name string
					v    uint64
				}{
					{"instructions", c.Instructions}, {"reads", c.Reads}, {"writes", c.Writes},
					{"l1_hits", c.L1Hits}, {"l1_misses", c.L1Misses}, {"l2_hits", c.L2Hits}, {"l2_misses", c.L2Misses},
					{"llc_hits", c.LLCHits}, {"llc_misses", c.LLCMisses},
					{"prefetch_issued", c.PrefetchIssued}, {"prefetch_dropped", c.PrefetchDropped},
					{"prefetch_redundant", c.PrefetchRedundant}, {"prefetch_useful", c.PrefetchUseful},
					{"prefetch_late", c.PrefetchLate},
				} {
					emit(float64(s.v), "counter", s.name)
				}
			}
		})
	reg.FamilyFunc("gunfu_window", "Derived rates of the most recent telemetry window.", obs.TypeGauge,
		func(emit obs.Emit) {
			if _, _, r := m.runs(); r != nil {
				c := r.Counters
				for _, g := range []struct {
					name string
					v    float64
				}{
					{"ipc", c.IPC()}, {"mpki", c.MPKI()}, {"stall_fraction", c.StallFraction()},
					{"prefetch_accuracy", c.PrefetchAccuracy()}, {"l1_hit_rate", c.L1HitRate()},
					{"mpps", r.Mpps()}, {"gbps", r.Gbps()},
				} {
					emit(g.v, "rate", g.name)
				}
			}
		})
	reg.FamilyFunc("gunfu_deployment_info", "Currently deployed NF (value is always 1).", obs.TypeGauge,
		func(emit obs.Emit) {
			if _, _, r := m.runs(); r != nil {
				emit(1, "nf", r.NF)
			}
		})
	reg.Summary("gunfu_latency_cycles", "rx to done packet latency in simulated cycles.", m.ClusterLatency)
}

// SLO is a per-window service-level objective over heartbeat-derived
// rates. Zero-valued fields are unchecked, so an SLO can watch a single
// dimension.
type SLO struct {
	// MaxStallFraction is the highest tolerable fraction of window
	// cycles spent stalled on memory (0 disables).
	MaxStallFraction float64
	// MinMpps is the lowest tolerable window throughput in million
	// packets per simulated second (0 disables).
	MinMpps float64
	// MaxP99LatencyCycles is the highest tolerable window p99 rx→done
	// latency in cycles; checked only when the heartbeat carries a
	// latency histogram (0 disables).
	MaxP99LatencyCycles uint64
}

// Check evaluates one heartbeat and returns the violated objectives as
// human-readable reasons (empty when the window met the SLO).
func (s SLO) Check(r StatsReport) []string {
	var reasons []string
	if s.MaxStallFraction > 0 {
		if sf := r.Counters.StallFraction(); sf > s.MaxStallFraction {
			reasons = append(reasons, fmt.Sprintf("stall fraction %.3f > %.3f", sf, s.MaxStallFraction))
		}
	}
	if s.MinMpps > 0 {
		if mpps := r.Mpps(); mpps < s.MinMpps {
			reasons = append(reasons, fmt.Sprintf("throughput %.2f Mpps < %.2f Mpps", mpps, s.MinMpps))
		}
	}
	if s.MaxP99LatencyCycles > 0 && r.Latency != nil {
		if p99 := r.P99Cycles(); p99 > s.MaxP99LatencyCycles {
			reasons = append(reasons, fmt.Sprintf("p99 latency %d cycles > %d cycles", p99, s.MaxP99LatencyCycles))
		}
	}
	return reasons
}

// Breach describes one healthy→unhealthy transition: the window that
// violated the SLO and why.
type Breach struct {
	// Agent and NF identify the offending deployment.
	Agent string
	NF    string
	// Window is the violating chunk index.
	Window int
	// Reasons lists the violated objectives.
	Reasons []string
}

// Table renders one row per agent, in first-seen order: the latest
// window's instantaneous rates alongside the current run's totals, and
// the agent's liveness verdict.
func (m *Monitor) Table() *stats.Table {
	m.mu.Lock()
	defer m.mu.Unlock()
	t := stats.NewTable("Live telemetry (latest window per agent)",
		"agent", "nf", "win", "pkts", "Mpps", "Gbps", "ipc", "l1%", "stall%", "total pkts", "avg Gbps", "live")
	for _, name := range m.order {
		a := m.agents[name]
		r, tot := a.latest, a.total
		live := "yes"
		if a.dead {
			live = "DEAD"
		}
		t.AddRow(r.Agent, r.NF, stats.I(r.Window), stats.U(r.Packets),
			stats.F(r.Mpps(), 2), stats.F(r.Gbps(), 2),
			stats.F(r.Counters.IPC(), 2), stats.Pct(r.Counters.L1HitRate()),
			stats.Pct(r.Counters.StallFraction()),
			stats.U(tot.Packets), stats.F(tot.Gbps(), 2), live)
	}
	return t
}
