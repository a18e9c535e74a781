package director

import (
	"sync"

	"github.com/gunfu-nfv/gunfu/internal/obs"
	"github.com/gunfu-nfv/gunfu/internal/sim"
	"github.com/gunfu-nfv/gunfu/internal/stats"
)

// MetricsBridge folds StatsReport heartbeats into an obs.Registry, so
// one /metrics endpoint exposes everything a serving GuNFu process
// knows: cumulative volume counters, the labeled raw PMU block,
// last-window derived rates, and rx→done latency quantiles. Hang its
// Observe off Agent.OnStats (worker-local view) or
// Director.SetStatsHandler (cluster view — series then aggregate all
// agents reporting through this process).
//
// Every metric is defined exactly once, here, and exposed once, at
// the registry's /metrics.
type MetricsBridge struct {
	reg *obs.Registry

	windows  *obs.Metric
	packets  *obs.Metric
	bits     *obs.Metric
	cycles   *obs.Metric
	stalls   *obs.Metric
	switches *obs.Metric
	pmu      *obs.Family
	rates    *obs.Family
	info     *obs.Family

	mu       sync.Mutex
	counters sim.Counters
	latency  stats.Histogram
	lastNF   string
}

// NewMetricsBridge registers the gunfu_* families on reg and returns
// the bridge. Registering two bridges on one registry is a metric
// redefinition and panics, matching the "fields defined once" rule.
func NewMetricsBridge(reg *obs.Registry) *MetricsBridge {
	b := &MetricsBridge{
		reg:      reg,
		windows:  reg.Counter("gunfu_stats_windows", "Telemetry heartbeats observed."),
		packets:  reg.Counter("gunfu_packets", "Packets processed across observed windows."),
		bits:     reg.Counter("gunfu_bits", "Payload bits processed across observed windows."),
		cycles:   reg.Counter("gunfu_cycles", "Simulated core cycles across observed windows."),
		stalls:   reg.Counter("gunfu_stall_cycles", "Simulated cycles stalled on memory."),
		switches: reg.Counter("gunfu_task_switches", "NFTask scheduler switches."),
		pmu:      reg.CounterFamily("gunfu_pmu", "Raw PMU counter block, one series per counter."),
		rates:    reg.GaugeFamily("gunfu_window", "Derived rates of the most recent telemetry window."),
		info:     reg.GaugeFamily("gunfu_deployment_info", "Currently deployed NF (value is always 1)."),
	}
	reg.Summary("gunfu_latency_cycles", "rx to done packet latency in simulated cycles.",
		func() *stats.Histogram {
			b.mu.Lock()
			defer b.mu.Unlock()
			return b.latency.Clone()
		})
	return b
}

// Registry returns the registry the bridge publishes into.
func (b *MetricsBridge) Registry() *obs.Registry { return b.reg }

// RegisterLiveness exposes the director's agent-liveness view on reg:
// how many agents are connected right now, how many the heartbeat
// checker considers live, and how many it has marked dead. Values are
// computed at scrape time from the director's state (EnableLiveness
// drives the live/dead split; without it every seen agent stays live).
func RegisterLiveness(reg *obs.Registry, d *Director) {
	reg.GaugeFunc("gunfu_agents_connected", "Agents with an open control-plane connection.",
		func() float64 { return float64(len(d.Agents())) })
	reg.GaugeFunc("gunfu_agents_live", "Agents currently considered live by the heartbeat checker.",
		func() float64 {
			n := 0
			for _, info := range d.AgentInfos() {
				if info.Live {
					n++
				}
			}
			return float64(n)
		})
	reg.GaugeFunc("gunfu_agents_dead", "Agents marked dead after missed heartbeat windows.",
		func() float64 {
			n := 0
			for _, info := range d.AgentInfos() {
				if !info.Live {
					n++
				}
			}
			return float64(n)
		})
}

// Observe folds one heartbeat into the registry. Counter families
// accumulate across windows; the gunfu_window gauges always describe
// the newest window only.
func (b *MetricsBridge) Observe(r StatsReport) {
	b.mu.Lock()
	b.counters = b.counters.Add(r.Counters)
	cum := b.counters
	if r.Latency != nil {
		b.latency.Merge(r.Latency)
	}
	if r.NF != b.lastNF {
		b.lastNF = r.NF
		b.info.ResetSeries()
		b.info.With("nf", r.NF).Set(1)
	}
	b.mu.Unlock()

	b.windows.Inc()
	b.packets.Add(float64(r.Packets))
	b.bits.Add(r.Bits)
	b.cycles.Add(float64(r.Cycles))
	b.stalls.Add(float64(r.Counters.StallCycles))
	b.switches.Add(float64(r.Counters.TaskSwitches))

	for _, c := range []struct {
		name string
		v    uint64
	}{
		{"instructions", cum.Instructions},
		{"reads", cum.Reads},
		{"writes", cum.Writes},
		{"l1_hits", cum.L1Hits},
		{"l1_misses", cum.L1Misses},
		{"l2_hits", cum.L2Hits},
		{"l2_misses", cum.L2Misses},
		{"llc_hits", cum.LLCHits},
		{"llc_misses", cum.LLCMisses},
		{"prefetch_issued", cum.PrefetchIssued},
		{"prefetch_dropped", cum.PrefetchDropped},
		{"prefetch_redundant", cum.PrefetchRedundant},
		{"prefetch_useful", cum.PrefetchUseful},
		{"prefetch_late", cum.PrefetchLate},
	} {
		b.pmu.With("counter", c.name).Set(float64(c.v))
	}

	for _, g := range []struct {
		name string
		v    float64
	}{
		{"ipc", r.Counters.IPC()},
		{"mpki", r.Counters.MPKI()},
		{"stall_fraction", r.Counters.StallFraction()},
		{"prefetch_accuracy", r.Counters.PrefetchAccuracy()},
		{"l1_hit_rate", r.Counters.L1HitRate()},
		{"mpps", r.Mpps()},
		{"gbps", r.Gbps()},
	} {
		b.rates.With("rate", g.name).Set(g.v)
	}
}
