package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// metricDef is one named metric of the benchmark. Bound is the share
// of the parent's median by which an end-to-end metric may worsen
// before a change counts as a regression; per-layer metrics have none.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd lists what a user of the system sees. Every workload
// reports every one of them (see README.md for the per-workload
// definition of host_pps).
//
// A bound is twice the widest quartile spread the metric showed on any
// workload in the A/A runs of the same code (results/aa.json lists the
// spread, the workload and the drift between the two sets' medians per
// metric), rounded up to the next 0.05 for host-side metrics and the
// next 0.005 for simulated ones, and capped at the 0.25 the
// BENCHMARK.json schema allows:
//
//   - host_pps: single runs spread by 4-12 % on every workload on an
//     idle sandbox (fig_sweep 11.6 %, nat_miss 10.8 %) and by 14-18 % in
//     a noisy spell, while the medians of two interleaved sets of ten
//     stay within 1 % of each other (5 % in the noisy spell); twice the
//     spread is the cap. The bound is the line past which a change is
//     rejected unseen, not the resolution: within it, compare interleaved
//     sets as README.md says.
//   - sim_*: bit-exact for a seed; the spread is seed to seed only
//     (0.10 % on gbps and cycles, 0.30 % on stall cycles).
//   - peak_rss_mb: 7.9 % on cluster_deploy and 5 % on nat_hit, small
//     processes where the collector's timing is a visible share of
//     15-40 MiB; under 1 % on the three large ones.
//   - setup_s: the spread is not held against the bound, the drift of
//     the median is (14 % at worst); it takes the largest bound.
var endToEnd = []metricDef{
	{Name: "host_pps", Unit: "pkt/s", Better: "higher", Bound: 0.25},
	{Name: "sim_gbps", Unit: "Gbit/s", Better: "higher", Bound: 0.005},
	{Name: "sim_cycles_per_pkt", Unit: "cycles", Better: "lower", Bound: 0.005},
	{Name: "sim_stall_cycles_per_pkt", Unit: "cycles", Better: "lower", Bound: 0.01},
	{Name: "peak_rss_mb", Unit: "MiB", Better: "lower", Bound: 0.20},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

// perLayer lists the ladder under the end-to-end numbers, one group
// per package of the repo. A metric that does not apply to a workload
// reads 0 there. Counts come from sim.Counters / rt.Result deltas,
// times from harness spans around public calls.
var perLayer = []metricDef{
	// traffic
	{Name: "traffic.next_ns", Unit: "ns", Better: "lower"},
	{Name: "traffic.allocs_per_pkt", Unit: "allocs", Better: "lower"},
	// pkt
	{Name: "pkt.parse_ns", Unit: "ns", Better: "lower"},
	{Name: "pkt.rewrite_ns", Unit: "ns", Better: "lower"},
	{Name: "pkt.parse_fail_ratio", Unit: "ratio", Better: "lower"},
	// dstruct
	{Name: "dstruct.cuckoo_lookup_ns", Unit: "ns", Better: "lower"},
	{Name: "dstruct.mdi_lookup_ns", Unit: "ns", Better: "lower"},
	{Name: "dstruct.insert_ns", Unit: "ns", Better: "lower"},
	{Name: "dstruct.lookup_miss_ratio", Unit: "ratio", Better: "lower"},
	// nf + mem + compile
	{Name: "nf.build_s", Unit: "s", Better: "lower"},
	{Name: "compile.build_ms", Unit: "ms", Better: "lower"},
	{Name: "mem.sim_bytes_mb", Unit: "MiB", Better: "lower"},
	{Name: "mem.live_heap_mb", Unit: "MiB", Better: "lower"},
	// model + rtc
	{Name: "rtc.run_ns_per_pkt", Unit: "ns", Better: "lower"},
	{Name: "model.step_ns_per_pkt", Unit: "ns", Better: "lower"},
	{Name: "sim.instructions_per_pkt", Unit: "count", Better: "lower"},
	// sim, simulated side (exact counts)
	{Name: "sim.accesses_per_pkt", Unit: "count", Better: "lower"},
	{Name: "sim.l1_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "sim.llc_miss_per_pkt", Unit: "count", Better: "lower"},
	{Name: "sim.prefetch_issued_per_pkt", Unit: "count", Better: "lower"},
	{Name: "sim.prefetch_useful_ratio", Unit: "ratio", Better: "higher"},
	{Name: "sim.prefetch_late_per_kpkt", Unit: "count", Better: "lower"},
	{Name: "sim.prefetch_dropped_per_kpkt", Unit: "count", Better: "lower"},
	{Name: "sim.prefetch_redundant_per_pkt", Unit: "count", Better: "lower"},
	{Name: "sim.ipc", Unit: "ratio", Better: "higher"},
	// sim, host side
	{Name: "sim.replay_ns_per_pkt", Unit: "ns", Better: "lower"},
	{Name: "sim.replay_ns_per_op", Unit: "ns", Better: "lower"},
	{Name: "sim.replay_l1_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "sim.newcore_ms", Unit: "ms", Better: "lower"},
	{Name: "sim.pool_reset_ms", Unit: "ms", Better: "lower"},
	// rt
	{Name: "rt.run_ns_per_pkt", Unit: "ns", Better: "lower"},
	{Name: "rt.window_ns_per_pkt_p90", Unit: "ns", Better: "lower"},
	{Name: "rt.window_ns_per_pkt_min", Unit: "ns", Better: "lower"},
	{Name: "rt.switches_per_pkt", Unit: "count", Better: "lower"},
	{Name: "rt.allocs_per_pkt", Unit: "allocs", Better: "lower"},
	{Name: "rt.engine_scale_ratio", Unit: "ratio", Better: "higher"},
	{Name: "ladder.residual_ns_per_pkt", Unit: "ns", Better: "lower"},
	// obs
	{Name: "obs.flight_overhead_ratio", Unit: "ratio", Better: "lower"},
	{Name: "obs.latency_probe_overhead_ratio", Unit: "ratio", Better: "lower"},
	// the harness itself: printed, never gated
	{Name: "bench.trace_overhead_ratio", Unit: "ratio", Better: "lower"},
	{Name: "bench.fail_ratio", Unit: "ratio", Better: "lower"},
	// exp
	{Name: "exp.fig10_wall_s", Unit: "s", Better: "lower"},
	{Name: "exp.fig11_wall_s", Unit: "s", Better: "lower"},
	{Name: "exp.fig13_wall_s", Unit: "s", Better: "lower"},
	{Name: "exp.alloc_mb_per_pass", Unit: "MiB", Better: "lower"},
	// director
	{Name: "director.deploy_rtt_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "director.deploy_rtt_ms_p90", Unit: "ms", Better: "lower"},
	{Name: "director.deploy_rtt_ms_p99", Unit: "ms", Better: "lower"},
	{Name: "director.local_exec_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "director.wire_overhead_ms", Unit: "ms", Better: "lower"},
	{Name: "director.heartbeats_per_deploy", Unit: "count", Better: "lower"},
	{Name: "director.heartbeat_overhead_ratio", Unit: "ratio", Better: "lower"},
	{Name: "director.deploy_fail_ratio", Unit: "ratio", Better: "lower"},
}

// runSeconds is how long one contract run measures.
const runSeconds = 10

// manifest is the shape of BENCHMARK.json.
type manifest struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDoc `json:"workloads"`
	EndToEnd   []metricDef   `json:"end_to_end"`
	// PerLayer entries carry no bound: the zero Bound is omitted, as the
	// BENCHMARK.json schema requires.
	PerLayer []metricDef `json:"per_layer"`
}

type workloadDoc struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

func buildManifest() manifest {
	m := manifest{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, workloadDoc{Name: w.name, Why: w.why})
	}
	return m
}

// writeManifest regenerates BENCHMARK.json from the tables above, so
// the file and the command cannot name different metrics.
func writeManifest(path string) error {
	b, err := json.MarshalIndent(buildManifest(), "", "  ")
	if err != nil {
		return fmt.Errorf("bench: encode manifest: %w", err)
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// metricValues holds one run's measurements by metric name.
type metricValues map[string]float64

// reading is one metric as a contract run prints it.
type reading struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// fill returns the readings of defs, 0 for a metric the workload does
// not produce.
func (m metricValues) fill(defs []metricDef) map[string]reading {
	out := make(map[string]reading, len(defs))
	for _, d := range defs {
		out[d.Name] = reading{Value: m[d.Name], Unit: d.Unit}
	}
	return out
}
