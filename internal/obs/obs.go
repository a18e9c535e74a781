// Package obs is GuNFu's observability layer: consumers for the
// cycle-timestamped trace events the simulated core, the model and the
// runtimes emit through sim.Tracer (see internal/sim/trace.go), plus
// the serving-side metrics plane.
//
// The package provides five tracers:
//
//   - Collector aggregates per-NFAction and per-NFState attribution
//     (stall cycles, misses, prefetch efficacy) plus a log-bucketed
//     per-packet latency histogram, and renders them as stats.Table
//     reports — the "where did the cycles go" companion to the
//     aggregate PMU counter block.
//   - TraceWriter records the raw event stream and exports it as
//     Chrome trace-event JSON, viewable in Perfetto (ui.perfetto.dev)
//     or chrome://tracing: one track per interleaved NFTask slot with
//     action executions and stalls as nested slices, plus a prefetch
//     track with in-flight fills.
//   - FlightRecorder is the "black box": a fixed-size overwrite-oldest
//     ring of the newest events, allocation-free in steady state,
//     dumpable as a Perfetto trace. Serving agents attach it only to a
//     deterministic replay of a deployment, when a dump is asked for.
//   - LatencyProbe tracks only the rx→done latency distribution, cheap
//     enough to leave attached on serving deployments so telemetry
//     heartbeats can carry latency quantiles.
//   - Multi fans one event stream out to several tracers.
//
// All five implement sim.BatchTracer: the core hands them each flush as
// one slice (see sim.Core.FlushTrace), so per-event cost is a loop
// iteration, not an interface call. All but FlightRecorder also
// implement sim.KindTracer, declaring the kinds they consume, so a core
// builds no other event: LatencyProbe stream-done, Collector every
// kind its reports read, TraceWriter every kind it renders, and Multi
// the union of its members' kinds. FlightRecorder takes every kind,
// because a dump must be byte-identical to live recording. The worker
// measures each packet's rx→done span itself and carries it on the
// stream-done event, so neither Collector nor LatencyProbe matches rx
// to done, and no tracer keeps per-packet state on its event path.
//
// Registry is the serving surface: a stdlib-only OpenMetrics text
// exposition registry (metrics.go) that stores no values — every family
// is a scrape-time function over its owner — exposing PMU-derived
// rates, latency quantiles and Go runtime gauges as text. It imports no
// net/http: cmd/gunfu-worker serves Expose at /metrics.
//
// Everything here is observation-only: a tracer never calls back into
// the simulation, so attaching one is counter-neutral by construction
// (and by the golden-counters tests, which pin traced and untraced
// fingerprints to the same strings).
package obs

import "github.com/gunfu-nfv/gunfu/internal/sim"

// multi fans events out to a fixed set of tracers.
type multi []sim.Tracer

// Event implements sim.Tracer.
func (m multi) Event(ev sim.TraceEvent) {
	for _, t := range m {
		t.Event(ev)
	}
}

// EventBatch implements sim.BatchTracer: each member takes the whole
// batch in turn — as a slice when it can, per event otherwise — so every
// member sees the union stream (see TraceKinds) in emission order.
func (m multi) EventBatch(evs []sim.TraceEvent) {
	for _, t := range m {
		if bt, ok := t.(sim.BatchTracer); ok {
			bt.EventBatch(evs)
			continue
		}
		for i := range evs {
			t.Event(evs[i])
		}
	}
}

// TraceKinds implements sim.KindTracer: the union of the members'
// kinds, so a member without the method widens it to every kind.
func (m multi) TraceKinds() sim.TraceKinds {
	var k sim.TraceKinds
	for _, t := range m {
		k |= sim.KindsOf(t)
	}
	return k
}

// Multi combines tracers into one; nils are dropped. Returns nil when
// nothing remains, so the result can be passed straight to SetTracer.
func Multi(tracers ...sim.Tracer) sim.Tracer {
	var ts multi
	for _, t := range tracers {
		if t != nil {
			ts = append(ts, t)
		}
	}
	switch len(ts) {
	case 0:
		return nil
	case 1:
		return ts[0]
	default:
		return ts
	}
}
