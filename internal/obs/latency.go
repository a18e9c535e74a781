package obs

import (
	"github.com/gunfu-nfv/gunfu/internal/sim"
	"github.com/gunfu-nfv/gunfu/internal/stats"
)

// LatencyProbe is the lightest useful tracer: it folds each
// TraceStreamDone's rx→done cycle span (its C, measured by the worker
// from the packet's rx stamp) into a histogram. Where Collector needs
// the compiled program and aggregates full attribution, the probe needs
// nothing and tracks one distribution — cheap enough for an agent to
// leave attached on every serving deployment so heartbeats can carry
// latency quantiles. It declares that one kind (sim.KindTracer), so a
// core it is attached to alone builds no other event.
//
// Not safe for concurrent use; it lives on the simulation goroutine.
// TakeWindow is called between windows by the same owner.
type LatencyProbe struct {
	hist stats.Histogram
}

// NewLatencyProbe builds an empty probe.
func NewLatencyProbe() *LatencyProbe { return &LatencyProbe{} }

// TraceKinds implements sim.KindTracer: the probe consumes stream-done
// events only.
func (p *LatencyProbe) TraceKinds() sim.TraceKinds {
	return sim.KindSet(sim.TraceStreamDone)
}

// Event implements sim.Tracer.
func (p *LatencyProbe) Event(ev sim.TraceEvent) { p.event(&ev) }

// EventBatch implements sim.BatchTracer.
func (p *LatencyProbe) EventBatch(evs []sim.TraceEvent) {
	for i := range evs {
		p.event(&evs[i])
	}
}

func (p *LatencyProbe) event(ev *sim.TraceEvent) {
	if ev.Kind == sim.TraceStreamDone {
		p.hist.Add(ev.C)
	}
}

// TakeWindow returns the window's latency histogram and resets the
// accumulator.
func (p *LatencyProbe) TakeWindow() *stats.Histogram {
	h := p.hist.Clone()
	p.hist.Reset()
	return h
}
