package obs

import (
	"github.com/gunfu-nfv/gunfu/internal/sim"
	"github.com/gunfu-nfv/gunfu/internal/stats"
)

// LatencyProbe is the lightest useful tracer: it matches TraceRx to
// TraceStreamDone by packet buffer address and folds the rx→done cycle
// spans into a histogram. Where Collector needs the compiled program
// and aggregates full attribution, the probe needs nothing and tracks
// one distribution — cheap enough for an agent to leave attached on
// every serving deployment so heartbeats can carry latency quantiles.
//
// Not safe for concurrent use; it lives on the simulation goroutine.
// TakeWindow is called between windows by the same owner.
type LatencyProbe struct {
	rx   map[uint64]uint64 // packet buffer addr -> rx cycle
	hist stats.Histogram
}

// NewLatencyProbe builds an empty probe.
func NewLatencyProbe() *LatencyProbe {
	return &LatencyProbe{rx: make(map[uint64]uint64, 64)}
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
	switch ev.Kind {
	case sim.TraceRx:
		p.rx[ev.A] = ev.Cycle
	case sim.TraceStreamDone:
		if rx, ok := p.rx[ev.A]; ok {
			p.hist.Add(ev.Cycle - rx)
			delete(p.rx, ev.A)
		}
	}
}

// Histogram returns the accumulated rx→done latency histogram (cycles)
// since the last TakeWindow.
func (p *LatencyProbe) Histogram() *stats.Histogram { return &p.hist }

// TakeWindow returns the window's latency histogram and resets the
// accumulator (in-flight packets carry over: their rx cycles stay
// registered, so a stream completing next window still measures its
// full span).
func (p *LatencyProbe) TakeWindow() *stats.Histogram {
	h := p.hist.Clone()
	p.hist.Reset()
	return h
}
