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
// It declares those two kinds (sim.KindTracer), so a core it is
// attached to alone builds no other event.
//
// The in-flight packets live in a small open-addressed table (linear
// probing, backward-shift deletion, at most half full), so steady state
// allocates nothing and the table grows only when more packets are in
// flight than it holds.
//
// Not safe for concurrent use; it lives on the simulation goroutine.
// TakeWindow is called between windows by the same owner.
type LatencyProbe struct {
	rx    []rxSlot // power-of-two length
	shift uint     // 64 - log2(len(rx)): home slot = top bits of the hash
	n     int      // occupied slots
	hist  stats.Histogram
}

// rxSlot is one in-flight packet: its buffer address and rx cycle.
type rxSlot struct {
	addr, cycle uint64
	used        bool
}

// probeSlots is the probe's initial table size: 64 packets in flight
// before it grows, twice what a default rx burst puts there.
const probeSlots = 128

// NewLatencyProbe builds an empty probe.
func NewLatencyProbe() *LatencyProbe {
	p := &LatencyProbe{}
	p.resize(probeSlots)
	return p
}

// TraceKinds implements sim.KindTracer: the probe consumes rx and
// stream-done events only.
func (p *LatencyProbe) TraceKinds() sim.TraceKinds {
	return sim.KindSet(sim.TraceRx, sim.TraceStreamDone)
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
		p.put(ev.A, ev.Cycle)
	case sim.TraceStreamDone:
		if i := p.find(ev.A); i >= 0 {
			p.hist.Add(ev.Cycle - p.rx[i].cycle)
			p.remove(i)
		}
	}
}

// home is addr's first probe slot (Fibonacci hashing: buffer addresses
// are slot-strided, so their low bits alone would collide).
func (p *LatencyProbe) home(addr uint64) int {
	return int((addr * 0x9E3779B97F4A7C15) >> p.shift)
}

// find returns the slot holding addr, or -1.
func (p *LatencyProbe) find(addr uint64) int {
	mask := len(p.rx) - 1
	for i := p.home(addr); p.rx[i].used; i = (i + 1) & mask {
		if p.rx[i].addr == addr {
			return i
		}
	}
	return -1
}

// put records addr's rx cycle, replacing any earlier one.
func (p *LatencyProbe) put(addr, cycle uint64) {
	mask := len(p.rx) - 1
	i := p.home(addr)
	for ; p.rx[i].used; i = (i + 1) & mask {
		if p.rx[i].addr == addr {
			p.rx[i].cycle = cycle
			return
		}
	}
	p.rx[i] = rxSlot{addr: addr, cycle: cycle, used: true}
	p.n++
	if 2*p.n > len(p.rx) {
		p.resize(2 * len(p.rx))
	}
}

// remove empties slot i, shifting later members of its probe run back
// so every lookup still reaches its entry without tombstones.
func (p *LatencyProbe) remove(i int) {
	mask := len(p.rx) - 1
	for j := (i + 1) & mask; p.rx[j].used; j = (j + 1) & mask {
		// The entry at j may fill the hole at i when i lies on its probe
		// path, i.e. its home is no further from j than i is.
		if (j-p.home(p.rx[j].addr))&mask >= (j-i)&mask {
			p.rx[i] = p.rx[j]
			i = j
		}
	}
	p.rx[i] = rxSlot{}
	p.n--
}

// resize rehashes the table into size slots (a power of two).
func (p *LatencyProbe) resize(size int) {
	old := p.rx
	p.rx = make([]rxSlot, size)
	p.shift = 64
	for s := size; s > 1; s >>= 1 {
		p.shift--
	}
	p.n = 0
	for _, s := range old {
		if s.used {
			p.put(s.addr, s.cycle)
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
