package obs

import (
	"fmt"
	"io"

	"github.com/gunfu-nfv/gunfu/internal/model"
	"github.com/gunfu-nfv/gunfu/internal/sim"
)

// FlightRecorder is the "black box": a fixed-size, overwrite-oldest
// ring of cycle-stamped TraceEvents. Unlike TraceWriter — which records
// everything and is a profiling tool — the flight recorder's memory is
// bounded at construction and recording is a ring copy with no
// allocation and no synchronization, so when something goes wrong the
// last ringSize events (the cycles around the anomaly) are in the
// buffer, ready to dump as a Perfetto trace. Serving agents attach it
// only when a dump is asked for, to a deterministic replay of the
// deployment (see director.Agent), so the live path runs untraced.
//
// Not safe for concurrent use: Event, Snapshot and DumpPerfetto run on
// the simulation goroutine, or while it is quiescent.
type FlightRecorder struct {
	buf  []sim.TraceEvent
	mask uint64
	n    uint64 // events ever recorded; buf[n&mask] is the next slot
}

// NewFlightRecorder builds a recorder holding the last size events;
// size is rounded up to a power of two (minimum 64) so the hot-path
// index is a mask, not a modulo.
func NewFlightRecorder(size int) *FlightRecorder {
	n := 64
	for n < size {
		n <<= 1
	}
	return &FlightRecorder{buf: make([]sim.TraceEvent, n), mask: uint64(n - 1)}
}

// Event implements sim.Tracer: store and advance. Steady-state cost is
// flat and allocation-free.
func (f *FlightRecorder) Event(ev sim.TraceEvent) {
	f.buf[f.n&f.mask] = ev
	f.n++
}

// EventBatch implements sim.BatchTracer: the batch is copied into the
// ring in at most two pieces.
func (f *FlightRecorder) EventBatch(evs []sim.TraceEvent) {
	if over := len(evs) - len(f.buf); over > 0 {
		// A batch larger than the ring: only its newest events survive.
		f.n += uint64(over)
		evs = evs[over:]
	}
	k := copy(f.buf[f.n&f.mask:], evs)
	copy(f.buf, evs[k:])
	f.n += uint64(len(evs))
}

// Cap returns the ring capacity in events.
func (f *FlightRecorder) Cap() int { return len(f.buf) }

// Len returns the number of events currently held (capacity once the
// ring has wrapped).
func (f *FlightRecorder) Len() int {
	if f.n < uint64(len(f.buf)) {
		return int(f.n)
	}
	return len(f.buf)
}

// Snapshot copies the held events out in oldest-to-newest order.
func (f *FlightRecorder) Snapshot() []sim.TraceEvent {
	held := f.Len()
	out := make([]sim.TraceEvent, held)
	if held == 0 {
		return out
	}
	start := f.n - uint64(held)
	for i := 0; i < held; i++ {
		out[i] = f.buf[(start+uint64(i))&f.mask]
	}
	return out
}

// Reset empties the ring.
func (f *FlightRecorder) Reset() { f.n = 0 }

// DumpPerfetto exports the held events as Chrome trace-event JSON
// (Perfetto-loadable), resolving control-state names through prog at
// clock freqHz. It reuses TraceWriter's conversion, so a flight dump
// and a full trace render identically.
func (f *FlightRecorder) DumpPerfetto(w io.Writer, prog *model.Program, freqHz float64) error {
	if prog == nil {
		return fmt.Errorf("obs: flight dump needs a program for CS names")
	}
	tw := NewTraceWriter(prog, freqHz)
	tw.events = f.Snapshot()
	return tw.WriteJSON(w)
}
