package obs

import (
	"fmt"
	"io"
	"sync/atomic"

	"github.com/gunfu-nfv/gunfu/internal/model"
	"github.com/gunfu-nfv/gunfu/internal/sim"
)

// FlightRecorder is the always-on "black box": a fixed-size,
// overwrite-oldest ring of cycle-stamped TraceEvents. Unlike
// TraceWriter — which records everything and is a profiling tool — the
// flight recorder is sized for continuous production use: memory is
// bounded at construction, recording is a ring copy with no allocation
// and no synchronization, and when something goes wrong the last
// ringSize events (the cycles around the anomaly) are still in the
// buffer, ready to dump as a Perfetto trace without re-running with
// tracing enabled.
//
// Concurrency contract: Event, Snapshot and DumpPerfetto run on the
// simulation goroutine (or while it is quiescent — the agent dumps at
// window boundaries). Request/TakeRequest are the one cross-goroutine
// surface: any goroutine may flag a dump, the owner honors it at the
// next safe point.
type FlightRecorder struct {
	buf  []sim.TraceEvent
	mask uint64
	req  atomic.Bool

	// The words the recording goroutine writes sit on cache lines of
	// their own: recorders of agents sharing a process are allocated
	// back to back, and unpadded the tail of one recorder's census
	// shares a host line with the next one's buf/mask, which that
	// recorder's goroutine reads on every store.
	_ [64]byte
	n uint64 // events ever recorded; buf[n&mask] is the next slot
	// kinds is a census of everything ever recorded, including
	// overwritten events — the scrape-able summary of ring activity.
	kinds [sim.TraceKindCount]uint64
	_     [64]byte
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

// Event implements sim.Tracer: store, advance, count. No branches that
// grow state — steady-state cost is flat and allocation-free.
func (f *FlightRecorder) Event(ev sim.TraceEvent) {
	f.buf[f.n&f.mask] = ev
	f.n++
	f.kinds[ev.Kind]++
}

// EventBatch implements sim.BatchTracer: the batch is tallied into a
// local census that touches the shared one once per kind, then copied
// into the ring in at most two pieces.
func (f *FlightRecorder) EventBatch(evs []sim.TraceEvent) {
	var census [sim.TraceKindCount]uint64
	for i := range evs {
		census[evs[i].Kind]++
	}
	for k, c := range census {
		f.kinds[k] += c
	}
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

// Recorded returns the total number of events ever recorded, including
// overwritten ones.
func (f *FlightRecorder) Recorded() uint64 { return f.n }

// KindCounts returns the per-TraceKind census of every event ever
// recorded (indexed by sim.TraceKind).
func (f *FlightRecorder) KindCounts() [sim.TraceKindCount]uint64 { return f.kinds }

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

// Reset empties the ring (the census is kept: it describes the
// recorder's lifetime, not the current window).
func (f *FlightRecorder) Reset() { f.n = 0 }

// Request flags the recorder for a dump. Safe from any goroutine; the
// ring owner picks it up via TakeRequest at its next safe point. This
// is how an SLO watcher on the other end of a telemetry stream asks
// "show me the cycles that caused that".
func (f *FlightRecorder) Request() { f.req.Store(true) }

// TakeRequest consumes a pending dump request, reporting whether one
// was set.
func (f *FlightRecorder) TakeRequest() bool { return f.req.CompareAndSwap(true, false) }

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
