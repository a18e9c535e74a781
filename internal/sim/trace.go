package sim

// This file defines the observability hook the simulated core (and the
// layers above it: internal/model, internal/rt) emit
// cycle-timestamped events through. The hook is designed around three
// invariants the golden-counters tests and the hot-path benchmarks
// enforce:
//
//   - Zero overhead when disabled: every emission site is guarded by a
//     single test of the attached tracer's kind mask (see TraceKinds),
//     no event value is constructed unless a tracer consumes its kind,
//     and the disabled path allocates nothing.
//   - Counter-neutral when enabled: a Tracer only observes. Nothing in
//     the emission path touches the clock, the caches, the MSHRs or the
//     PMU, so attaching a tracer never changes a simulated result.
//   - Batched delivery: Emit stores into a small core-owned buffer and
//     the tracer is handed the filled prefix at the next flush point
//     (see FlushTrace), so the per-event cost is a handful of stores
//     rather than an interface call with a 48-byte argument.

// TraceKind discriminates trace events.
type TraceKind uint8

// The event kinds. Per-kind argument conventions (A, B, C of
// TraceEvent) are documented on each constant.
const (
	// TraceNone is the zero kind; never emitted.
	TraceNone TraceKind = iota
	// TraceRx is one received packet entering the runtime.
	// A = simulated buffer address, B = wire bits.
	TraceRx
	// TracePrefetchIssued is an accepted prefetch line fill.
	// A = line address, B = fill-complete cycle (readyAt).
	TracePrefetchIssued
	// TracePrefetchDropped is a prefetch rejected for want of MSHRs.
	// A = line address.
	TracePrefetchDropped
	// TracePrefetchRedundant is a prefetch for a line already in L1.
	// A = line address.
	TracePrefetchRedundant
	// TracePrefetchUseful is a demand access served by a completed
	// prefetch. A = 0.
	TracePrefetchUseful
	// TraceStall is memory stall cycles charged to the core, emitted
	// after the clock has advanced. A = stalled cycles (the stall spans
	// [Cycle-A, Cycle]), B = line address (0 for CauseFixed).
	TraceStall
	// TraceAccess is one declared state-span access charged by
	// model.Program.Step. A = span base kind (model.BaseKind),
	// B = stall cycles within the access, C = L1 misses in the high 32
	// bits and LLC misses in the low 32 bits.
	TraceAccess
	// TraceActionBegin marks the start of an NFAction execution.
	// A = action id.
	TraceActionBegin
	// TraceActionEnd marks the end of an NFAction execution (after its
	// declared writes). A = action id, B = elapsed cycles since the
	// matching TraceActionBegin.
	TraceActionEnd
	// TraceTransition is an FSM transition taken after an action.
	// A = event id, B = successor control state.
	TraceTransition
	// TraceTaskSwitch is one scheduler switch between NFTasks.
	TraceTaskSwitch
	// TraceStreamDone is a function stream running to completion.
	// A = packet buffer address (matches the TraceRx of the same
	// packet), B = wire bits, C = rx→done latency in cycles (this
	// event's Cycle minus the packet's TraceRx Cycle).
	TraceStreamDone
)

// TraceKindCount is the number of TraceKind values, for per-kind sets
// (TraceKinds) and tables.
const TraceKindCount = int(TraceStreamDone) + 1

// TraceKinds is a set of event kinds: bit k stands for TraceKind k.
type TraceKinds uint16

// AllTraceKinds is every emitted kind (TraceNone is never emitted).
const AllTraceKinds TraceKinds = 1<<TraceKindCount - 2

// KindSet returns the set holding exactly kinds.
func KindSet(kinds ...TraceKind) TraceKinds {
	var s TraceKinds
	for _, k := range kinds {
		s |= 1 << k
	}
	return s & AllTraceKinds
}

// Has reports whether k is in the set.
func (s TraceKinds) Has(k TraceKind) bool { return s&(1<<k) != 0 }

// String names the kind for diagnostics and exporters.
func (k TraceKind) String() string {
	switch k {
	case TraceRx:
		return "rx"
	case TracePrefetchIssued:
		return "pf-issued"
	case TracePrefetchDropped:
		return "pf-dropped"
	case TracePrefetchRedundant:
		return "pf-redundant"
	case TracePrefetchUseful:
		return "pf-useful"
	case TraceStall:
		return "stall"
	case TraceAccess:
		return "access"
	case TraceActionBegin:
		return "action-begin"
	case TraceActionEnd:
		return "action-end"
	case TraceTransition:
		return "transition"
	case TraceTaskSwitch:
		return "task-switch"
	case TraceStreamDone:
		return "stream-done"
	default:
		return "none"
	}
}

// StallCause classifies where TraceStall cycles went.
type StallCause uint8

// The stall causes.
const (
	// CauseNone marks events that are not stalls.
	CauseNone StallCause = iota
	// CauseL2 is a demand fill served by L2.
	CauseL2
	// CauseLLC is a demand fill served by the LLC.
	CauseLLC
	// CauseDRAM is a demand fill that missed every level.
	CauseDRAM
	// CausePrefetchLate is a demand access that arrived before its
	// in-flight prefetch completed and waited for the remainder.
	CausePrefetchLate
	// CauseFixed is a fixed overhead charged via Core.Stall.
	CauseFixed
)

// StallCauseCount is the number of StallCause values, for fixed-size
// per-cause tables.
const StallCauseCount = int(CauseFixed) + 1

// String names the cause for diagnostics and exporters.
func (c StallCause) String() string {
	switch c {
	case CauseL2:
		return "l2-fill"
	case CauseLLC:
		return "llc-fill"
	case CauseDRAM:
		return "dram-fill"
	case CausePrefetchLate:
		return "pf-late"
	case CauseFixed:
		return "fixed"
	default:
		return "none"
	}
}

// TraceEvent is one cycle-timestamped observation. Task and CS identify
// the NFTask slot and control state the core was stamped with at
// emission time (-1 when unknown, e.g. during batch receive).
type TraceEvent struct {
	// Cycle is the core clock at emission.
	Cycle uint64
	// A, B, C are kind-specific arguments (see TraceKind constants).
	A, B, C uint64
	// Task is the NFTask slot (see Core.SetTask).
	Task int32
	// CS is the control state (see Core.SetCS).
	CS int32
	// Kind discriminates the event.
	Kind TraceKind
	// Cause classifies TraceStall events.
	Cause StallCause
}

// Tracer receives trace events on the simulation goroutine, in emission
// order, possibly deferred to the next flush point (see FlushTrace): an
// event describes the core at the moment it was emitted, so consumers
// must use the event's fields (Cycle, Task, CS, ...), not live Core
// state. Implementations must not call back into the Core's mutating
// API (Read, Write, Prefetch, SetTracer, ...). See internal/obs for the
// provided implementations.
type Tracer interface {
	Event(ev TraceEvent)
}

// BatchTracer is the optional upgrade (in the io.ReaderFrom style) a
// Tracer implements to take each flush as one slice instead of one
// Event call per element. evs is in emission order and aliases the
// core's buffer: it is valid only until EventBatch returns, so copy
// what must outlive the call. A core delivers every event through
// exactly one of the two methods, never both.
type BatchTracer interface {
	Tracer
	EventBatch(evs []TraceEvent)
}

// KindTracer is the optional upgrade, in the BatchTracer style, a
// Tracer implements to declare the event kinds it consumes. A core
// emits — and builds — only events of those kinds, so such a tracer
// receives exactly the subsequence of the full stream that matches its
// set, every field (Task and CS stamps included) as the full stream
// carries it. The set is read once, at SetTracer. A tracer that
// declares kinds must still ignore others: under obs.Multi it receives
// the union of its fellow members' sets. Tracers without the method get
// every kind.
type KindTracer interface {
	Tracer
	TraceKinds() TraceKinds
}

// KindsOf returns the kinds t consumes: none for nil, its declared set
// for a KindTracer, every kind otherwise.
func KindsOf(t Tracer) TraceKinds {
	switch t := t.(type) {
	case nil:
		return 0
	case KindTracer:
		return t.TraceKinds() & AllTraceKinds
	default:
		return AllTraceKinds
	}
}

// traceBufEvents is the capacity of a core's event buffer (12 KiB of
// 48-byte events): large enough that delivery cost is amortized away,
// small enough to stay in the host's L1 next to the simulated L1 index.
const traceBufEvents = 256

// SetTracer attaches t (nil detaches) after flushing anything still
// buffered to the previous tracer. Tracing is an observation-only
// facility: with a tracer attached the simulated clock, caches and PMU
// counters behave bit-identically to an untraced run. The tracer's
// kind set (KindsOf) is resolved here, once: it is the mask every
// emission site tests.
func (c *Core) SetTracer(t Tracer) {
	c.FlushTrace()
	c.trc = t
	c.trcBatch, _ = t.(BatchTracer)
	c.kinds = KindsOf(t)
	c.traceSwitch = c.kinds.Has(TraceTaskSwitch)
	if t != nil && c.tbuf == nil {
		c.tbuf = make([]TraceEvent, traceBufEvents)
	}
}

// Tracer returns the attached tracer, or nil.
func (c *Core) Tracer() Tracer { return c.trc }

// Kinds returns the kinds the attached tracer consumes — none without
// a tracer. Emission sites outside the core test it before building an
// event's arguments.
func (c *Core) Kinds() TraceKinds { return c.kinds }

// SetTask stamps subsequent events with the given NFTask slot (-1 for
// none). Runtimes call this whenever a tracer is attached, whatever its
// kinds, so a filtered stream carries the stamps the full one does.
func (c *Core) SetTask(slot int32) { c.curTask = slot }

// SetCS stamps subsequent events with the given control state (-1 for
// none). model.Program calls this whenever a tracer is attached.
func (c *Core) SetCS(cs int32) { c.curCS = cs }

// Emit records an event stamped with the current clock, task and
// control state into the core's buffer, flushing when it fills. It is
// a no-op unless the attached tracer consumes kind; callers on hot
// paths guard with Kinds (or their own test of the tracer) to avoid
// constructing the arguments.
func (c *Core) Emit(kind TraceKind, cause StallCause, a, b, x uint64) {
	if c.kinds&(1<<kind) == 0 {
		return
	}
	ev := &c.tbuf[c.tn]
	ev.Cycle = c.clock
	ev.A = a
	ev.B = b
	ev.C = x
	ev.Task = c.curTask
	ev.CS = c.curCS
	ev.Kind = kind
	ev.Cause = cause
	c.tn++
	if c.tn == len(c.tbuf) {
		c.FlushTrace()
	}
}

// FlushTrace hands every buffered event to the tracer, in emission
// order, and empties the buffer. The flush points are: buffer full,
// the return of every worker Run, SetTracer, Reset and
// CorePool.Put — so whoever reads a tracer between runs (a telemetry
// window boundary, a flight dump, a test) sees a complete stream.
// Code that drives a traced core without a worker calls it before
// reading its tracer. Deferral is counter-neutral for the same reason
// tracing is: delivery only reads the buffer.
func (c *Core) FlushTrace() {
	n := c.tn
	if n == 0 {
		return
	}
	c.tn = 0
	evs := c.tbuf[:n]
	if c.trcBatch != nil {
		c.trcBatch.EventBatch(evs)
		return
	}
	for i := range evs {
		c.trc.Event(evs[i])
	}
}
