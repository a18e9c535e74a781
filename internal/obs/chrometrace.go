package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"github.com/gunfu-nfv/gunfu/internal/model"
	"github.com/gunfu-nfv/gunfu/internal/sim"
)

// Thread-id layout of the exported trace: one track for the dispatch /
// receive path, one per interleaved NFTask slot, and one per slot for
// its in-flight prefetches (fills overlap, so they get their own row).
const (
	tidDispatch = 0
	tidTaskBase = 1
	tidPfBase   = 1000
)

// TraceWriter is a sim.Tracer that records the raw event stream and
// exports it as Chrome trace-event JSON (the format Perfetto and
// chrome://tracing load). Action executions become "X" complete slices
// on the owning task's track, stalls nest inside them, prefetch fills
// ride a per-task prefetch track, and rx/done/switch markers are "i"
// instants. Timestamps are cycles converted to microseconds at freqHz.
type TraceWriter struct {
	prog   *model.Program
	freq   float64
	events []sim.TraceEvent
}

// NewTraceWriter builds a trace recorder for programs compiled like
// prog on a core clocked at freqHz.
func NewTraceWriter(prog *model.Program, freqHz float64) *TraceWriter {
	return &TraceWriter{prog: prog, freq: freqHz}
}

// traceWriterKinds are the kinds convert renders.
var traceWriterKinds = sim.AllTraceKinds &^ sim.KindSet(sim.TraceAccess, sim.TraceActionBegin, sim.TracePrefetchUseful)

// TraceKinds implements sim.KindTracer: the kinds with a visual form —
// every kind but state accesses, action begins (a slice is emitted
// whole at its end) and useful-prefetch hits.
func (tw *TraceWriter) TraceKinds() sim.TraceKinds { return traceWriterKinds }

// Event implements sim.Tracer.
func (tw *TraceWriter) Event(ev sim.TraceEvent) {
	tw.events = append(tw.events, ev)
}

// EventBatch implements sim.BatchTracer.
func (tw *TraceWriter) EventBatch(evs []sim.TraceEvent) {
	tw.events = append(tw.events, evs...)
}

// Len returns the number of recorded events.
func (tw *TraceWriter) Len() int { return len(tw.events) }

// chromeEvent is one entry of the trace-event JSON "traceEvents" array.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Cat  string         `json:"cat,omitempty"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

func (tw *TraceWriter) us(cycles uint64) float64 {
	return float64(cycles) / tw.freq * 1e6
}

// taskTid maps an event's task stamp to its track.
func taskTid(task int32) int {
	if task < 0 {
		return tidDispatch
	}
	return tidTaskBase + int(task)
}

// csName resolves a CS stamp to its "module.state" name.
func (tw *TraceWriter) csName(cs int32) string {
	if info, err := tw.prog.CS(model.CSID(cs)); err == nil {
		return info.Name
	}
	return fmt.Sprintf("cs-%d", cs)
}

// convert lowers one trace event to its chrome representation; ok is
// false for events with no visual form.
func (tw *TraceWriter) convert(ev sim.TraceEvent) (chromeEvent, bool) {
	switch ev.Kind {
	case sim.TraceActionEnd:
		// Begin cycle is Cycle-B; emitting on End keeps this one-pass.
		return chromeEvent{
			Name: tw.csName(ev.CS), Ph: "X",
			Ts: tw.us(ev.Cycle - ev.B), Dur: tw.us(ev.B),
			Tid: taskTid(ev.Task), Cat: "action",
			Args: map[string]any{"action": ev.A, "cycles": ev.B},
		}, true
	case sim.TraceStall:
		return chromeEvent{
			Name: "stall:" + ev.Cause.String(), Ph: "X",
			Ts: tw.us(ev.Cycle - ev.A), Dur: tw.us(ev.A),
			Tid: taskTid(ev.Task), Cat: "stall",
			Args: map[string]any{"cycles": ev.A, "addr": fmt.Sprintf("%#x", ev.B)},
		}, true
	case sim.TracePrefetchIssued:
		dur := float64(0)
		if ev.B > ev.Cycle {
			dur = tw.us(ev.B - ev.Cycle)
		}
		tid := tidPfBase
		if ev.Task >= 0 {
			tid += int(ev.Task)
		}
		return chromeEvent{
			Name: "fill " + tw.csName(ev.CS), Ph: "X",
			Ts: tw.us(ev.Cycle), Dur: dur, Tid: tid, Cat: "prefetch",
			Args: map[string]any{"line": fmt.Sprintf("%#x", ev.A)},
		}, true
	case sim.TraceRx:
		return chromeEvent{
			Name: "rx", Ph: "i", Ts: tw.us(ev.Cycle),
			Tid: taskTid(ev.Task), Cat: "packet", S: "t",
			Args: map[string]any{"addr": fmt.Sprintf("%#x", ev.A), "bits": ev.B},
		}, true
	case sim.TraceStreamDone:
		return chromeEvent{
			Name: "done", Ph: "i", Ts: tw.us(ev.Cycle),
			Tid: taskTid(ev.Task), Cat: "packet", S: "t",
			Args: map[string]any{"addr": fmt.Sprintf("%#x", ev.A)},
		}, true
	case sim.TraceTaskSwitch:
		return chromeEvent{
			Name: "switch", Ph: "i", Ts: tw.us(ev.Cycle),
			Tid: taskTid(ev.Task), Cat: "sched", S: "t",
		}, true
	case sim.TraceTransition:
		return chromeEvent{
			Name: "→" + tw.csName(int32(ev.B)), Ph: "i", Ts: tw.us(ev.Cycle),
			Tid: taskTid(ev.Task), Cat: "fsm", S: "t",
			Args: map[string]any{"event": ev.A},
		}, true
	case sim.TracePrefetchDropped, sim.TracePrefetchRedundant:
		return chromeEvent{
			Name: ev.Kind.String(), Ph: "i", Ts: tw.us(ev.Cycle),
			Tid: taskTid(ev.Task), Cat: "prefetch", S: "t",
			Args: map[string]any{"line": fmt.Sprintf("%#x", ev.A)},
		}, true
	}
	return chromeEvent{}, false
}

// threadName labels a tid for the metadata record.
func threadName(tid int) string {
	switch {
	case tid == tidDispatch:
		return "dispatch"
	case tid >= tidPfBase:
		return fmt.Sprintf("task %d prefetch", tid-tidPfBase)
	default:
		return fmt.Sprintf("task %d", tid-tidTaskBase)
	}
}

// WriteJSON exports the recorded events as a Chrome trace-event JSON
// object: {"displayTimeUnit":"ns","traceEvents":[...]}. The output
// loads directly in ui.perfetto.dev or chrome://tracing.
func (tw *TraceWriter) WriteJSON(w io.Writer) error {
	if tw.freq <= 0 {
		return fmt.Errorf("obs: trace writer needs a positive clock, got %v", tw.freq)
	}
	if _, err := io.WriteString(w, `{"displayTimeUnit":"ns","traceEvents":[`); err != nil {
		return err
	}
	tids := map[int]bool{}
	first := true
	emit := func(ce chromeEvent) error {
		b, err := json.Marshal(ce)
		if err != nil {
			return err
		}
		if !first {
			if _, err := io.WriteString(w, ",\n"); err != nil {
				return err
			}
		}
		first = false
		_, err = w.Write(b)
		return err
	}
	// Metadata first: name every track a rendered kind appears on, so
	// kinds outside TraceKinds (recorded beside a wider tracer, or by a
	// flight recorder) leave the output as it is.
	for _, ev := range tw.events {
		if !traceWriterKinds.Has(ev.Kind) {
			continue
		}
		tids[taskTid(ev.Task)] = true
		if ev.Kind == sim.TracePrefetchIssued && ev.Task >= 0 {
			tids[tidPfBase+int(ev.Task)] = true
		}
	}
	sorted := make([]int, 0, len(tids))
	for tid := range tids {
		sorted = append(sorted, tid)
	}
	sort.Ints(sorted)
	for _, tid := range sorted {
		err := emit(chromeEvent{
			Name: "thread_name", Ph: "M", Tid: tid,
			Args: map[string]any{"name": threadName(tid)},
		})
		if err != nil {
			return err
		}
	}
	for _, ev := range tw.events {
		ce, ok := tw.convert(ev)
		if !ok {
			continue
		}
		if err := emit(ce); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "]}\n")
	return err
}
