package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

// span is one timed interval recorded by the harness around a call
// into a layer: name, start, end and the span that caused it. Spans
// live in the harness, never in the program under test.
type span struct {
	name   string
	parent int // index into spans.all, -1 for a root
	start  time.Duration
	end    time.Duration
}

// spans is the in-memory span log of one workload run. All spans of a
// run share its id; they are written out only when the run ends.
type spans struct {
	id    string
	t0    time.Time
	all   []span
	stack []int
}

func newSpans(id string) *spans {
	return &spans{id: id, t0: time.Now()}
}

// do runs fn inside a span named name, nested under the open span.
func (s *spans) do(name string, fn func() error) error {
	i := s.begin(name)
	err := fn()
	s.finish(i)
	return err
}

func (s *spans) begin(name string) int {
	parent := -1
	if n := len(s.stack); n > 0 {
		parent = s.stack[n-1]
	}
	s.all = append(s.all, span{name: name, parent: parent, start: time.Since(s.t0)})
	i := len(s.all) - 1
	s.stack = append(s.stack, i)
	return i
}

func (s *spans) finish(i int) {
	s.all[i].end = time.Since(s.t0)
	s.stack = s.stack[:len(s.stack)-1]
}

// child records an already-measured interval of length d as a child of
// the open span, placed at that span's start. The timing source uses it
// to report one aggregated traffic.next span per rt.run window instead
// of one per packet.
func (s *spans) child(name string, d time.Duration) {
	parent := s.stack[len(s.stack)-1]
	st := s.all[parent].start
	s.all = append(s.all, span{name: name, parent: parent, start: st, end: st + d})
}

// dur returns the summed duration of every span called name.
func (s *spans) dur(name string) time.Duration {
	var d time.Duration
	for _, sp := range s.all {
		if sp.name == name {
			d += sp.end - sp.start
		}
	}
	return d
}

// printSummary prints, per span name, how often it ran, its total time
// and its self time: total minus the part its direct children cover.
func (s *spans) printSummary(w io.Writer) {
	type sum struct {
		n           int
		total, self time.Duration
	}
	by := map[string]*sum{}
	var names []string
	get := func(name string) *sum {
		if by[name] == nil {
			by[name] = &sum{}
			names = append(names, name)
		}
		return by[name]
	}
	for _, sp := range s.all {
		d := sp.end - sp.start
		e := get(sp.name)
		e.n++
		e.total += d
		e.self += d
		if sp.parent >= 0 {
			get(s.all[sp.parent].name).self -= d
		}
	}
	fmt.Fprintf(w, "-- %s spans\n  %-28s %6s %12s %12s\n", s.id, "name", "n", "total_ms", "self_ms")
	for _, name := range names {
		e := by[name]
		fmt.Fprintf(w, "  %-28s %6d %12.3f %12.3f\n", name, e.n,
			1000*e.total.Seconds(), 1000*e.self.Seconds())
	}
}

// flush ends a traced run's span log: it prints the self-time summary,
// writes the spans out, and records where in the run's info.
func (s *spans) flush(o runOpts, out *outcome) error {
	s.printSummary(o.log)
	path, err := s.writeChrome(o.outDir)
	if err != nil {
		return err
	}
	out.info["spans"] = filepath.ToSlash(path)
	return nil
}

// writeChrome writes the spans as Chrome trace-event JSON (complete
// "X" events, microseconds), loadable in ui.perfetto.dev.
func (s *spans) writeChrome(dir string) (string, error) {
	type event struct {
		Name string            `json:"name"`
		Ph   string            `json:"ph"`
		Ts   float64           `json:"ts"`
		Dur  float64           `json:"dur"`
		Pid  int               `json:"pid"`
		Tid  int               `json:"tid"`
		Args map[string]string `json:"args"`
	}
	events := make([]event, 0, len(s.all))
	for i, sp := range s.all {
		parent := ""
		if sp.parent >= 0 {
			parent = fmt.Sprintf("%d:%s", sp.parent, s.all[sp.parent].name)
		}
		events = append(events, event{
			Name: sp.name, Ph: "X",
			Ts:  float64(sp.start) / float64(time.Microsecond),
			Dur: float64(sp.end-sp.start) / float64(time.Microsecond),
			Pid: 1, Tid: 1,
			Args: map[string]string{"run": s.id, "span": fmt.Sprint(i), "parent": parent},
		})
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("bench: span dir: %w", err)
	}
	path := filepath.Join(dir, s.id+".trace.json")
	b, err := json.Marshal(map[string]any{"traceEvents": events})
	if err != nil {
		return "", fmt.Errorf("bench: encode spans: %w", err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return "", fmt.Errorf("bench: write spans: %w", err)
	}
	return path, nil
}
