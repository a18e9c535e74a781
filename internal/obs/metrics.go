package obs

// This file is the serving half of the observability layer: a
// stdlib-only OpenMetrics/Prometheus text-exposition registry. The
// tracing side (Collector, TraceWriter, FlightRecorder) answers "what
// happened inside one run"; the registry answers "what is this process
// doing right now" to anything that can speak HTTP — Prometheus or a
// curl of the worker's /metrics.
//
// Design constraints, in order:
//
//   - No dependencies. The exposition format is a few lines of framing
//     around name/labels/value triples; a client library would be 100x
//     the code it replaces.
//   - One copy of every value. The registry stores none: each family
//     is a scrape-time function over the value's owner (the director's
//     Monitor fold, a stats.Histogram, runtime/metrics), so the owner
//     controls synchronization and the exposition is never stale.
//   - Scrapes are human/Prometheus-rate. One registry-wide mutex is
//     plenty; nothing here is on the simulation hot path.

import (
	"fmt"
	"io"
	"net/http"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"

	"github.com/gunfu-nfv/gunfu/internal/stats"
)

// MetricType is the OpenMetrics family type.
type MetricType uint8

// The supported family types.
const (
	// TypeGauge is a value that can go up and down.
	TypeGauge MetricType = iota
	// TypeCounter is a monotonically increasing value; its samples are
	// exposed with the OpenMetrics "_total" suffix.
	TypeCounter
	// TypeSummary is a quantile summary backed by a stats.Histogram.
	TypeSummary
)

// suffix returns the sample-name suffix the type mandates.
func (t MetricType) suffix() string {
	if t == TypeCounter {
		return "_total"
	}
	return ""
}

func (t MetricType) String() string {
	switch t {
	case TypeCounter:
		return "counter"
	case TypeSummary:
		return "summary"
	default:
		return "gauge"
	}
}

// Registry is a set of metric families rendered as OpenMetrics text
// exposition. Every family is scrape-time: its collect function emits
// the current series at each Expose, so the registry stores no values.
// It is an http.Handler (mount it at /metrics) and is safe for
// concurrent use. The zero Registry is not ready; use NewRegistry.
type Registry struct {
	mu     sync.Mutex
	fams   []*family
	byName map[string]*family
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

// family is one named metric family. Families render in registration
// order; series within a family render in emission order.
type family struct {
	name    string
	help    string
	typ     MetricType
	collect func(Emit)
}

// Emit writes one series of a scrape-time family: its value and label
// pairs (k1, v1, k2, v2, ...). An odd pair count fails the scrape.
type Emit func(v float64, labels ...string)

// FamilyFunc registers a family whose series fn emits afresh at every
// scrape, in emission order; a family fn emits nothing for is not
// exposed, HELP and TYPE lines included. Registering a name again with
// the same type replaces its fn; a different type or an invalid name
// panics. fn runs under the registry lock and must not call back into
// the registry.
func (r *Registry) FamilyFunc(name, help string, typ MetricType, fn func(Emit)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.byName[name]; ok {
		if f.typ != typ {
			panic(fmt.Sprintf("obs: metric %q re-registered as %v (was %v)", name, typ, f.typ))
		}
		f.collect = fn
		return
	}
	if !validMetricName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	f := &family{name: name, help: help, typ: typ, collect: fn}
	r.fams = append(r.fams, f)
	r.byName[name] = f
}

// Summary registers a quantile summary over the histogram src returns.
// src runs at scrape time (under the registry lock; it must not call
// back into the registry) and should return a consistent snapshot —
// hand out a Clone if the histogram is concurrently mutated; nil
// exposes no series. qs defaults to p50/p95/p99/p99.9.
func (r *Registry) Summary(name, help string, src func() *stats.Histogram, qs ...float64) {
	if len(qs) == 0 {
		qs = []float64{0.5, 0.95, 0.99, 0.999}
	}
	r.FamilyFunc(name, help, TypeSummary, func(emit Emit) {
		h := src()
		if h == nil {
			return
		}
		for _, q := range qs {
			emit(float64(h.Quantile(q)), "quantile", strconv.FormatFloat(q, 'g', -1, 64))
		}
		emit(float64(h.Sum()), "#sum")
		emit(float64(h.Count()), "#count")
	})
}

// sampleName returns the exposition name and rendered labels of one
// series of f. Label keys beginning with '#' are rendering directives
// (summary _sum/_count pseudo-series), not labels.
func (f *family) sampleName(labels []string) (string, error) {
	if len(labels) == 1 && strings.HasPrefix(labels[0], "#") {
		return f.name + "_" + labels[0][1:], nil
	}
	if len(labels)%2 != 0 {
		return "", fmt.Errorf("obs: metric %q: odd label pairs %v", f.name, labels)
	}
	return f.name + f.typ.suffix() + renderLabels(labels), nil
}

// renderLabels renders a label pair list to `{k="v",...}` with
// OpenMetrics escaping; "" for no labels.
func renderLabels(labels []string) string {
	if len(labels) == 0 {
		return ""
	}
	var sb strings.Builder
	sb.WriteByte('{')
	for i := 0; i < len(labels); i += 2 {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(labels[i])
		sb.WriteString(`="`)
		sb.WriteString(escapeLabelValue(labels[i+1]))
		sb.WriteByte('"')
	}
	sb.WriteByte('}')
	return sb.String()
}

// escapeLabelValue applies the exposition-format escapes.
func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// escapeHelp escapes a HELP string.
func escapeHelp(v string) string {
	if !strings.ContainsAny(v, "\\\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	return r.Replace(v)
}

// validMetricName reports whether name matches [a-zA-Z_:][a-zA-Z0-9_:]*.
func validMetricName(name string) bool {
	if name == "" {
		return false
	}
	for i, c := range name {
		letter := c == '_' || c == ':' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
		if !letter && (i == 0 || c < '0' || c > '9') {
			return false
		}
	}
	return true
}

// formatValue renders a sample value: integral values without an
// exponent (counters read naturally), everything else via %g.
func formatValue(v float64) string {
	if v == float64(int64(v)) && v < 1e15 && v > -1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Expose renders the registry as OpenMetrics text exposition,
// terminated by "# EOF": each family's collect function runs in
// registration order and its samples are written as it emits them. A
// family that emits a malformed series fails the scrape: Expose returns
// the error, naming the family, and writes nothing.
func (r *Registry) Expose(w io.Writer) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	var sb strings.Builder
	var err error
	for _, f := range r.fams {
		header := false
		f.collect(func(v float64, labels ...string) {
			if err != nil {
				return
			}
			var name string
			if name, err = f.sampleName(labels); err != nil {
				return
			}
			if !header {
				if f.help != "" {
					fmt.Fprintf(&sb, "# HELP %s %s\n", f.name, escapeHelp(f.help))
				}
				fmt.Fprintf(&sb, "# TYPE %s %s\n", f.name, f.typ)
				header = true
			}
			fmt.Fprintf(&sb, "%s %s\n", name, formatValue(v))
		})
	}
	if err != nil {
		return err
	}
	sb.WriteString("# EOF\n")
	_, err = io.WriteString(w, sb.String())
	return err
}

// ServeHTTP implements http.Handler with the OpenMetrics content type;
// a scrape that fails is answered 500 with its error.
func (r *Registry) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	var sb strings.Builder
	if err := r.Expose(&sb); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/openmetrics-text; version=1.0.0; charset=utf-8")
	_, _ = io.WriteString(w, sb.String())
}

// goRuntimeMetrics maps the curated runtime/metrics samples the
// registry exports to their exposition names. Kept small on purpose:
// the scrape should answer "is the Go runtime the bottleneck", not
// mirror the whole runtime/metrics catalogue.
var goRuntimeMetrics = []struct {
	src  string
	name string
	help string
	typ  MetricType
}{
	{"/sched/goroutines:goroutines", "go_goroutines", "Number of live goroutines.", TypeGauge},
	{"/memory/classes/heap/objects:bytes", "go_heap_objects_bytes", "Bytes of live heap objects.", TypeGauge},
	{"/memory/classes/total:bytes", "go_memory_total_bytes", "All memory mapped by the Go runtime.", TypeGauge},
	{"/gc/heap/allocs:bytes", "go_heap_allocs_bytes", "Cumulative bytes allocated on the heap.", TypeCounter},
	{"/gc/cycles/total:gc-cycles", "go_gc_cycles", "Completed GC cycles.", TypeCounter},
}

// AddGoRuntime registers the curated Go runtime gauges, sampled from
// runtime/metrics at scrape time.
func (r *Registry) AddGoRuntime() {
	// Resolve which of the curated metrics this runtime actually
	// provides (and with a scalar kind we can export).
	all := metrics.All()
	known := make(map[string]metrics.ValueKind, len(all))
	for _, d := range all {
		known[d.Name] = d.Kind
	}
	var samples []metrics.Sample
	for _, gm := range goRuntimeMetrics {
		kind, ok := known[gm.src]
		if !ok || (kind != metrics.KindUint64 && kind != metrics.KindFloat64) {
			continue
		}
		// The first family's fn refreshes every sample with one
		// metrics.Read; the rest run after it in the same scrape (fns
		// run in registration order) and read their sample.
		i := len(samples)
		samples = append(samples, metrics.Sample{Name: gm.src})
		r.FamilyFunc(gm.name, gm.help, gm.typ, func(emit Emit) {
			if i == 0 {
				metrics.Read(samples)
			}
			switch v := samples[i].Value; v.Kind() {
			case metrics.KindUint64:
				emit(float64(v.Uint64()))
			case metrics.KindFloat64:
				emit(v.Float64())
			}
		})
	}
}
