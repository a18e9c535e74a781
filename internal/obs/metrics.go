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
//   - Updates are heartbeat-rate (per StatsEvery window), scrapes are
//     human/Prometheus-rate. One registry-wide mutex is plenty; nothing
//     here is on the simulation hot path.
//   - Quantiles come from stats.Histogram via a scrape-time callback,
//     so the histogram owner controls synchronization and the registry
//     never holds stale quantile snapshots.

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
// exposition. It is an http.Handler (mount it at /metrics) and is safe
// for concurrent use. The zero Registry is not ready; use NewRegistry.
type Registry struct {
	mu     sync.Mutex
	fams   []*Family
	byName map[string]*Family
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*Family)}
}

// Family is one named metric family holding zero or more label-set
// series. Families render in registration order; series within a
// family render in first-use order.
type Family struct {
	reg  *Registry
	name string
	help string
	typ  MetricType

	order  []string
	series map[string]*Metric

	// collect, when set, refreshes the family under the registry lock
	// immediately before each scrape (runtime gauges, FamilyFunc
	// families, summaries).
	collect func(f *Family)
}

// Metric is one series of a family: a label set and a value. Mutate it
// through Set/Add/Inc; reads happen at scrape time.
type Metric struct {
	fam    *Family
	labels string // pre-rendered `{k="v",...}` or ""
	val    float64
}

// family registers or fetches a family, enforcing one type per name.
func (r *Registry) family(name, help string, typ MetricType) *Family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.byName[name]; ok {
		if f.typ != typ {
			panic(fmt.Sprintf("obs: metric %q re-registered as %v (was %v)", name, typ, f.typ))
		}
		return f
	}
	if !validMetricName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	f := &Family{reg: r, name: name, help: help, typ: typ, series: make(map[string]*Metric)}
	r.fams = append(r.fams, f)
	r.byName[name] = f
	return f
}

// Counter registers (or fetches) a counter family and returns its
// unlabeled series.
func (r *Registry) Counter(name, help string) *Metric {
	return r.family(name, help, TypeCounter).With()
}

// Gauge registers (or fetches) a gauge family and returns its
// unlabeled series.
func (r *Registry) Gauge(name, help string) *Metric {
	return r.family(name, help, TypeGauge).With()
}

// CounterFamily registers (or fetches) a counter family for labeled
// series; call With on the result per label set.
func (r *Registry) CounterFamily(name, help string) *Family {
	return r.family(name, help, TypeCounter)
}

// GaugeFamily registers (or fetches) a gauge family for labeled series.
func (r *Registry) GaugeFamily(name, help string) *Family {
	return r.family(name, help, TypeGauge)
}

// Emit sets one series of a scrape-time family: its value and label
// pairs (k1, v1, k2, v2, ...).
type Emit func(v float64, labels ...string)

// FamilyFunc registers a family whose series fn emits afresh at every
// scrape, in emission order; a series fn does not emit is not exposed.
// fn runs under the registry lock and must not call back into the
// registry.
func (r *Registry) FamilyFunc(name, help string, typ MetricType, fn func(Emit)) {
	f := r.family(name, help, typ)
	r.mu.Lock()
	f.collect = func(f *Family) {
		f.resetSeries()
		fn(func(v float64, labels ...string) { f.with(labels...).val = v })
	}
	r.mu.Unlock()
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

// With returns the series for the given label pairs (k1, v1, k2, v2,
// ...), creating it on first use. An odd pair count panics.
func (f *Family) With(labels ...string) *Metric {
	f.reg.mu.Lock()
	defer f.reg.mu.Unlock()
	return f.with(labels...)
}

// with is With without the lock, for collect callbacks. Label keys
// beginning with '#' are rendering directives (summary _sum/_count
// pseudo-series), not labels.
func (f *Family) with(labels ...string) *Metric {
	if len(labels)%2 != 0 && !(len(labels) == 1 && strings.HasPrefix(labels[0], "#")) {
		panic(fmt.Sprintf("obs: metric %q: odd label pairs %v", f.name, labels))
	}
	key := renderLabels(labels)
	if m, ok := f.series[key]; ok {
		return m
	}
	m := &Metric{fam: f, labels: key}
	f.series[key] = m
	f.order = append(f.order, key)
	return m
}

// ResetSeries drops every series of the family (label churn on
// deployment change: old label sets stop being exported rather than
// freezing at their last value).
func (f *Family) ResetSeries() {
	f.reg.mu.Lock()
	defer f.reg.mu.Unlock()
	f.resetSeries()
}

// resetSeries is ResetSeries without the lock, for collect callbacks.
func (f *Family) resetSeries() {
	f.order = f.order[:0]
	for k := range f.series {
		delete(f.series, k)
	}
}

// Set sets the series value.
func (m *Metric) Set(v float64) {
	m.fam.reg.mu.Lock()
	m.val = v
	m.fam.reg.mu.Unlock()
}

// Add increments the series value by v.
func (m *Metric) Add(v float64) {
	m.fam.reg.mu.Lock()
	m.val += v
	m.fam.reg.mu.Unlock()
}

// Inc increments the series value by one.
func (m *Metric) Inc() { m.Add(1) }

// Value returns the current series value.
func (m *Metric) Value() float64 {
	m.fam.reg.mu.Lock()
	defer m.fam.reg.mu.Unlock()
	return m.val
}

// renderLabels pre-renders a label pair list to `{k="v",...}` with
// OpenMetrics escaping; "" for no labels, and rendering directives
// ("#sum", "#count") pass through verbatim.
func renderLabels(labels []string) string {
	if len(labels) == 0 {
		return ""
	}
	if len(labels) == 1 && strings.HasPrefix(labels[0], "#") {
		return labels[0]
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
// terminated by "# EOF". Scrape-time collect hooks run first.
func (r *Registry) Expose(w io.Writer) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	var sb strings.Builder
	for _, f := range r.fams {
		if f.collect != nil {
			f.collect(f)
		}
		if len(f.order) == 0 {
			continue
		}
		if f.help != "" {
			fmt.Fprintf(&sb, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		}
		fmt.Fprintf(&sb, "# TYPE %s %s\n", f.name, f.typ)
		for _, key := range f.order {
			m := f.series[key]
			switch {
			case key == "#sum":
				fmt.Fprintf(&sb, "%s_sum %s\n", f.name, formatValue(m.val))
			case key == "#count":
				fmt.Fprintf(&sb, "%s_count %s\n", f.name, formatValue(m.val))
			default:
				fmt.Fprintf(&sb, "%s%s%s %s\n", f.name, f.typ.suffix(), key, formatValue(m.val))
			}
		}
	}
	sb.WriteString("# EOF\n")
	_, err := io.WriteString(w, sb.String())
	return err
}

// ServeHTTP implements http.Handler with the OpenMetrics content type.
func (r *Registry) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/openmetrics-text; version=1.0.0; charset=utf-8")
	_ = r.Expose(w)
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
	samples := make([]metrics.Sample, 0, len(goRuntimeMetrics))
	type slot struct{ fam *Family }
	slots := make([]slot, 0, len(goRuntimeMetrics))
	for _, gm := range goRuntimeMetrics {
		kind, ok := known[gm.src]
		if !ok || (kind != metrics.KindUint64 && kind != metrics.KindFloat64) {
			continue
		}
		samples = append(samples, metrics.Sample{Name: gm.src})
		slots = append(slots, slot{fam: r.family(gm.name, gm.help, gm.typ)})
	}
	if len(samples) == 0 {
		return
	}
	// One collect hook refreshes every runtime gauge with a single
	// metrics.Read; hang it off the first family (collect hooks run
	// per-family in registration order, so one owner suffices).
	r.mu.Lock()
	slots[0].fam.collect = func(*Family) {
		metrics.Read(samples)
		for i, s := range samples {
			var v float64
			switch s.Value.Kind() {
			case metrics.KindUint64:
				v = float64(s.Value.Uint64())
			case metrics.KindFloat64:
				v = s.Value.Float64()
			}
			slots[i].fam.with().val = v
		}
	}
	r.mu.Unlock()
}

// Families returns the registered family names in registration order
// (for tests and diagnostics).
func (r *Registry) Families() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, len(r.fams))
	for i, f := range r.fams {
		names[i] = f.name
	}
	return names
}
