package obs_test

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"

	"github.com/gunfu-nfv/gunfu/internal/obs"
	"github.com/gunfu-nfv/gunfu/internal/stats"
)

func scrape(t *testing.T, reg *obs.Registry) string {
	t.Helper()
	var sb strings.Builder
	if err := reg.Expose(&sb); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// sample returns the value exposition out carries for series (a name
// with its rendered labels), failing t if there is none.
func sample(t *testing.T, out, series string) float64 {
	t.Helper()
	for _, line := range strings.Split(out, "\n") {
		if v, ok := strings.CutPrefix(line, series+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatal(err)
			}
			return f
		}
	}
	t.Fatalf("no %s sample in:\n%s", series, out)
	return 0
}

// value registers a family exposing the one unlabeled series v.
func value(reg *obs.Registry, name, help string, typ obs.MetricType, v float64) {
	reg.FamilyFunc(name, help, typ, func(emit obs.Emit) { emit(v) })
}

func TestRegistryExposition(t *testing.T) {
	reg := obs.NewRegistry()
	value(reg, "gunfu_packets", "Packets processed.", obs.TypeCounter, 1500)
	value(reg, "gunfu_ipc", "Last-window IPC.", obs.TypeGauge, 1.75)
	reg.FamilyFunc("gunfu_pmu", "Raw PMU counters.", obs.TypeCounter, func(emit obs.Emit) {
		emit(42, "counter", "l1_misses")
		emit(7, "counter", "llc_misses")
	})
	var h stats.Histogram
	for v := uint64(1); v <= 1000; v++ {
		h.Add(v)
	}
	reg.Summary("gunfu_latency_cycles", "rx to done latency.", func() *stats.Histogram { return &h })
	reg.FamilyFunc("gunfu_up", "Liveness.", obs.TypeGauge, func(emit obs.Emit) { emit(1) })
	reg.FamilyFunc("gunfu_info", "Scrape-time series.", obs.TypeGauge, func(emit obs.Emit) {
		emit(1, "nf", "nat")
		emit(2, "nf", "sfc")
	})
	reg.FamilyFunc("gunfu_empty", "Emits nothing.", obs.TypeGauge, func(obs.Emit) {})
	reg.Summary("gunfu_no_histogram", "Nil source.", func() *stats.Histogram { return nil })

	out := scrape(t, reg)
	for _, want := range []string{
		"# HELP gunfu_packets Packets processed.\n",
		"# TYPE gunfu_packets counter\n",
		"gunfu_packets_total 1500\n",
		"# TYPE gunfu_ipc gauge\n",
		"gunfu_ipc 1.75\n",
		`gunfu_pmu_total{counter="l1_misses"} 42` + "\n",
		`gunfu_pmu_total{counter="llc_misses"} 7` + "\n",
		"# TYPE gunfu_latency_cycles summary\n",
		`gunfu_latency_cycles{quantile="0.5"} `,
		`gunfu_latency_cycles{quantile="0.999"} `,
		"gunfu_latency_cycles_sum 500500\n",
		"gunfu_latency_cycles_count 1000\n",
		"gunfu_up 1\n",
		`gunfu_info{nf="nat"} 1` + "\n" + `gunfu_info{nf="sfc"} 2` + "\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	if !strings.HasSuffix(out, "# EOF\n") {
		t.Fatalf("exposition must end with # EOF:\n%s", out)
	}
	// Families render once: one TYPE line per family.
	if strings.Count(out, "# TYPE gunfu_pmu ") != 1 {
		t.Fatalf("duplicate TYPE lines:\n%s", out)
	}
	// Counter sample names carry _total, the family name does not.
	if strings.Contains(out, "# TYPE gunfu_packets_total") {
		t.Fatalf("family name must not carry the _total suffix:\n%s", out)
	}
	// A family that emits nothing gets no HELP or TYPE line.
	if strings.Contains(out, "gunfu_empty") || strings.Contains(out, "gunfu_no_histogram") {
		t.Fatalf("empty family exposed:\n%s", out)
	}
}

func TestRegistryLabelEscaping(t *testing.T) {
	reg := obs.NewRegistry()
	reg.FamilyFunc("weird", "with \"quotes\" and\nnewline", obs.TypeGauge, func(emit obs.Emit) {
		emit(3, "k", `a"b\c`+"\nd")
	})
	out := scrape(t, reg)
	if !strings.Contains(out, `# HELP weird with "quotes" and\nnewline`+"\n") {
		t.Fatalf("help not escaped:\n%s", out)
	}
	if !strings.Contains(out, `weird{k="a\"b\\c\nd"} 3`+"\n") {
		t.Fatalf("label not escaped:\n%s", out)
	}
}

func TestRegistryServeHTTP(t *testing.T) {
	reg := obs.NewRegistry()
	value(reg, "hits", "Hits.", obs.TypeCounter, 3)
	reg.FamilyFunc("temp", "Temp.", obs.TypeGauge, func(emit obs.Emit) { emit(20.5, "zone", "a") })

	srv := httptest.NewServer(reg)
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "openmetrics-text") {
		t.Fatalf("content type = %q", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if got := sample(t, string(raw), "hits_total"); got != 3 {
		t.Fatalf("hits = %v", got)
	}
	if got := sample(t, string(raw), `temp{zone="a"}`); got != 20.5 {
		t.Fatalf("temp = %v", got)
	}
}

func TestRegistryGoRuntime(t *testing.T) {
	reg := obs.NewRegistry()
	reg.AddGoRuntime()
	out := scrape(t, reg)
	if !strings.Contains(out, "# TYPE go_goroutines gauge\n") {
		t.Fatalf("missing go_goroutines:\n%s", out)
	}
	// A live process has at least one goroutine and a nonzero heap.
	if got := sample(t, out, "go_goroutines"); got < 1 {
		t.Fatalf("go_goroutines = %v", got)
	}
	if got := sample(t, out, "go_memory_total_bytes"); got <= 0 {
		t.Fatalf("go_memory_total_bytes = %v", got)
	}
}

// TestRegistryReRegistration: registering a name again with the same
// type replaces its fn (one family, one TYPE line, the new value); a
// type conflict and an invalid name panic at registration. Odd label
// pairs, which only a scrape can see, fail it: Expose returns an error
// naming the family and writes nothing, and ServeHTTP answers 500.
func TestRegistryReRegistration(t *testing.T) {
	reg := obs.NewRegistry()
	value(reg, "c", "help", obs.TypeCounter, 1)
	value(reg, "c", "help", obs.TypeCounter, 2)
	out := scrape(t, reg)
	if got := sample(t, out, "c_total"); got != 2 || strings.Count(out, "# TYPE c ") != 1 {
		t.Fatalf("re-registration must replace the fn of the one family:\n%s", out)
	}
	mustPanic := func(what string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s must panic", what)
			}
		}()
		f()
	}
	mustPanic("type conflict", func() { value(reg, "c", "help", obs.TypeGauge, 1) })
	mustPanic("invalid name", func() { value(reg, "9lives", "", obs.TypeGauge, 1) })
	reg.FamilyFunc("odd", "", obs.TypeGauge, func(emit obs.Emit) { emit(1, "k") })
	var sb strings.Builder
	if err := reg.Expose(&sb); err == nil || !strings.Contains(err.Error(), `"odd"`) || sb.Len() != 0 {
		t.Fatalf("odd label pairs: Expose error %v after writing %q, want an error naming the family and no output", err, sb.String())
	}
	srv := httptest.NewServer(reg)
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if body, _ := io.ReadAll(resp.Body); resp.StatusCode != http.StatusInternalServerError || !strings.Contains(string(body), "odd label pairs") {
		t.Fatalf("odd label pairs: /metrics answered %d %q, want 500 with the error", resp.StatusCode, body)
	}
}

// TestRegistryConcurrent hammers value owners and scrapes together;
// run under -race this pins the locking contract: a family fn reads
// its owner under the owner's own lock, the registry adds none.
func TestRegistryConcurrent(t *testing.T) {
	reg := obs.NewRegistry()
	var mu sync.Mutex
	var n float64
	g := map[string]float64{}
	var h stats.Histogram
	reg.FamilyFunc("n", "", obs.TypeCounter, func(emit obs.Emit) {
		mu.Lock()
		defer mu.Unlock()
		emit(n)
	})
	reg.FamilyFunc("g", "", obs.TypeGauge, func(emit obs.Emit) {
		mu.Lock()
		defer mu.Unlock()
		for _, w := range []string{"a", "b", "c", "d"} {
			if v, ok := g[w]; ok {
				emit(v, "w", w)
			}
		}
	})
	reg.Summary("s", "", func() *stats.Histogram {
		mu.Lock()
		defer mu.Unlock()
		return h.Clone()
	})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				mu.Lock()
				n++
				g[string(rune('a'+w))] = float64(i)
				h.Add(uint64(i))
				mu.Unlock()
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			var sb strings.Builder
			_ = reg.Expose(&sb)
		}
	}()
	wg.Wait()
	if got := sample(t, scrape(t, reg), "n_total"); got != 2000 {
		t.Fatalf("counter = %v", got)
	}
}
