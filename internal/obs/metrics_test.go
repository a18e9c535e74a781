package obs_test

import (
	"io"
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

func TestRegistryExposition(t *testing.T) {
	reg := obs.NewRegistry()
	pkts := reg.Counter("gunfu_packets", "Packets processed.")
	pkts.Add(1000)
	pkts.Add(500)
	ipc := reg.Gauge("gunfu_ipc", "Last-window IPC.")
	ipc.Set(1.75)
	pmu := reg.CounterFamily("gunfu_pmu", "Raw PMU counters.")
	pmu.With("counter", "l1_misses").Set(42)
	pmu.With("counter", "llc_misses").Set(7)
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
}

func TestRegistryLabelEscaping(t *testing.T) {
	reg := obs.NewRegistry()
	f := reg.GaugeFamily("weird", "with \"quotes\" and\nnewline")
	f.With("k", `a"b\c`+"\nd").Set(3)
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
	reg.Counter("hits", "Hits.").Add(3)
	reg.GaugeFamily("temp", "Temp.").With("zone", "a").Set(20.5)

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

func TestRegistryResetSeries(t *testing.T) {
	reg := obs.NewRegistry()
	info := reg.GaugeFamily("deployment_info", "Current deployment.")
	info.With("nf", "nat").Set(1)
	if !strings.Contains(scrape(t, reg), `deployment_info{nf="nat"} 1`) {
		t.Fatal("series missing before reset")
	}
	info.ResetSeries()
	info.With("nf", "sfc").Set(1)
	out := scrape(t, reg)
	if strings.Contains(out, `nf="nat"`) || !strings.Contains(out, `deployment_info{nf="sfc"} 1`) {
		t.Fatalf("reset did not swap series:\n%s", out)
	}
}

func TestRegistryReRegistration(t *testing.T) {
	reg := obs.NewRegistry()
	a := reg.Counter("c", "help")
	b := reg.Counter("c", "help")
	if a != b {
		t.Fatal("re-registration must return the same series")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("type conflict must panic")
		}
	}()
	reg.Gauge("c", "help")
}

// TestRegistryConcurrent hammers updates and scrapes together; run
// under -race this pins the locking contract.
func TestRegistryConcurrent(t *testing.T) {
	reg := obs.NewRegistry()
	ctr := reg.Counter("n", "")
	fam := reg.GaugeFamily("g", "")
	var h stats.Histogram
	var hmu sync.Mutex
	reg.Summary("s", "", func() *stats.Histogram {
		hmu.Lock()
		defer hmu.Unlock()
		return h.Clone()
	})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				ctr.Inc()
				fam.With("w", string(rune('a'+w))).Set(float64(i))
				hmu.Lock()
				h.Add(uint64(i))
				hmu.Unlock()
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
	if got := ctr.Value(); got != 2000 {
		t.Fatalf("counter = %v", got)
	}
}
