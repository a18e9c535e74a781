package main

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"github.com/gunfu-nfv/gunfu/internal/obs"
)

// get scrapes metricsHandler(reg) once through a real HTTP server.
func get(t *testing.T, reg *obs.Registry) (*http.Response, string) {
	t.Helper()
	srv := httptest.NewServer(metricsHandler(reg))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, string(raw)
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

func TestMetricsHandler(t *testing.T) {
	reg := obs.NewRegistry()
	reg.FamilyFunc("hits", "Hits.", obs.TypeCounter, func(emit obs.Emit) { emit(3) })
	reg.FamilyFunc("temp", "Temp.", obs.TypeGauge, func(emit obs.Emit) { emit(20.5, "zone", "a") })

	resp, raw := get(t, reg)
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "openmetrics-text") {
		t.Fatalf("content type = %q", ct)
	}
	if got := sample(t, raw, "hits_total"); got != 3 {
		t.Fatalf("hits = %v", got)
	}
	if got := sample(t, raw, `temp{zone="a"}`); got != 20.5 {
		t.Fatalf("temp = %v", got)
	}
}

// TestMetricsHandlerError: odd label pairs fail Expose, and /metrics
// answers that scrape 500 with the error.
func TestMetricsHandlerError(t *testing.T) {
	reg := obs.NewRegistry()
	reg.FamilyFunc("odd", "", obs.TypeGauge, func(emit obs.Emit) { emit(1, "k") })
	resp, body := get(t, reg)
	if resp.StatusCode != http.StatusInternalServerError || !strings.Contains(body, "odd label pairs") {
		t.Fatalf("odd label pairs: /metrics answered %d %q, want 500 with the error", resp.StatusCode, body)
	}
}
