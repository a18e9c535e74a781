package sim

import (
	"strings"
	"testing"
)

func TestDerivedMetrics(t *testing.T) {
	c := Counters{
		Cycles:         1000,
		Instructions:   2000,
		L1Misses:       50,
		StallCycles:    400,
		PrefetchIssued: 80,
		PrefetchUseful: 60,
	}
	if got := c.MPKI(); got != 25 {
		t.Fatalf("MPKI = %v, want 25", got)
	}
	if got := c.StallFraction(); got != 0.4 {
		t.Fatalf("StallFraction = %v, want 0.4", got)
	}
	if got := c.PrefetchAccuracy(); got != 0.75 {
		t.Fatalf("PrefetchAccuracy = %v, want 0.75", got)
	}
}

func TestDerivedMetricsZeroSafe(t *testing.T) {
	var c Counters
	if c.MPKI() != 0 || c.StallFraction() != 0 || c.PrefetchAccuracy() != 0 {
		t.Fatal("zero counters must yield zero derived metrics, not NaN")
	}
}

func TestCountersStringIncludesDerived(t *testing.T) {
	c := Counters{Cycles: 100, Instructions: 200, L1Misses: 10, StallCycles: 50, PrefetchIssued: 4, PrefetchUseful: 2}
	s := c.String()
	for _, frag := range []string{"mpki=", "acc=", "stall=50 (50%)"} {
		if !strings.Contains(s, frag) {
			t.Fatalf("String() = %q missing %q", s, frag)
		}
	}
}
