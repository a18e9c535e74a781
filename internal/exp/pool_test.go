package exp

import (
	"bytes"
	"testing"

	"github.com/gunfu-nfv/gunfu/internal/sim"
)

// TestGoldenCountersPooled replays every golden case on one shared core
// pool, twice — so from the second case onward each runs on a core
// dirtied and Reset by a *different* workload — and requires the exact
// pinned fingerprints. This is the sweep-level form of the sim
// package's reset-vs-fresh differential: core recycling must never
// move a counter.
func TestGoldenCountersPooled(t *testing.T) {
	o := Options{Quick: true, Seed: 42, pool: sim.NewCorePool(sim.DefaultConfig())}
	for round := 0; round < 2; round++ {
		for _, tc := range goldenCases() {
			got, err := tc.run(o)
			if err != nil {
				t.Fatalf("round %d %s: %v", round, tc.name, err)
			}
			if got != tc.want {
				t.Errorf("round %d %s: pooled core drifted from the seed engine\n got: %s\nwant: %s", round, tc.name, got, tc.want)
			}
		}
	}
	if news, reuses := o.pool.Stats(); news != 1 || reuses == 0 {
		t.Fatalf("pool stats (news=%d, reuses=%d): sequential golden replay should reuse one core", news, reuses)
	}
}

// TestFig10PooledCoreReuse asserts the pooling claim for a whole figure
// sweep: a sequential quick fig10 run builds exactly one core and
// recycles it across every sweep point, and its tables are the
// checked-in ones.
func TestFig10PooledCoreReuse(t *testing.T) {
	o := quick()
	tables, err := Fig10(o)
	if err != nil {
		t.Fatal(err)
	}
	news, reuses := o.pool.Stats()
	if news != 1 {
		t.Fatalf("sequential pooled fig10 built %d cores, want 1 (reuses %d)", news, reuses)
	}
	if reuses == 0 {
		t.Fatal("pooled fig10 never recycled a core")
	}
	var out bytes.Buffer
	for _, tb := range tables {
		if err := tb.Render(&out); err != nil {
			t.Fatal(err)
		}
	}
	checkQuickTables(t, "fig10", out.Bytes())
}

// BenchmarkFig10Quick measures a full quick fig10 sweep on one core
// pool; B/op is what a sweep still allocates with its cores recycled.
func BenchmarkFig10Quick(b *testing.B) {
	b.ReportAllocs()
	o := quick()
	for i := 0; i < b.N; i++ {
		if _, err := Fig10(o); err != nil {
			b.Fatal(err)
		}
	}
}
