package stats

import (
	"math/rand"
	"sort"
	"strings"
	"testing"
)

func TestHistogramExactLinearRange(t *testing.T) {
	var h Histogram
	for v := uint64(0); v < 32; v++ {
		h.AddN(v, v+1)
	}
	if h.Count() != 32*33/2 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Min() != 0 || h.Max() != 31 {
		t.Fatalf("min/max = %d/%d", h.Min(), h.Max())
	}
	// Values below 2^histSubBits are recorded exactly, so quantiles in
	// that range are exact order statistics (upper-bound convention).
	if q := h.Quantile(1); q != 31 {
		t.Fatalf("p100 = %d", q)
	}
	if q := h.Quantile(0); q != 0 {
		t.Fatalf("p0 = %d", q)
	}
	// Rank of value v is sum_{i<=v}(i+1); p50 over 528 samples is rank
	// 264, which lands in value 22 (cumulative 253..275).
	if q := h.Quantile(0.5); q != 22 {
		t.Fatalf("p50 = %d, want 22", q)
	}
}

func TestHistogramQuantileErrorBound(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var h Histogram
	samples := make([]uint64, 0, 20000)
	for i := 0; i < 20000; i++ {
		// Heavy-tailed: mix of small and large values across octaves.
		v := uint64(rng.Int63n(1 << uint(4+rng.Intn(28))))
		samples = append(samples, v)
		h.Add(v)
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	for _, q := range []float64{0.5, 0.9, 0.95, 0.99, 0.999} {
		rank := int(q * float64(len(samples)))
		if rank >= len(samples) {
			rank = len(samples) - 1
		}
		exact := samples[rank]
		got := h.Quantile(q)
		// Upper-bound convention with 1/32 relative bucket width.
		if float64(got) < float64(exact)*0.97-1 || float64(got) > float64(exact)*1.04+1 {
			t.Fatalf("q=%v: got %d, exact %d", q, got, exact)
		}
	}
}

func TestHistogramMerge(t *testing.T) {
	var a, b, both Histogram
	for v := uint64(1); v < 10000; v *= 3 {
		a.Add(v)
		both.Add(v)
	}
	for v := uint64(2); v < 100000; v *= 5 {
		b.Add(v)
		both.Add(v)
	}
	a.Merge(&b)
	if a.Count() != both.Count() || a.Sum() != both.Sum() {
		t.Fatalf("merge count/sum = %d/%d, want %d/%d", a.Count(), a.Sum(), both.Count(), both.Sum())
	}
	if a.Min() != both.Min() || a.Max() != both.Max() {
		t.Fatalf("merge min/max = %d/%d, want %d/%d", a.Min(), a.Max(), both.Min(), both.Max())
	}
	for _, q := range []float64{0.25, 0.5, 0.9, 1} {
		if a.Quantile(q) != both.Quantile(q) {
			t.Fatalf("q=%v: merged %d, direct %d", q, a.Quantile(q), both.Quantile(q))
		}
	}
	// Merging an empty or nil histogram is a no-op.
	before := a.Count()
	a.Merge(nil)
	a.Merge(&Histogram{})
	if a.Count() != before {
		t.Fatalf("empty merge changed count")
	}
}

// TestHistogramMergeOfSplitsProperty is the aggregation property the
// director's cluster-level quantiles rest on: scattering a sample
// stream across k histograms and merging them back must reproduce the
// whole-stream histogram exactly (same buckets, same quantiles), for
// random streams and random splits.
func TestHistogramMergeOfSplitsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		k := 2 + rng.Intn(6)
		parts := make([]Histogram, k)
		var whole Histogram
		n := 100 + rng.Intn(3000)
		for i := 0; i < n; i++ {
			v := uint64(rng.Int63n(1 << uint(1+rng.Intn(40))))
			whole.Add(v)
			parts[rng.Intn(k)].Add(v)
		}
		var merged Histogram
		for i := range parts {
			merged.Merge(&parts[i])
		}
		if merged.Count() != whole.Count() || merged.Sum() != whole.Sum() ||
			merged.Min() != whole.Min() || merged.Max() != whole.Max() {
			t.Fatalf("trial %d: merged count/sum/min/max = %d/%d/%d/%d, whole %d/%d/%d/%d",
				trial, merged.Count(), merged.Sum(), merged.Min(), merged.Max(),
				whole.Count(), whole.Sum(), whole.Min(), whole.Max())
		}
		for q := 0.0; q <= 1.0; q += 0.05 {
			if m, w := merged.Quantile(q), whole.Quantile(q); m != w {
				t.Fatalf("trial %d q=%.2f: merged %d, whole %d", trial, q, m, w)
			}
		}
	}
}

func TestHistogramJSONRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var h Histogram
	for i := 0; i < 5000; i++ {
		h.Add(uint64(rng.Int63n(1 << uint(2+rng.Intn(30)))))
	}
	b, err := h.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	var back Histogram
	if err := back.UnmarshalJSON(b); err != nil {
		t.Fatal(err)
	}
	if back.Count() != h.Count() || back.Sum() != h.Sum() ||
		back.Min() != h.Min() || back.Max() != h.Max() {
		t.Fatalf("round trip count/sum/min/max = %d/%d/%d/%d, want %d/%d/%d/%d",
			back.Count(), back.Sum(), back.Min(), back.Max(),
			h.Count(), h.Sum(), h.Min(), h.Max())
	}
	for _, q := range []float64{0, 0.5, 0.95, 0.99, 1} {
		if back.Quantile(q) != h.Quantile(q) {
			t.Fatalf("q=%v: %d vs %d", q, back.Quantile(q), h.Quantile(q))
		}
	}
	// A decoded histogram must keep merging like a native one.
	var merged Histogram
	merged.Merge(&back)
	merged.Merge(&back)
	if merged.Count() != 2*h.Count() {
		t.Fatalf("merge after decode count = %d", merged.Count())
	}
	// Geometry mismatches are rejected, not silently mis-merged.
	if err := back.UnmarshalJSON([]byte(`{"sub_bits":4,"counts":[1]}`)); err == nil {
		t.Fatal("incompatible sub_bits accepted")
	}
	// Empty round trip.
	var empty, emptyBack Histogram
	b, err = empty.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if err := emptyBack.UnmarshalJSON(b); err != nil {
		t.Fatal(err)
	}
	if emptyBack.Count() != 0 {
		t.Fatalf("empty round trip count = %d", emptyBack.Count())
	}
}

// TestHistogramRejectsInconsistentWire: a wire histogram no sequence of
// Adds produces is refused, so it never reaches a Merge; a consistent
// one still decodes.
func TestHistogramRejectsInconsistentWire(t *testing.T) {
	for _, tc := range []struct{ name, payload string }{
		{"counts exceed total", `{"sub_bits":5,"counts":[0,0,4],"total":1,"max":9}`},
		{"bucket past uint64", `{"sub_bits":5,"counts":[` + strings.Repeat("0,", 2000) +
			`1],"total":1,"sum":18446744073709551615,"min":18446744073709551615,"max":18446744073709551615}`},
		{"counts overflow", `{"sub_bits":5,"counts":[18446744073709551615,2],"total":1,"min":0,"max":1}`},
		{"empty with max", `{"sub_bits":5,"counts":[],"total":0,"max":5}`},
		{"empty with sum", `{"sub_bits":5,"counts":[0],"total":0,"sum":3}`},
		{"min above max", `{"sub_bits":5,"counts":[0,1,0,0,0,0,0,1],"total":2,"sum":8,"min":7,"max":1}`},
		{"min above its bucket", `{"sub_bits":5,"counts":[1],"total":1,"sum":5,"min":5,"max":5}`},
		{"max above its bucket", `{"sub_bits":5,"counts":[0,1],"total":1,"sum":1,"min":1,"max":9}`},
	} {
		var h Histogram
		if err := h.UnmarshalJSON([]byte(tc.payload)); err == nil {
			t.Errorf("%s: accepted (count %d, p50 %d, p99 %d)", tc.name, h.Count(), h.Quantile(0.5), h.Quantile(0.99))
		}
	}
	var h Histogram
	if err := h.UnmarshalJSON([]byte(`{"sub_bits":5,"counts":[0,1,1,1],"total":3,"sum":6,"min":1,"max":3}`)); err != nil {
		t.Fatalf("consistent payload rejected: %v", err)
	}
}

func TestHistogramCloneAndReset(t *testing.T) {
	var h Histogram
	for v := uint64(1); v < 1000; v *= 2 {
		h.Add(v)
	}
	c := h.Clone()
	h.Add(1 << 30)
	if c.Count() != 10 || c.Max() == h.Max() {
		t.Fatalf("clone shares state: count %d max %d vs %d", c.Count(), c.Max(), h.Max())
	}
	h.Reset()
	if h.Count() != 0 || h.Sum() != 0 || h.Min() != 0 || h.Max() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("reset histogram must report zeros")
	}
	h.Add(7)
	if h.Count() != 1 || h.Min() != 7 || h.Max() != 7 {
		t.Fatalf("post-reset add: count/min/max = %d/%d/%d", h.Count(), h.Min(), h.Max())
	}
	if c.Count() != 10 {
		t.Fatal("reset leaked into clone")
	}
}

func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	if h.Count() != 0 || h.Mean() != 0 || h.Quantile(0.5) != 0 || h.Max() != 0 {
		t.Fatal("empty histogram must report zeros")
	}
}

func TestHistogramBucketRoundTrip(t *testing.T) {
	// Every bucket's max value must map back to the same bucket, and
	// bucket indexes must be monotone in the sample value.
	prev := -1
	for _, v := range []uint64{0, 1, 31, 32, 33, 63, 64, 100, 1023, 1024, 1 << 20, 1<<40 + 12345} {
		idx := histBucket(v)
		if idx < prev {
			t.Fatalf("bucket(%d) = %d not monotone (prev %d)", v, idx, prev)
		}
		prev = idx
		if histBucket(histBucketMax(idx)) != idx {
			t.Fatalf("bucketMax(%d) = %d maps to bucket %d", idx, histBucketMax(idx), histBucket(histBucketMax(idx)))
		}
		if histBucketMax(idx) < v {
			t.Fatalf("bucketMax(%d) = %d below member %d", idx, histBucketMax(idx), v)
		}
	}
}
