package stats

import (
	"bytes"
	"testing"
)

// FuzzHistogramJSON holds UnmarshalJSON to what the director relies on
// when it merges heartbeat histograms: an accepted payload re-encodes
// to a fixed point, its quantiles lie within its min and max, and
// merging it into an empty histogram keeps its sample count.
func FuzzHistogramJSON(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var h Histogram
		if h.UnmarshalJSON(data) != nil {
			return
		}
		first, err := h.MarshalJSON()
		if err != nil {
			t.Fatalf("accepted histogram failed to encode: %v", err)
		}
		var back Histogram
		if err := back.UnmarshalJSON(first); err != nil {
			t.Fatalf("re-decode of %s: %v", first, err)
		}
		second, err := back.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first, second) {
			t.Fatalf("round trip not a fixed point:\n first %s\nsecond %s", first, second)
		}
		for _, q := range []float64{0, 0.5, 0.99, 1} {
			if v := h.Quantile(q); v < h.Min() || v > h.Max() {
				t.Fatalf("q=%v: %d outside [%d, %d]", q, v, h.Min(), h.Max())
			}
		}
		var merged Histogram
		merged.Merge(&h)
		if merged.Count() != h.Count() {
			t.Fatalf("merge into empty: count %d, want %d", merged.Count(), h.Count())
		}
	})
}
