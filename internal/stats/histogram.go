package stats

import (
	"encoding/json"
	"fmt"
	"math"
	"math/bits"
)

// histSubBits sets the histogram resolution: each power-of-two octave
// is split into 2^histSubBits linear sub-buckets, bounding the relative
// quantile error at 1/2^histSubBits (~3% at 5 bits). Values below
// 2^histSubBits are recorded exactly.
const histSubBits = 5

// Histogram is a log-bucketed histogram of uint64 samples (HdrHistogram
// style: linear sub-buckets within power-of-two octaves). It is cheap
// enough for per-packet recording — Add is a shift and two adds with no
// allocation once the bucket array has grown to cover the observed
// range — mergeable across workers, and supports quantile extraction.
//
// The zero value is ready to use. A Histogram is not safe for
// concurrent use.
type Histogram struct {
	counts   []uint64
	total    uint64
	sum      uint64
	min, max uint64
}

// histBucket maps a sample to its bucket index.
func histBucket(v uint64) int {
	if v < 1<<histSubBits {
		return int(v)
	}
	exp := bits.Len64(v) - 1 - histSubBits
	return exp<<histSubBits + int(v>>uint(exp))
}

// histBucketMax returns the largest sample value mapping to bucket idx.
func histBucketMax(idx int) uint64 {
	if idx < 1<<histSubBits {
		return uint64(idx)
	}
	exp := uint(idx>>histSubBits - 1)
	sub := uint64(idx&(1<<histSubBits-1)) + 1<<histSubBits
	return (sub+1)<<exp - 1
}

// Add records one sample.
func (h *Histogram) Add(v uint64) { h.AddN(v, 1) }

// AddN records n samples of value v.
func (h *Histogram) AddN(v, n uint64) {
	if n == 0 {
		return
	}
	idx := histBucket(v)
	if idx >= len(h.counts) {
		grown := make([]uint64, idx+1)
		copy(grown, h.counts)
		h.counts = grown
	}
	h.counts[idx] += n
	if h.total == 0 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.total += n
	h.sum += v * n
}

// Merge folds o into h. Histograms share one fixed bucket geometry, so
// merging is element-wise addition.
func (h *Histogram) Merge(o *Histogram) {
	if o == nil || o.total == 0 {
		return
	}
	if len(o.counts) > len(h.counts) {
		grown := make([]uint64, len(o.counts))
		copy(grown, h.counts)
		h.counts = grown
	}
	for i, n := range o.counts {
		h.counts[i] += n
	}
	if h.total == 0 || o.min < h.min {
		h.min = o.min
	}
	if o.max > h.max {
		h.max = o.max
	}
	h.total += o.total
	h.sum += o.sum
}

// Reset empties the histogram, keeping the grown bucket array so a
// windowed recorder does not reallocate every window.
func (h *Histogram) Reset() {
	for i := range h.counts {
		h.counts[i] = 0
	}
	h.total, h.sum, h.min, h.max = 0, 0, 0, 0
}

// Clone returns an independent copy of h: mutating either histogram
// afterwards leaves the other untouched. Aggregators hand out clones so
// a caller can keep quantile state past the aggregator's lock.
func (h *Histogram) Clone() *Histogram {
	c := *h
	c.counts = append([]uint64(nil), h.counts...)
	return &c
}

// histogramWire is the JSON form of a Histogram. Counts carries the
// bucket array with trailing zeros trimmed; the geometry is fixed by
// histSubBits, so the counts alone reconstruct the distribution.
type histogramWire struct {
	SubBits int      `json:"sub_bits"`
	Counts  []uint64 `json:"counts"`
	Total   uint64   `json:"total"`
	Sum     uint64   `json:"sum"`
	Min     uint64   `json:"min"`
	Max     uint64   `json:"max"`
}

// MarshalJSON encodes the histogram for the wire (telemetry heartbeats
// carry per-window latency histograms so the receiver can Merge them
// into cluster-level quantiles).
func (h *Histogram) MarshalJSON() ([]byte, error) {
	counts := h.counts
	for len(counts) > 0 && counts[len(counts)-1] == 0 {
		counts = counts[:len(counts)-1]
	}
	if len(counts) == 0 {
		// Canonical empty form: an all-zero bucket array and a nil one
		// must encode identically so re-encoding a decoded histogram is
		// byte-stable.
		counts = []uint64{}
	}
	return json.Marshal(histogramWire{
		SubBits: histSubBits,
		Counts:  counts,
		Total:   h.total,
		Sum:     h.sum,
		Min:     h.min,
		Max:     h.max,
	})
}

// UnmarshalJSON decodes a histogram produced by MarshalJSON. It rejects
// payloads from a build with a different bucket geometry — bucket counts
// are only mergeable when both sides split octaves identically — and
// payloads no sequence of Adds produces (see check), which would skew
// every quantile of a histogram they are merged into.
func (h *Histogram) UnmarshalJSON(b []byte) error {
	var w histogramWire
	if err := json.Unmarshal(b, &w); err != nil {
		return err
	}
	if w.SubBits != histSubBits {
		return fmt.Errorf("stats: histogram sub_bits %d incompatible with %d", w.SubBits, histSubBits)
	}
	if err := w.check(); err != nil {
		return err
	}
	h.counts = append(h.counts[:0], w.Counts...)
	h.total = w.Total
	h.sum = w.Sum
	h.min = w.Min
	h.max = w.Max
	return nil
}

// check holds w to what a recorded histogram satisfies: no bucket past
// the one MaxUint64 maps to, counts summing to total, an empty
// histogram's sum, min and max all zero, and a non-empty one's min and
// max in its lowest and highest non-empty buckets.
func (w *histogramWire) check() error {
	if n := histBucket(math.MaxUint64) + 1; len(w.Counts) > n {
		return fmt.Errorf("stats: histogram has %d buckets, a uint64 reaches %d", len(w.Counts), n)
	}
	var n, carry uint64
	lo, hi := -1, -1
	for i, c := range w.Counts {
		if c == 0 {
			continue
		}
		if n, carry = bits.Add64(n, c, 0); carry != 0 {
			return fmt.Errorf("stats: histogram counts overflow uint64")
		}
		if lo < 0 {
			lo = i
		}
		hi = i
	}
	if n != w.Total {
		return fmt.Errorf("stats: histogram counts sum to %d, total is %d", n, w.Total)
	}
	if w.Total == 0 {
		if w.Sum != 0 || w.Min != 0 || w.Max != 0 {
			return fmt.Errorf("stats: empty histogram has sum %d, min %d, max %d", w.Sum, w.Min, w.Max)
		}
		return nil
	}
	if w.Min > w.Max {
		return fmt.Errorf("stats: histogram min %d above max %d", w.Min, w.Max)
	}
	if lo != histBucket(w.Min) || hi != histBucket(w.Max) {
		return fmt.Errorf("stats: histogram min %d and max %d lie outside its buckets %d..%d", w.Min, w.Max, lo, hi)
	}
	return nil
}

// Count returns the number of recorded samples.
func (h *Histogram) Count() uint64 { return h.total }

// Sum returns the sum of all recorded samples.
func (h *Histogram) Sum() uint64 { return h.sum }

// Mean returns the average sample, or 0 when empty.
func (h *Histogram) Mean() float64 {
	if h.total == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.total)
}

// Min and Max return the smallest and largest recorded samples (0 when
// empty).
func (h *Histogram) Min() uint64 { return h.min }

// Max returns the largest recorded sample (0 when empty).
func (h *Histogram) Max() uint64 { return h.max }

// Quantile returns an upper bound for the q-quantile (0 <= q <= 1):
// the bucket ceiling of the sample at rank ceil(q*count), clamped to
// the observed maximum. Exact for values below 2^histSubBits, within
// 1/2^histSubBits relative error above. Returns 0 when empty.
func (h *Histogram) Quantile(q float64) uint64 {
	if h.total == 0 {
		return 0
	}
	if q <= 0 {
		return h.min
	}
	rank := uint64(q * float64(h.total))
	if float64(rank) < q*float64(h.total) {
		rank++
	}
	if rank == 0 {
		rank = 1
	}
	if rank > h.total {
		rank = h.total
	}
	var seen uint64
	for idx, n := range h.counts {
		seen += n
		if seen >= rank {
			v := histBucketMax(idx)
			if v > h.max {
				v = h.max
			}
			return v
		}
	}
	return h.max
}
