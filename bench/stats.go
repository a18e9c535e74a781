package main

import (
	"math"
	"sort"
)

// median returns the middle of xs (mean of the two middles for even
// lengths); 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quantile returns the p-quantile of xs by the exclusive method
// Python's statistics.quantiles uses (position p·(n+1), clamped), so
// the -aa report and the acceptance driver compute the same quartiles.
func quantile(xs []float64, p float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n == 1 {
		return s[0]
	}
	pos := p * float64(n+1)
	j := int(math.Floor(pos))
	if j < 1 {
		j = 1
	}
	if j > n-1 {
		j = n - 1
	}
	frac := pos - float64(j)
	return s[j-1] + frac*(s[j]-s[j-1])
}

func minOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// ratio is a/b with 0 for an empty base, so a metric that does not
// apply to a workload reads 0 instead of NaN.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// spreadOf summarizes operation times for a run's info line, so a
// reader can see how far the fastest operation sits from the typical.
func spreadOf(xs []float64) map[string]float64 {
	return map[string]float64{
		"n": float64(len(xs)), "min": minOf(xs), "p10": quantile(xs, 0.10),
		"p25": quantile(xs, 0.25), "p50": median(xs), "p90": quantile(xs, 0.90),
	}
}
