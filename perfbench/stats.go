package main

import (
	"math"
	"slices"
)

// summary describes a set of timing (or rate) samples.
type summary struct {
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	P90    float64 `json:"p90"`
	// TopPct is the highest of 99, 90, 75 and 50 that has at least
	// minBeyond samples above it (0 when even the median has fewer).
	TopPct int `json:"top_pct"`
}

// minBeyond is the sample-count rule: a percentile is reported as
// resolved only when at least this many samples lie beyond it.
const minBeyond = 10

// percentile returns the q-quantile (0 ≤ q ≤ 1) of sorted samples by
// linear interpolation between the closest ranks. It returns NaN for an
// empty slice.
func percentile(sorted []float64, q float64) float64 {
	switch n := len(sorted); {
	case n == 0:
		return math.NaN()
	case n == 1:
		return sorted[0]
	default:
		pos := q * float64(n-1)
		lo := int(math.Floor(pos))
		if lo >= n-1 {
			return sorted[n-1]
		}
		frac := pos - float64(lo)
		return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
	}
}

// resolved reports whether the pct-th percentile of n samples has at
// least minBeyond samples beyond it.
func resolved(pct, n int) bool {
	return n*(100-pct) >= minBeyond*100
}

// summarize sorts a copy of xs and describes it.
func summarize(xs []float64) summary {
	s := slices.Clone(xs)
	slices.Sort(s)
	out := summary{
		N:      len(s),
		Median: percentile(s, 0.5),
		Q1:     percentile(s, 0.25),
		Q3:     percentile(s, 0.75),
		P90:    percentile(s, 0.9),
	}
	for _, pct := range []int{99, 90, 75, 50} {
		if resolved(pct, len(s)) {
			out.TopPct = pct
			break
		}
	}
	return out
}
