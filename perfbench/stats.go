package main

import (
	"math"
	"sort"
	"time"
)

// minTail is how many samples must lie beyond a percentile before it is
// reported: a p99 over fewer than 1000 samples rests on a handful of
// outliers and is left out rather than printed as if it meant something.
const minTail = 10

// pct is one nearest-rank percentile of a sample set together with the
// counts that say how much it can be trusted.
type pct struct {
	Value   float64 `json:"value"`
	Samples int     `json:"samples"`
	Rank    int     `json:"rank"`   // 1-based nearest rank
	Beyond  int     `json:"beyond"` // samples ranked above Rank
}

// reportable applies the tail rule: at least minTail samples beyond.
func (p pct) reportable() bool { return p.Beyond >= minTail }

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of xs,
// which must be sorted ascending and non-empty.
func percentile(xs []float64, q float64) pct {
	n := len(xs)
	rank := int(math.Ceil(q * float64(n)))
	rank = max(1, min(rank, n))
	return pct{Value: xs[rank-1], Samples: n, Rank: rank, Beyond: n - rank}
}

// median returns the median of xs (the mean of the middle two for an
// even count), or 0 for no samples. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// mean returns the arithmetic mean of xs, or 0 for no samples.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// sortedMS converts durations to sorted milliseconds.
func sortedMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	sort.Float64s(out)
	return out
}

// usP50 is the median of durations in microseconds.
func usP50(ds []time.Duration) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d) / float64(time.Microsecond)
	}
	return median(xs)
}
