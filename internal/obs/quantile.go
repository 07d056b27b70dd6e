package obs

// Quantile returns the nearest-rank q-quantile of an ascending slice: the
// element at index ⌊q·n⌋, clamped to the last one. The daemon's /layer
// latency window, the coordinator's time-to-dispatch window and the chaos
// harness's phase reports all use this one rule, so the same samples give
// the same p50/p99 everywhere. An empty slice yields the zero value.
func Quantile[T any](sorted []T, q float64) T {
	n := len(sorted)
	if n == 0 {
		var zero T
		return zero
	}
	i := int(q * float64(n))
	if i >= n {
		i = n - 1
	}
	return sorted[i]
}
