package obs

import "testing"

// TestQuantile pins the nearest-rank rule ⌊q·n⌋ (clamped) on the sample
// 0, 1, …, n-1, where the quantile equals its index.
func TestQuantile(t *testing.T) {
	for _, tc := range []struct {
		n             int
		p50, p95, p99 int
	}{
		{1, 0, 0, 0},
		{2, 1, 1, 1},
		{100, 50, 95, 99},
		{1024, 512, 972, 1013},
	} {
		sorted := make([]int, tc.n)
		for i := range sorted {
			sorted[i] = i
		}
		for _, c := range []struct {
			q    float64
			want int
		}{{0.50, tc.p50}, {0.95, tc.p95}, {0.99, tc.p99}, {1, tc.n - 1}, {0, 0}} {
			if got := Quantile(sorted, c.q); got != c.want {
				t.Errorf("n=%d q=%g: got %d, want %d", tc.n, c.q, got, c.want)
			}
		}
	}
	if got := Quantile([]float64(nil), 0.5); got != 0 {
		t.Errorf("empty: got %g, want 0", got)
	}
}
