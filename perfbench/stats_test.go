package main

import (
	"testing"
)

func ascending(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

// TestPercentileTailRule pins the reporting rule: a percentile is
// reported only with at least ten samples ranked beyond it.
func TestPercentileTailRule(t *testing.T) {
	for _, tc := range []struct {
		n, rank, beyond int
		q               float64
		reportable      bool
	}{
		{n: 1000, q: 0.99, rank: 990, beyond: 10, reportable: true},
		{n: 999, q: 0.99, rank: 990, beyond: 9, reportable: false},
		{n: 1277, q: 0.99, rank: 1265, beyond: 12, reportable: true},
		{n: 20, q: 0.50, rank: 10, beyond: 10, reportable: true},
		{n: 19, q: 0.50, rank: 10, beyond: 9, reportable: false},
		{n: 1, q: 0.99, rank: 1, beyond: 0, reportable: false},
	} {
		p := percentile(ascending(tc.n), tc.q)
		if p.Rank != tc.rank || p.Beyond != tc.beyond || p.Samples != tc.n || p.reportable() != tc.reportable {
			t.Errorf("n=%d q=%g: got %+v reportable=%t, want rank %d beyond %d reportable %t",
				tc.n, tc.q, p, p.reportable(), tc.rank, tc.beyond, tc.reportable)
		}
		if p.Value != float64(tc.rank) {
			t.Errorf("n=%d q=%g: value %g, want the rank-%d sample", tc.n, tc.q, p.Value, tc.rank)
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %g", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %g", got)
	}
}

// TestSpanSelfTimes checks nesting: a span's self time excludes the
// spans inside it, and unspanned time is what no top-level span covers.
func TestSpanSelfTimes(t *testing.T) {
	tv := traceView{DurMS: 1.0, Finished: true}
	add := func(name string, start, dur int64) {
		tv.Spans = append(tv.Spans, struct {
			Name    string `json:"name"`
			StartUS int64  `json:"start_us"`
			DurUS   int64  `json:"dur_us"`
		}{name, start, dur})
	}
	add("parse", 0, 200)
	add("warm", 200, 50)
	add("cache_lookup", 250, 0)
	add("compute", 260, 600)
	add("render", 500, 100)
	self, unspanned := spanSelfTimes(tv)
	want := map[string]float64{"parse": 200, "warm": 50, "cache_lookup": 0, "compute": 500, "render": 100}
	for k, v := range want {
		if self[k] != v {
			t.Errorf("self[%s] = %g, want %g", k, self[k], v)
		}
	}
	if unspanned != 1000-200-50-600 {
		t.Errorf("unspanned = %g, want 150", unspanned)
	}
}
