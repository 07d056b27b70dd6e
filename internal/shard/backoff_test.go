package shard

import (
	"testing"
	"time"
)

// TestBackoffSchedule pins the one retry schedule behind worker
// reconnects (cap 2s rows, the worker's default) and webhook delivery
// retries (cap 5s rows, the daemon's default): doubling from base with
// the deterministic attempt-keyed jitter, capped at max.
func TestBackoffSchedule(t *testing.T) {
	const base = 100 * time.Millisecond
	cases := []struct {
		max     time.Duration
		attempt int
		want    time.Duration
	}{
		{2 * time.Second, 0, 100 * time.Millisecond},    // base, jitter 0
		{2 * time.Second, 1, 212500 * time.Microsecond}, // 200ms + 1*(200ms/16)
		{2 * time.Second, 2, 450 * time.Millisecond},    // 400ms + 2*(400ms/16)
		{2 * time.Second, 3, 950 * time.Millisecond},    // 800ms + 3*(800ms/16)
		{2 * time.Second, 4, 2 * time.Second},           // 1600ms + 4*(1600ms/16) = 2s (at cap)
		{2 * time.Second, 5, 2 * time.Second},           // 3200ms, jitter 0, capped
		{2 * time.Second, 6, 2 * time.Second},           // capped forever after
		{5 * time.Second, 0, 100 * time.Millisecond},    // base, no jitter
		{5 * time.Second, 1, 212500 * time.Microsecond}, // 200ms + 1/16
		{5 * time.Second, 2, 450 * time.Millisecond},    // 400ms + 2/16
		{5 * time.Second, 3, 950 * time.Millisecond},    // 800ms + 3/16
		{5 * time.Second, 4, 2000 * time.Millisecond},   // 1600ms + 4/16
		{5 * time.Second, 5, 3200 * time.Millisecond},   // jitter index wraps to 0
		{5 * time.Second, 6, 5 * time.Second},           // capped
	}
	for _, c := range cases {
		if got := Backoff(base, c.max, c.attempt); got != c.want {
			t.Errorf("Backoff(%s, %s, %d) = %s, want %s", base, c.max, c.attempt, got, c.want)
		}
	}
}
