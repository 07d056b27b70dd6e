package main

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"antlayer/internal/shard"
)

// TestReconnectBackoffReset: next walks the shard.Backoff schedule one
// attempt per call, and reset snaps it back to base.
func TestReconnectBackoffReset(t *testing.T) {
	b := &reconnectBackoff{base: 100 * time.Millisecond, max: 2 * time.Second}
	for k := 0; k < 3; k++ {
		if got, want := b.next(), shard.Backoff(b.base, b.max, k); got != want {
			t.Errorf("attempt %d: next() = %s, want %s", k, got, want)
		}
	}
	b.reset()
	if got := b.next(); got != 100*time.Millisecond {
		t.Errorf("after reset: next() = %s, want base 100ms", got)
	}
}

// TestWorkerLoopBackoffAndReset drives the reconnect loop with a fake run
// function and a fake clock: the sleeps must follow the backoff schedule,
// and a successful re-registration (OnRegister → reset) must snap the
// next outage's delay back to base.
func TestWorkerLoopBackoffAndReset(t *testing.T) {
	b := &reconnectBackoff{base: time.Second, max: 8 * time.Second}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var slept []time.Duration
	calls := 0
	run := func(context.Context) error {
		calls++
		switch calls {
		case 4:
			// The worker re-registered successfully this session; the
			// OnRegister callback fires reset before the session later dies.
			b.reset()
			return errors.New("lost after a healthy session")
		case 6:
			cancel()
			return errors.New("killed")
		}
		return errors.New("dial refused")
	}
	sleep := func(_ context.Context, d time.Duration) bool {
		slept = append(slept, d)
		return true
	}
	if err := workerLoop(ctx, "coord:1", run, b, sleep, nil); err != nil {
		t.Fatalf("workerLoop after ctx cancel = %v, want nil", err)
	}
	want := []time.Duration{
		time.Second,                          // attempt 0
		2*time.Second + 125*time.Millisecond, // attempt 1: 2s + 2s/16
		4*time.Second + 500*time.Millisecond, // attempt 2: 4s + 2*(4s/16)
		time.Second,                          // reset fired: back to attempt 0
		2*time.Second + 125*time.Millisecond, // attempt 1 again
	}
	if !reflect.DeepEqual(slept, want) {
		t.Errorf("sleep schedule = %v, want %v", slept, want)
	}
	if calls != 6 {
		t.Errorf("run called %d times, want 6", calls)
	}
}

// TestWorkerLoopNoRetry: a zero base disables retrying — the first
// connection error is returned as-is, with no sleep.
func TestWorkerLoopNoRetry(t *testing.T) {
	b := &reconnectBackoff{base: 0, max: 0}
	boom := errors.New("dial refused")
	slept := false
	err := workerLoop(context.Background(), "coord:1",
		func(context.Context) error { return boom },
		b,
		func(context.Context, time.Duration) bool { slept = true; return true },
		nil)
	if !errors.Is(err, boom) {
		t.Errorf("err = %v, want %v", err, boom)
	}
	if slept {
		t.Error("workerLoop slept with retry disabled")
	}
}

// TestWorkerLoopStopsWhenSleepInterrupted: the loop exits cleanly (nil)
// when the context dies mid-backoff.
func TestWorkerLoopStopsWhenSleepInterrupted(t *testing.T) {
	b := &reconnectBackoff{base: time.Second, max: time.Second}
	err := workerLoop(context.Background(), "coord:1",
		func(context.Context) error { return errors.New("dial refused") },
		b,
		func(context.Context, time.Duration) bool { return false },
		nil)
	if err != nil {
		t.Errorf("err = %v, want nil when the sleep reports ctx death", err)
	}
}
