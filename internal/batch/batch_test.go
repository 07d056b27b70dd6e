package batch

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// waitCtx bounds every test wait so a deadlock fails fast instead of
// hanging the suite.
func waitCtx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	t.Cleanup(cancel)
	return ctx
}

func TestSubmitRunsToDone(t *testing.T) {
	q := New(Config{Workers: 2})
	defer q.Close()
	j, err := q.Submit(func(context.Context) ([]byte, error) { return []byte("out"), nil })
	if err != nil {
		t.Fatal(err)
	}
	snap, err := j.Wait(waitCtx(t))
	if err != nil {
		t.Fatal(err)
	}
	if snap.State != StateDone || string(snap.Result) != "out" || snap.Err != nil {
		t.Fatalf("snapshot: %+v", snap)
	}
	if snap.Started.Before(snap.Submitted) || snap.Finished.Before(snap.Started) {
		t.Fatalf("timestamps out of order: %+v", snap)
	}
	got, ok := q.Get(j.ID())
	if !ok || got != j {
		t.Fatal("Get lost the job")
	}
	st := q.Stats()
	if st.Submitted != 1 || st.Done != 1 || st.Failed != 0 || st.Queued != 0 || st.Running != 0 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestFailedJobKeepsError(t *testing.T) {
	q := New(Config{Workers: 1})
	defer q.Close()
	boom := errors.New("boom")
	j, err := q.Submit(func(context.Context) ([]byte, error) { return nil, boom })
	if err != nil {
		t.Fatal(err)
	}
	snap, _ := j.Wait(waitCtx(t))
	if snap.State != StateFailed || !errors.Is(snap.Err, boom) || snap.Canceled {
		t.Fatalf("snapshot: %+v", snap)
	}
	if st := q.Stats(); st.Failed != 1 || st.Canceled != 0 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestQueueFull(t *testing.T) {
	q := New(Config{Workers: 1, Depth: 1})
	defer q.Close()
	block := make(chan struct{})
	running := make(chan struct{})
	// One job occupies the worker, one fills the backlog.
	first, err := q.Submit(func(context.Context) ([]byte, error) {
		close(running)
		<-block
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	<-running
	second, err := q.Submit(func(context.Context) ([]byte, error) { return nil, nil })
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q.Submit(func(context.Context) ([]byte, error) { return nil, nil }); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("third submit: %v, want ErrQueueFull", err)
	}
	if st := q.Stats(); st.Rejected != 1 || st.Queued != 1 || st.Running != 1 {
		t.Fatalf("stats: %+v", st)
	}
	close(block)
	if snap, _ := first.Wait(waitCtx(t)); snap.State != StateDone {
		t.Fatalf("first: %+v", snap)
	}
	if snap, _ := second.Wait(waitCtx(t)); snap.State != StateDone {
		t.Fatalf("second: %+v", snap)
	}
	// Capacity is free again.
	if _, err := q.Submit(func(context.Context) ([]byte, error) { return nil, nil }); err != nil {
		t.Fatalf("submit after drain: %v", err)
	}
}

func TestCancelQueuedJobNeverRuns(t *testing.T) {
	q := New(Config{Workers: 1, Depth: 2})
	defer q.Close()
	block := make(chan struct{})
	running := make(chan struct{})
	if _, err := q.Submit(func(context.Context) ([]byte, error) {
		close(running)
		<-block
		return nil, nil
	}); err != nil {
		t.Fatal(err)
	}
	<-running
	var ran atomic.Bool
	victim, err := q.Submit(func(context.Context) ([]byte, error) {
		ran.Store(true)
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !q.Cancel(victim.ID()) {
		t.Fatal("cancel of queued job reported no effect")
	}
	snap, _ := victim.Wait(waitCtx(t))
	if snap.State != StateFailed || !snap.Canceled || !errors.Is(snap.Err, context.Canceled) {
		t.Fatalf("snapshot: %+v", snap)
	}
	close(block)
	// Give the worker a chance to (wrongly) pick the cancelled job up.
	time.Sleep(20 * time.Millisecond)
	if ran.Load() {
		t.Fatal("cancelled job still ran")
	}
	if st := q.Stats(); st.Canceled != 1 || st.Failed != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestCancelRunningJobCancelsContext(t *testing.T) {
	q := New(Config{Workers: 1})
	defer q.Close()
	running := make(chan struct{})
	j, err := q.Submit(func(ctx context.Context) ([]byte, error) {
		close(running)
		<-ctx.Done()
		return nil, ctx.Err()
	})
	if err != nil {
		t.Fatal(err)
	}
	<-running
	if !q.Cancel(j.ID()) {
		t.Fatal("cancel of running job reported no effect")
	}
	snap, _ := j.Wait(waitCtx(t))
	if snap.State != StateFailed || !snap.Canceled || !errors.Is(snap.Err, context.Canceled) {
		t.Fatalf("snapshot: %+v", snap)
	}
}

func TestCancelTerminalAndUnknown(t *testing.T) {
	q := New(Config{Workers: 1})
	defer q.Close()
	j, err := q.Submit(func(context.Context) ([]byte, error) { return nil, nil })
	if err != nil {
		t.Fatal(err)
	}
	j.Wait(waitCtx(t))
	if q.Cancel(j.ID()) {
		t.Fatal("cancel of done job reported effect")
	}
	if q.Cancel("no-such-job") {
		t.Fatal("cancel of unknown job reported effect")
	}
}

func TestPanickingJobFailsWithoutKillingWorker(t *testing.T) {
	q := New(Config{Workers: 1})
	defer q.Close()
	bad, err := q.Submit(func(context.Context) ([]byte, error) { panic("kaboom") })
	if err != nil {
		t.Fatal(err)
	}
	snap, _ := bad.Wait(waitCtx(t))
	if snap.State != StateFailed || snap.Err == nil {
		t.Fatalf("snapshot: %+v", snap)
	}
	// The pool survived: the next job still runs.
	ok, err := q.Submit(func(context.Context) ([]byte, error) { return []byte("alive"), nil })
	if err != nil {
		t.Fatal(err)
	}
	if snap, _ := ok.Wait(waitCtx(t)); snap.State != StateDone {
		t.Fatalf("post-panic job: %+v", snap)
	}
}

func TestRetentionEvictsOldestTerminal(t *testing.T) {
	q := New(Config{Workers: 1, Retain: 2})
	defer q.Close()
	ids := make([]string, 4)
	for i := range ids {
		j, err := q.Submit(func(context.Context) ([]byte, error) { return nil, nil })
		if err != nil {
			t.Fatal(err)
		}
		j.Wait(waitCtx(t))
		ids[i] = j.ID()
	}
	if _, ok := q.Get(ids[0]); ok {
		t.Fatal("oldest job survived retention")
	}
	if _, ok := q.Get(ids[3]); !ok {
		t.Fatal("newest job evicted")
	}
}

func TestCloseFailsBacklogAndStopsSubmit(t *testing.T) {
	q := New(Config{Workers: 1, Depth: 4})
	block := make(chan struct{})
	running := make(chan struct{})
	first, err := q.Submit(func(ctx context.Context) ([]byte, error) {
		close(running)
		select {
		case <-block:
			return nil, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	<-running
	queued, err := q.Submit(func(context.Context) ([]byte, error) { return []byte("never"), nil })
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() { q.Close(); close(done) }()
	select {
	case <-done:
	case <-waitCtx(t).Done():
		t.Fatal("Close hung")
	}
	if _, err := q.Submit(func(context.Context) ([]byte, error) { return nil, nil }); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after close: %v, want ErrClosed", err)
	}
	if snap := first.Snapshot(); snap.State != StateFailed || !errors.Is(snap.Err, context.Canceled) {
		t.Fatalf("running job after close: %+v", snap)
	}
	// Shutdown failures are not caller cancels: the flag (and with it the
	// Canceled counter and the 499-style labelling upstream) stays unset.
	if snap := queued.Snapshot(); snap.State != StateFailed || !errors.Is(snap.Err, context.Canceled) || snap.Canceled {
		t.Fatalf("queued job after close: %+v", snap)
	}
	if st := q.Stats(); st.Canceled != 0 {
		t.Fatalf("shutdown inflated the canceled counter: %+v", st)
	}
}

// TestCancelLosingRaceToCompletion: a running job whose fn ignores the
// cancel and returns a result anyway settles as done with the canceled
// flag cleared — Canceled stays a subset of Failed.
func TestCancelLosingRaceToCompletion(t *testing.T) {
	q := New(Config{Workers: 1})
	defer q.Close()
	running := make(chan struct{})
	proceed := make(chan struct{})
	j, err := q.Submit(func(ctx context.Context) ([]byte, error) {
		close(running)
		<-proceed
		return []byte("won anyway"), nil // deliberately ignores ctx
	})
	if err != nil {
		t.Fatal(err)
	}
	<-running
	if !q.Cancel(j.ID()) {
		t.Fatal("cancel of running job reported no effect")
	}
	close(proceed)
	snap, _ := j.Wait(waitCtx(t))
	if snap.State != StateDone || snap.Canceled || string(snap.Result) != "won anyway" {
		t.Fatalf("snapshot: %+v", snap)
	}
	if st := q.Stats(); st.Canceled != 0 || st.Done != 1 || st.Failed != 0 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestNegativeRetainKeepsNothing(t *testing.T) {
	q := New(Config{Workers: 1, Retain: -1})
	defer q.Close()
	j, err := q.Submit(func(context.Context) ([]byte, error) { return nil, nil })
	if err != nil {
		t.Fatal(err)
	}
	j.Wait(waitCtx(t))
	if _, ok := q.Get(j.ID()); ok {
		t.Fatal("Retain<0 kept a terminal job")
	}
}

// TestConcurrentChurn hammers the queue from many goroutines under the
// race detector: submits, cancels and polls interleaving freely.
func TestConcurrentChurn(t *testing.T) {
	q := New(Config{Workers: 4, Depth: 64, Retain: 16})
	defer q.Close()
	var wg sync.WaitGroup
	var completed atomic.Int64
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				j, err := q.Submit(func(ctx context.Context) ([]byte, error) {
					select {
					case <-time.After(time.Duration(i%3) * time.Millisecond):
					case <-ctx.Done():
						return nil, ctx.Err()
					}
					return []byte(fmt.Sprintf("w%d-%d", w, i)), nil
				})
				if errors.Is(err, ErrQueueFull) {
					continue
				}
				if err != nil {
					t.Error(err)
					return
				}
				if i%4 == 0 {
					q.Cancel(j.ID())
				}
				if snap, err := j.Wait(waitCtx(t)); err == nil && snap.State == StateDone {
					completed.Add(1)
				}
			}
		}(w)
	}
	wg.Wait()
	st := q.Stats()
	if st.Queued != 0 || st.Running != 0 {
		t.Fatalf("gauges nonzero after drain: %+v", st)
	}
	if st.Done != completed.Load() {
		t.Fatalf("done %d != observed completions %d", st.Done, completed.Load())
	}
	if st.Done+st.Failed != st.Submitted {
		t.Fatalf("terminal %d+%d != submitted %d", st.Done, st.Failed, st.Submitted)
	}
}

func TestListFilter(t *testing.T) {
	q := New(Config{Workers: 1, Depth: 8})
	defer q.Close()
	block := make(chan struct{})
	jr, err := q.Submit(func(ctx context.Context) ([]byte, error) {
		<-block
		return []byte("r"), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Wait until the first job occupies the worker.
	waitState(t, jr, StateRunning)
	jq, err := q.Submit(func(ctx context.Context) ([]byte, error) { return nil, nil })
	if err != nil {
		t.Fatal(err)
	}
	if got := q.List(""); len(got) != 2 || got[0].ID != jr.ID() || got[1].ID != jq.ID() {
		t.Fatalf("List(all) = %+v", got)
	}
	if got := q.List(StateQueued); len(got) != 1 || got[0].ID != jq.ID() {
		t.Fatalf("List(queued) = %+v", got)
	}
	if got := q.List(StateDone); len(got) != 0 {
		t.Fatalf("List(done) = %+v", got)
	}
	close(block)
	waitState(t, jr, StateDone)
	waitState(t, jq, StateDone)
	if got := q.List(StateDone); len(got) != 2 {
		t.Fatalf("List(done) after completion = %+v", got)
	}
}

func TestExpireEvictsOldTerminalJobs(t *testing.T) {
	q := New(Config{Workers: 1, Depth: 8, ExpireAfter: 25 * time.Millisecond})
	defer q.Close()
	j, err := q.Submit(func(ctx context.Context) ([]byte, error) { return []byte("x"), nil })
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, j, StateDone)
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, ok := q.Get(j.ID()); !ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("terminal job never expired")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if st := q.Stats(); st.Expired == 0 {
		t.Errorf("Stats.Expired = %d, want > 0", st.Expired)
	}
	if got := q.List(""); len(got) != 0 {
		t.Errorf("expired job still listed: %+v", got)
	}
}

func TestExpireSparesLiveAndFreshJobs(t *testing.T) {
	q := New(Config{Workers: 1, Depth: 8})
	defer q.Close()
	q.cfg.ExpireAfter = time.Hour // drive expire by hand
	block := make(chan struct{})
	running, err := q.Submit(func(ctx context.Context) ([]byte, error) {
		<-block
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, running, StateRunning)
	done, err := q.Submit(func(ctx context.Context) ([]byte, error) { return nil, nil })
	if err != nil {
		t.Fatal(err)
	}
	if n := q.expire(time.Now()); n != 0 {
		t.Fatalf("expire evicted %d fresh jobs", n)
	}
	close(block)
	waitState(t, running, StateDone)
	waitState(t, done, StateDone)
	if n := q.expire(time.Now().Add(2 * time.Hour)); n != 2 {
		t.Fatalf("expire evicted %d jobs, want 2", n)
	}
	if _, ok := q.Get(running.ID()); ok {
		t.Error("expired job still tracked")
	}
}

// waitState polls a job until it reaches the wanted state.
func waitState(t *testing.T, j *Job, want State) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		snap := j.Snapshot()
		if snap.State == want {
			return
		}
		if snap.State.Terminal() {
			t.Fatalf("job %s reached %s, want %s", j.ID(), snap.State, want)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s, want %s", j.ID(), snap.State, want)
		}
		time.Sleep(time.Millisecond)
	}
}
