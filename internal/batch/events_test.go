package batch

import (
	"context"
	"fmt"
	"testing"
	"time"
)

// collectUntilTerminal drains a subscription until it delivers a
// terminal-state event for the given job (or the wait context dies).
func collectUntilTerminal(t *testing.T, ctx context.Context, sub *Subscription, jobID string) []Event {
	t.Helper()
	var events []Event
	for {
		select {
		case ev, ok := <-sub.C():
			if !ok {
				t.Fatalf("subscription closed before %s turned terminal (got %v)", jobID, events)
			}
			events = append(events, ev)
			if ev.JobID == jobID && ev.State.Terminal() {
				return events
			}
		case <-ctx.Done():
			t.Fatalf("no terminal event for %s (got %v)", jobID, events)
		}
	}
}

// TestEventsLifecycleOrder pins the core push contract: a per-job
// subscriber observes queued → running → done exactly once, in order,
// with strictly increasing sequence numbers.
func TestEventsLifecycleOrder(t *testing.T) {
	q := New(Config{Workers: 1})
	defer q.Close()
	// Subscribing to everything before submission catches the queued
	// event; the job filter is checked separately below.
	sub := q.Events().Subscribe("", "", 16)
	defer sub.Close()
	j, err := q.Submit(func(context.Context) ([]byte, error) { return []byte("x"), nil })
	if err != nil {
		t.Fatal(err)
	}
	events := collectUntilTerminal(t, waitCtx(t), sub, j.ID())
	want := []State{StateQueued, StateRunning, StateDone}
	if len(events) != len(want) {
		t.Fatalf("got %d events %v, want states %v", len(events), events, want)
	}
	var lastSeq uint64
	for i, ev := range events {
		if ev.State != want[i] || ev.JobID != j.ID() {
			t.Fatalf("event %d = %+v, want state %s for %s", i, ev, want[i], j.ID())
		}
		if ev.Seq <= lastSeq {
			t.Fatalf("event %d seq %d not increasing past %d", i, ev.Seq, lastSeq)
		}
		lastSeq = ev.Seq
	}
}

// TestEventsFailedCarriesReason: a failing job publishes a failed event
// with the error text, and a cancelled one is additionally marked.
func TestEventsFailedCarriesReason(t *testing.T) {
	q := New(Config{Workers: 1})
	defer q.Close()
	sub := q.Events().Subscribe("", "", 16)
	defer sub.Close()
	j, err := q.Submit(func(context.Context) ([]byte, error) { return nil, fmt.Errorf("boom") })
	if err != nil {
		t.Fatal(err)
	}
	events := collectUntilTerminal(t, waitCtx(t), sub, j.ID())
	last := events[len(events)-1]
	if last.State != StateFailed || last.Error != "boom" || last.Canceled {
		t.Fatalf("failed event = %+v", last)
	}

	started := make(chan struct{})
	jc, err := q.Submit(func(ctx context.Context) ([]byte, error) {
		close(started)
		<-ctx.Done()
		return nil, ctx.Err()
	})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	q.Cancel(jc.ID())
	events = collectUntilTerminal(t, waitCtx(t), sub, jc.ID())
	last = events[len(events)-1]
	if last.State != StateFailed || !last.Canceled {
		t.Fatalf("cancelled event = %+v", last)
	}
}

// TestEventsTopicFilter: a topic subscription sees exactly the jobs
// labelled with its topic, and events carry the labels.
func TestEventsTopicFilter(t *testing.T) {
	q := New(Config{Workers: 2})
	defer q.Close()
	sub := q.Events().Subscribe("", "red", 32)
	defer sub.Close()
	fn := func(context.Context) ([]byte, error) { return nil, nil }
	red, err := q.SubmitTraced(fn, "", "red", "hot")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q.SubmitTraced(fn, "", "blue"); err != nil {
		t.Fatal(err)
	}
	if _, err := q.Submit(fn); err != nil {
		t.Fatal(err)
	}
	events := collectUntilTerminal(t, waitCtx(t), sub, red.ID())
	for _, ev := range events {
		if ev.JobID != red.ID() {
			t.Fatalf("topic=red stream leaked event for %s: %+v", ev.JobID, ev)
		}
		if len(ev.Labels) != 2 || ev.Labels[0] != "red" || ev.Labels[1] != "hot" {
			t.Fatalf("event labels = %v, want [red hot]", ev.Labels)
		}
	}
	if snap := red.Snapshot(); len(snap.Labels) != 2 || snap.Labels[0] != "red" {
		t.Fatalf("snapshot labels = %v", snap.Labels)
	}
}

// TestEventsSlowConsumerDrop pins the drop-and-mark policy under -race:
// a subscriber with a one-slot buffer that never reads while many jobs
// flow is marked dropped (never blocking the queue), and a ring replay
// from its last seen sequence number recovers every missed event.
func TestEventsSlowConsumerDrop(t *testing.T) {
	q := New(Config{Workers: 4, Depth: 64})
	defer q.Close()
	sub := q.Events().Subscribe("", "", 1)
	defer sub.Close()
	const jobs = 20
	for i := 0; i < jobs; i++ {
		j, err := q.Submit(func(context.Context) ([]byte, error) { return nil, nil })
		if err != nil {
			t.Fatal(err)
		}
		if _, err := j.Wait(waitCtx(t)); err != nil {
			t.Fatal(err)
		}
	}
	dropped := sub.Dropped()
	if dropped == 0 {
		t.Fatalf("one-slot subscriber missed nothing across %d jobs (3 events each)", jobs)
	}
	// The one buffered event is the subscriber's last delivery; everything
	// after it must be recoverable from the ring.
	first := <-sub.C()
	recovered := q.Events().Replay(first.Seq, "", "")
	total := q.Events().Stats()
	if got := uint64(len(recovered)) + first.Seq; got != total.LastSeq {
		t.Fatalf("replay from seq %d returned %d events, want coverage to %d",
			first.Seq, len(recovered), total.LastSeq)
	}
	for i, ev := range recovered {
		if ev.Seq != first.Seq+uint64(i)+1 {
			t.Fatalf("replay gap at %d: seq %d", i, ev.Seq)
		}
	}
	if total.Dropped < dropped {
		t.Fatalf("manager dropped counter %d < subscription's %d", total.Dropped, dropped)
	}
}

// TestEventsRingBound: the replay ring is bounded — old events fall off
// and OldestRetained reports where coverage starts.
func TestEventsRingBound(t *testing.T) {
	q := New(Config{Workers: 1, EventRing: 8})
	defer q.Close()
	for i := 0; i < 10; i++ {
		j, err := q.Submit(func(context.Context) ([]byte, error) { return nil, nil })
		if err != nil {
			t.Fatal(err)
		}
		if _, err := j.Wait(waitCtx(t)); err != nil {
			t.Fatal(err)
		}
	}
	st := q.Events().Stats()
	if st.RingLen != 8 {
		t.Fatalf("ring holds %d events, want 8", st.RingLen)
	}
	oldest := q.Events().OldestRetained()
	if oldest != st.LastSeq-7 {
		t.Fatalf("oldest retained %d, want %d", oldest, st.LastSeq-7)
	}
	if got := q.Events().Replay(0, "", ""); len(got) != 8 || got[0].Seq != oldest {
		t.Fatalf("full replay returned %d events from %d", len(got), got[0].Seq)
	}
}

// TestExpirePublishesBeforeRemoval pins the retention-race fix: a swept
// job is marked expired and its event published before it leaves the
// tracking map, so a List racing the sweep never reports the stale
// done-state of a job that is already gone, and subscribers see the
// eviction.
func TestExpirePublishesBeforeRemoval(t *testing.T) {
	q := New(Config{Workers: 1, ExpireAfter: time.Hour})
	defer q.Close()
	sub := q.Events().Subscribe("", "", 16)
	defer sub.Close()
	j, err := q.Submit(func(context.Context) ([]byte, error) { return []byte("r"), nil })
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Wait(waitCtx(t)); err != nil {
		t.Fatal(err)
	}
	collectUntilTerminal(t, waitCtx(t), sub, j.ID())

	// The mid-sweep interleaving, deterministically: List collects its
	// job pointers (here: Get), the sweep runs, then the stale pointer is
	// snapshotted — it must report expired, not done.
	stale, ok := q.Get(j.ID())
	if !ok {
		t.Fatal("job vanished before the sweep")
	}
	if n := q.expire(time.Now().Add(2 * time.Hour)); n != 1 {
		t.Fatalf("expire evicted %d jobs, want 1", n)
	}
	snap := stale.Snapshot()
	if snap.State != StateExpired {
		t.Fatalf("swept job snapshots %q, want %q", snap.State, StateExpired)
	}
	if string(snap.Result) != "r" {
		t.Fatalf("sweep destroyed the result: %q", snap.Result)
	}
	if _, ok := q.Get(j.ID()); ok {
		t.Fatal("swept job still tracked")
	}
	if l := q.List(""); len(l) != 0 {
		t.Fatalf("List after sweep = %v, want empty", l)
	}
	select {
	case ev := <-sub.C():
		if ev.State != StateExpired || ev.JobID != j.ID() {
			t.Fatalf("post-sweep event = %+v, want expired for %s", ev, j.ID())
		}
	case <-waitCtx(t).Done():
		t.Fatal("no expired event published")
	}
	if st := q.Stats(); st.Expired != 1 {
		t.Fatalf("Stats.Expired = %d, want 1", st.Expired)
	}
}

// TestEventsSubscriptionCloseAndQueueClose: closing a subscription stops
// delivery; closing the queue closes every remaining channel.
func TestEventsSubscriptionCloseAndQueueClose(t *testing.T) {
	q := New(Config{Workers: 1})
	sub := q.Events().Subscribe("", "", 4)
	sub.Close()
	sub.Close() // idempotent
	if _, err := q.Submit(func(context.Context) ([]byte, error) { return nil, nil }); err != nil {
		t.Fatal(err)
	}
	remaining := q.Events().Subscribe("", "", 4)
	q.Close()
	for {
		if _, ok := <-remaining.C(); !ok {
			break
		}
	}
	if st := q.Events().Stats(); st.Subscribers != 0 {
		t.Fatalf("%d subscribers survived Close", st.Subscribers)
	}
	// A post-Close subscription is born closed instead of leaking.
	if _, ok := <-q.Events().Subscribe("", "", 1).C(); ok {
		t.Fatal("post-Close subscription delivered an event")
	}
}

// BenchmarkPublish measures the publish hot path — sequence assignment,
// ring append, fan-out to four subscribers (with drainers, so the happy
// send path dominates rather than the drop branch).
func BenchmarkPublish(b *testing.B) {
	e := newEvents(1024)
	stop := make(chan struct{})
	for i := 0; i < 4; i++ {
		sub := e.Subscribe("", "", 4096)
		go func() {
			for {
				select {
				case <-sub.C():
				case <-stop:
					return
				}
			}
		}()
	}
	ev := Event{JobID: "j000001", State: StateRunning, Labels: []string{"bench"}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.publish(ev)
	}
	b.StopTimer()
	close(stop)
}
