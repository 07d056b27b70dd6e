// Package batch provides a bounded asynchronous job queue with a fixed
// worker pool — the engine behind the HTTP daemon's /jobs API and the
// `daglayer batch` CLI mode.
//
// A job is an opaque func(ctx) ([]byte, error). Submit enqueues it (or
// fails fast with ErrQueueFull when the backlog bound is hit — callers
// surface that as HTTP 429), a worker runs it under a context descending
// from the queue's lifetime, and the job object tracks its way through
// queued → running → done|failed. Cancel aborts a job at any point before
// completion: a still-queued job fails immediately without ever running,
// a running one has its context cancelled and fails when the work unwinds
// (the ant colony's RunContext observes the context within one ant walk
// per worker, so cancellation is prompt). Terminal jobs are retained for
// polling, bounded by Config.Retain — the oldest terminal job is evicted
// first, so memory stays bounded no matter how many jobs flow through —
// and, when Config.ExpireAfter is set, by age as well (a background
// sweep evicts terminal jobs past the TTL). List enumerates the tracked
// jobs, optionally filtered by state.
//
// All methods are safe for concurrent use.
package batch

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"
)

// State is a job's position in its lifecycle.
type State string

const (
	StateQueued  State = "queued"
	StateRunning State = "running"
	StateDone    State = "done"
	StateFailed  State = "failed"
)

// Terminal reports whether a job in this state is finished (done,
// failed, or swept as expired) and will never change state again.
func (s State) Terminal() bool { return s == StateDone || s == StateFailed || s == StateExpired }

// Common queue errors.
var (
	// ErrQueueFull reports that Submit found the backlog at capacity.
	ErrQueueFull = errors.New("batch: queue full")
	// ErrClosed reports a Submit after Close.
	ErrClosed = errors.New("batch: queue closed")
	// ErrCanceled is the failure error of a job cancelled by Cancel. It
	// wraps context.Canceled so errors.Is(err, context.Canceled) holds on
	// both the queued-cancel and running-cancel paths.
	ErrCanceled = fmt.Errorf("batch: job canceled by caller: %w", context.Canceled)
)

// Func is the work a job performs. It must honour ctx: the queue cancels
// it on Cancel and on Close.
type Func func(ctx context.Context) ([]byte, error)

// Config tunes a Queue. The zero value is usable; every field falls back
// to the documented default.
type Config struct {
	// Workers is the pool size — how many jobs run concurrently.
	// 0 means GOMAXPROCS.
	Workers int
	// Depth bounds the backlog: at most Depth jobs may sit queued (not
	// yet running) at once; Submit beyond that returns ErrQueueFull.
	// 0 means 64.
	Depth int
	// Retain bounds how many terminal (done/failed) jobs are kept for
	// Get; the oldest is evicted first. 0 means 256; negative retains
	// nothing.
	Retain int
	// ExpireAfter, when positive, additionally bounds how long a
	// terminal job stays pollable: a background sweep evicts terminal
	// jobs whose finish time is at least this old, so a mostly idle
	// queue does not pin day-old results in memory waiting for the
	// count bound. 0 disables age-based expiry.
	ExpireAfter time.Duration
	// EventRing bounds the pub/sub replay ring: how many recent job
	// state transitions Events retains for Last-Event-ID-style replay.
	// 0 means 1024.
	EventRing int
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.Depth == 0 {
		c.Depth = 64
	}
	if c.Retain == 0 {
		c.Retain = 256
	}
	return c
}

// Job is one unit of work owned by a Queue. All accessors return
// consistent snapshots; Wait blocks until the job is terminal.
type Job struct {
	id      string
	seq     uint64 // submission order; List sorts by it (ids zero-pad out at 10^6)
	fn      Func
	labels  []string // topics; immutable after Submit
	traceID string   // request trace the job belongs to; immutable after Submit

	mu        sync.Mutex
	state     State
	result    []byte
	err       error
	canceled  bool
	cancel    context.CancelFunc // armed while running
	submitted time.Time
	started   time.Time
	finished  time.Time

	done chan struct{} // closed when the job turns terminal
}

// ID returns the job's queue-unique identifier.
func (j *Job) ID() string { return j.id }

// Snapshot is a consistent point-in-time view of a job.
type Snapshot struct {
	ID    string
	State State
	// Result is the job's output; set when State is StateDone.
	Result []byte
	// Err is the failure; set when State is StateFailed. A cancelled job
	// fails with an error wrapping context.Canceled (see ErrCanceled).
	Err error
	// Canceled reports that the failure was caused by Cancel rather than
	// the work itself.
	Canceled bool
	// Labels are the job's topics (see SubmitTraced).
	Labels []string
	// TraceID names the request trace the job belongs to (see
	// SubmitTraced); the daemon echoes it on job envelopes so a polled
	// job can be joined with its /traces entry.
	TraceID   string
	Submitted time.Time
	Started   time.Time
	Finished  time.Time
}

// Snapshot returns the job's current state.
func (j *Job) Snapshot() Snapshot {
	j.mu.Lock()
	defer j.mu.Unlock()
	return Snapshot{
		ID:        j.id,
		State:     j.state,
		Result:    j.result,
		Err:       j.err,
		Canceled:  j.canceled,
		Labels:    j.labels,
		TraceID:   j.traceID,
		Submitted: j.submitted,
		Started:   j.started,
		Finished:  j.finished,
	}
}

// Done returns a channel closed when the job turns terminal.
func (j *Job) Done() <-chan struct{} { return j.done }

// Wait blocks until the job is terminal or ctx is cancelled, returning
// the final snapshot (or the current one alongside ctx's error).
func (j *Job) Wait(ctx context.Context) (Snapshot, error) {
	select {
	case <-j.done:
		return j.Snapshot(), nil
	case <-ctx.Done():
		return j.Snapshot(), ctx.Err()
	}
}

// Stats is a point-in-time summary of a queue, shaped for /metrics.
type Stats struct {
	// Submitted counts every successfully submitted job.
	Submitted int64 `json:"submitted"`
	// Rejected counts Submit calls refused with ErrQueueFull.
	Rejected int64 `json:"rejected"`
	// Queued and Running are gauges; Done, Failed and Canceled count
	// terminal outcomes (Canceled ⊆ Failed).
	Queued   int64 `json:"queued"`
	Running  int64 `json:"running"`
	Done     int64 `json:"done"`
	Failed   int64 `json:"failed"`
	Canceled int64 `json:"canceled"`
	// Expired counts terminal jobs evicted by the age-based retention
	// sweep (count-bound evictions are not included).
	Expired int64 `json:"expired"`
	// Depth is the backlog bound Submit enforces; Workers is the pool
	// size draining it. Together with the Queued gauge they determine
	// RetryAfter.
	Depth   int `json:"depth"`
	Workers int `json:"workers"`
}

// Queue is a bounded job queue with a fixed worker pool. Create with New,
// stop with Close.
type Queue struct {
	cfg        Config
	baseCtx    context.Context
	cancelBase context.CancelFunc
	pending    chan *Job
	events     *Events
	wg         sync.WaitGroup
	sweepStop  chan struct{} // nil when age-based expiry is off
	sweepDone  chan struct{}

	mu        sync.Mutex
	jobs      map[string]*Job
	retention []string // terminal job ids, oldest first
	seq       uint64
	closed    bool
	stats     Stats
}

// New builds a Queue from cfg (zero value fine; see Config) and starts
// its workers.
func New(cfg Config) *Queue {
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	q := &Queue{
		cfg:        cfg,
		baseCtx:    ctx,
		cancelBase: cancel,
		pending:    make(chan *Job, cfg.Depth),
		events:     newEvents(cfg.EventRing),
		jobs:       make(map[string]*Job),
	}
	q.stats.Depth = cfg.Depth
	q.stats.Workers = cfg.Workers
	for i := 0; i < cfg.Workers; i++ {
		q.wg.Add(1)
		go q.worker()
	}
	if cfg.ExpireAfter > 0 {
		q.sweepStop = make(chan struct{})
		q.sweepDone = make(chan struct{})
		go q.sweeper()
	}
	return q
}

// sweeper periodically evicts terminal jobs older than ExpireAfter. The
// tick is a quarter of the TTL (clamped to [10ms, 1m]), so a job
// overstays its retention by at most ~25%.
func (q *Queue) sweeper() {
	defer close(q.sweepDone)
	tick := q.cfg.ExpireAfter / 4
	if tick < 10*time.Millisecond {
		tick = 10 * time.Millisecond
	}
	if tick > time.Minute {
		tick = time.Minute
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-q.sweepStop:
			return
		case now := <-t.C:
			q.expire(now)
		}
	}
}

// expire evicts terminal jobs whose finish time is at least ExpireAfter
// before now, oldest first, and reports how many went. The retention
// list is ordered by finish time (finish appends), so the scan stops at
// the first survivor.
func (q *Queue) expire(now time.Time) int {
	q.mu.Lock()
	defer q.mu.Unlock()
	ttl := q.cfg.ExpireAfter
	if ttl <= 0 {
		return 0
	}
	n := 0
	for len(q.retention) > 0 {
		j, ok := q.jobs[q.retention[0]]
		if !ok { // already gone (should not happen; stay robust)
			q.retention = q.retention[1:]
			continue
		}
		j.mu.Lock()
		expired := now.Sub(j.finished) >= ttl
		if expired {
			// Mark and publish BEFORE removal: a List that collected this
			// job's pointer just before the sweep snapshots StateExpired
			// (and filters it out) instead of briefly reporting the stale
			// done/failed state of a job that is already gone, and event
			// subscribers learn the id was evicted rather than polling
			// into a 404. Result/Err stay intact so a racing reader that
			// already held the job still gets its data.
			j.state = StateExpired
		}
		ev := eventOf(j, StateExpired)
		j.mu.Unlock()
		if !expired {
			break
		}
		q.events.publish(ev)
		delete(q.jobs, j.id)
		q.retention = q.retention[1:]
		q.stats.Expired++
		n++
	}
	return n
}

// Submit enqueues fn and returns its job. It fails fast with ErrQueueFull
// when the backlog is at capacity and ErrClosed after Close.
func (q *Queue) Submit(fn Func) (*Job, error) {
	return q.SubmitTraced(fn, "")
}

// SubmitTraced is Submit with a request trace ID and topic labels
// attached to the job. The daemon's /jobs handler passes the trace it
// opened for the submission so the job's envelope can point back at GET
// /traces/{id} (empty for none). Every event the job publishes carries
// the labels, so per-topic subscribers (an SSE /events?topic= stream, a
// webhook subscription) see it. Neither influences the work or its
// result.
func (q *Queue) SubmitTraced(fn Func, traceID string, labels ...string) (*Job, error) {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return nil, ErrClosed
	}
	// Submit is the only sender on q.pending and runs under q.mu, so a
	// length check is a reliable admission test — and doing it before
	// publishing means the queued event precedes the job's visibility to
	// workers, which is what keeps queued < running in sequence order.
	if len(q.pending) >= cap(q.pending) {
		q.stats.Rejected++
		q.mu.Unlock()
		return nil, fmt.Errorf("%w: %d jobs pending", ErrQueueFull, len(q.pending))
	}
	q.seq++
	j := &Job{
		id:        fmt.Sprintf("j%06d", q.seq),
		seq:       q.seq,
		fn:        fn,
		labels:    labels,
		traceID:   traceID,
		state:     StateQueued,
		submitted: time.Now(),
		done:      make(chan struct{}),
	}
	q.jobs[j.id] = j
	q.stats.Submitted++
	q.stats.Queued++
	q.events.publish(eventOf(j, StateQueued))
	q.pending <- j // cannot block: admission was checked above
	q.mu.Unlock()
	return j, nil
}

// Events returns the queue's pub/sub manager: every job state transition
// (queued, running, done, failed, expired) is published to it.
func (q *Queue) Events() *Events { return q.events }

// Get returns the job with the given id, if it is still tracked (jobs
// evicted by the retention bound are gone).
func (q *Queue) Get(id string) (*Job, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	j, ok := q.jobs[id]
	return j, ok
}

// List returns a snapshot of every tracked job in submission order,
// optionally filtered by state ("" means all). Jobs evicted by either
// retention bound do not appear.
func (q *Queue) List(filter State) []Snapshot {
	q.mu.Lock()
	jobs := make([]*Job, 0, len(q.jobs))
	for _, j := range q.jobs {
		jobs = append(jobs, j)
	}
	q.mu.Unlock()
	// Sorted by the numeric submission sequence — the zero-padded ids
	// stop sorting lexicographically at the millionth job. Snapshots are
	// taken outside q.mu: finish locks q.mu before j.mu, so holding both
	// here in the other order could deadlock.
	sort.Slice(jobs, func(i, k int) bool { return jobs[i].seq < jobs[k].seq })
	snaps := make([]Snapshot, 0, len(jobs))
	for _, j := range jobs {
		snap := j.Snapshot()
		// A job the expiry sweep evicted between the collection above and
		// this snapshot reports StateExpired — it is no longer tracked, so
		// it must not be listed (with any filter) as if it still were.
		if snap.State == StateExpired {
			continue
		}
		if filter != "" && snap.State != filter {
			continue
		}
		snaps = append(snaps, snap)
	}
	return snaps
}

// Cancel aborts the job with the given id: a queued job fails immediately
// without running, a running job has its context cancelled. It reports
// whether the job existed and was still cancellable (terminal jobs are
// not).
func (q *Queue) Cancel(id string) bool {
	q.mu.Lock()
	j, ok := q.jobs[id]
	q.mu.Unlock()
	if !ok {
		return false
	}
	j.mu.Lock()
	switch j.state {
	case StateQueued:
		// Fail in place; the worker that eventually pops the job sees the
		// terminal state and skips it.
		j.canceled = true
		j.mu.Unlock()
		q.finish(j, nil, ErrCanceled)
		return true
	case StateRunning:
		j.canceled = true
		cancel := j.cancel
		j.mu.Unlock()
		if cancel != nil {
			cancel()
		}
		return true
	default:
		j.mu.Unlock()
		return false
	}
}

// Stats returns a point-in-time summary of the queue.
func (q *Queue) Stats() Stats {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.stats
}

// RetryAfter suggests, in whole seconds, when a submitter rejected with
// ErrQueueFull should try again: the number of queue-drain rounds ahead
// of it — backlog plus the jobs already running, divided by the worker
// pool — clamped to [1, 30]. The value is a pure function of the queue
// stats (see RetryAfterSeconds), so clients see a backlog-proportional
// hint instead of a constant, and tests can pin it deterministically.
func (q *Queue) RetryAfter() int {
	return RetryAfterSeconds(q.Stats())
}

// RetryAfterSeconds is RetryAfter computed from a stats snapshot.
func RetryAfterSeconds(s Stats) int {
	workers := int64(s.Workers)
	if workers <= 0 {
		workers = 1
	}
	rounds := (s.Queued + s.Running + workers - 1) / workers
	if rounds < 1 {
		rounds = 1
	}
	if rounds > 30 {
		rounds = 30
	}
	return int(rounds)
}

// Close stops the queue: no further Submit succeeds, queued jobs fail as
// cancelled, running jobs have their contexts cancelled, and Close blocks
// until the workers drain. Safe to call more than once.
func (q *Queue) Close() {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		q.wg.Wait()
		return
	}
	q.closed = true
	close(q.pending)
	q.mu.Unlock()
	q.cancelBase() // aborts running jobs; queued ones fail in the drain below
	q.wg.Wait()
	if q.sweepStop != nil {
		close(q.sweepStop)
		<-q.sweepDone
	}
	// Workers and sweeper have drained: no publisher is left, so the
	// subscriber channels can close and streaming consumers unblock.
	q.events.closeAll()
}

// worker pops jobs until the pending channel drains after Close.
func (q *Queue) worker() {
	defer q.wg.Done()
	for j := range q.pending {
		j.mu.Lock()
		if j.state.Terminal() { // cancelled while queued
			j.mu.Unlock()
			continue
		}
		if err := q.baseCtx.Err(); err != nil {
			// The queue is closing: fail the backlog instead of starting
			// doomed work. This is a shutdown, not a caller cancel, so the
			// job is NOT marked canceled — pollers should see the
			// shutdown shape (an error wrapping context.Canceled without
			// the cancel flag), and Stats.Canceled counts only real
			// Cancel calls.
			j.mu.Unlock()
			q.finish(j, nil, fmt.Errorf("batch: queue closed before job ran: %w", err))
			continue
		}
		ctx, cancel := context.WithCancel(q.baseCtx)
		j.state = StateRunning
		j.started = time.Now()
		j.cancel = cancel
		canceled := j.canceled // Cancel may have raced Submit
		ev := eventOf(j, StateRunning)
		j.mu.Unlock()
		// The terminal event is published by finish, called below on this
		// same goroutine, so a job's running event always precedes it.
		q.events.publish(ev)
		q.gauge(-1, +1)
		if canceled {
			cancel()
		}
		result, err := runSafely(j.fn, ctx)
		cancel()
		q.finish(j, result, err)
	}
}

// runSafely runs fn, converting a panic into a failure so one bad job
// cannot take the worker (and with it the whole pool) down.
func runSafely(fn Func, ctx context.Context) (result []byte, err error) {
	defer func() {
		if r := recover(); r != nil {
			result, err = nil, fmt.Errorf("batch: job panicked: %v", r)
		}
	}()
	return fn(ctx)
}

// gauge shifts the queued/running gauges by the given deltas.
func (q *Queue) gauge(dQueued, dRunning int64) {
	q.mu.Lock()
	q.stats.Queued += dQueued
	q.stats.Running += dRunning
	q.mu.Unlock()
}

// finish moves a job to its terminal state, updates the counters and
// evicts the oldest terminal job beyond the retention bound. A cancelled
// job's own error (including a context.Canceled bubbling out of the work)
// is normalised to ErrCanceled so callers see one cancellation shape.
// finish is idempotent: Cancel and the worker can race to it (cancel a
// queued job just as a worker pops it) and only the first call settles
// the job.
func (q *Queue) finish(j *Job, result []byte, err error) {
	q.mu.Lock()
	j.mu.Lock()
	if j.state.Terminal() {
		j.mu.Unlock()
		q.mu.Unlock()
		return
	}
	wasQueued := j.state == StateQueued
	if err != nil {
		if j.canceled {
			err = ErrCanceled
		}
		j.state = StateFailed
		j.err = err
	} else {
		// A Cancel that lost the race to a successful completion is a
		// no-op: the job is done, the flag is cleared, and the Canceled
		// counter stays an exact subset of Failed.
		j.canceled = false
		j.state = StateDone
		j.result = result
	}
	j.finished = time.Now()
	canceled := j.canceled
	ev := eventOf(j, j.state)
	j.mu.Unlock()
	close(j.done)
	q.events.publish(ev)

	if wasQueued {
		q.stats.Queued--
	} else {
		q.stats.Running--
	}
	if err != nil {
		q.stats.Failed++
	} else {
		q.stats.Done++
	}
	if canceled {
		q.stats.Canceled++
	}
	q.retention = append(q.retention, j.id)
	limit := q.cfg.Retain
	if limit < 0 { // negative retains nothing
		limit = 0
	}
	for len(q.retention) > limit {
		delete(q.jobs, q.retention[0])
		q.retention = q.retention[1:]
	}
	q.mu.Unlock()
}
