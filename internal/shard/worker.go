package shard

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"antlayer/internal/dag"
	"antlayer/internal/island"
	"antlayer/internal/obs"
)

// errAborted tags a run the coordinator told the worker to drop; the
// worker returns to idle without reporting.
var errAborted = errors.New("shard: run aborted by coordinator")

// defaultHeartbeatInterval is how often an idle or computing worker tells
// the coordinator it is alive. A quarter of the coordinator's default
// liveness timeout, plus margin.
const defaultHeartbeatInterval = 2 * time.Second

// Backoff is the retry schedule of a worker reconnecting to its
// coordinator, reused by the daemon's webhook deliveries: the delay
// before retry attempt k (0-based) is base<<k plus (k%5) sixteenths of
// that doubled delay, capped at max. The jitter term is keyed off the
// attempt counter, so a restarted fleet does not redial in lockstep, yet
// the exact schedule is reproducible.
func Backoff(base, max time.Duration, attempt int) time.Duration {
	d := base
	for i := 0; i < attempt && d < max; i++ {
		d *= 2
	}
	d += time.Duration(attempt%5) * (d / 16)
	if d > max {
		d = max
	}
	return d
}

// FaultPlan is a test-only fault-injection hook: the chaos harness (and
// the shard failure tests) use it to make a worker misbehave at an exact,
// reproducible point in the epoch protocol. Production workers run with a
// nil plan. The Die* faults fire at most once per Worker, so a worker
// restarted by a reconnect loop rejoins healthy instead of dying forever.
type FaultPlan struct {
	// EpochDelay sleeps this long before answering each epoch barrier —
	// a deterministic "slow worker" that drags every epoch of every run.
	EpochDelay time.Duration
	// DieAtEpoch, when positive, closes the coordinator connection
	// instead of sending that epoch's frame: death mid-epoch, while the
	// coordinator is blocked at the barrier.
	DieAtEpoch int
	// DieAfterMigrate, when positive, closes the connection right after
	// consuming the migrate frame of that epoch: death between migrate
	// and finish, after the coordinator committed the exchange.
	DieAfterMigrate int
}

// WorkerConfig tunes a Worker. The zero value is usable.
type WorkerConfig struct {
	// Name identifies the worker in the coordinator's logs and metrics.
	// Empty means the coordinator assigns "worker-<id>".
	Name string
	// Secret is the shared cluster secret presented at registration.
	// Must match the coordinator's when one is configured there; a
	// mismatch is a clean registration failure.
	Secret string
	// HeartbeatInterval is how often the worker sends a liveness frame —
	// also while computing an epoch, so a slow shard is distinguishable
	// from a dead one. 0 means the default (2s); negative disables
	// heartbeats (the coordinator's reaper will then expel the worker
	// unless its timeout is disabled too).
	HeartbeatInterval time.Duration
	// OnRegister, when non-nil, is called after each successful
	// registration with the coordinator-assigned worker id. The reconnect
	// backoff in `daglayer worker` resets on it.
	OnRegister func(id int)
	// Fault injects test-only faults; nil (always, in production) means
	// a healthy worker.
	Fault *FaultPlan
	// Log receives run-lifecycle lines. Nil discards.
	Log *slog.Logger
}

// Worker hosts island slices for a coordinator: it dials, registers, and
// then serves runs until the connection drops or the context is done.
// One Worker serves one coordinator connection at a time; each run gets
// a fresh island.Engine, so no state leaks between runs.
type Worker struct {
	cfg WorkerConfig
	// faultFired latches the one-shot Die* faults (see FaultPlan).
	faultFired atomic.Bool
}

// NewWorker builds a Worker (zero-value config fine).
func NewWorker(cfg WorkerConfig) *Worker {
	if cfg.HeartbeatInterval == 0 {
		cfg.HeartbeatInterval = defaultHeartbeatInterval
	}
	if cfg.Log == nil {
		cfg.Log = obs.Discard()
	}
	return &Worker{cfg: cfg}
}

// lockedConn serialises frame writes on a worker connection between the
// run exchange and the background heartbeat goroutine. Reads need no
// lock: the Run loop is the only reader.
type lockedConn struct {
	mu   sync.Mutex
	conn net.Conn
}

func (lc *lockedConn) write(m *message) error {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	return writeFrame(lc.conn, m)
}

// Run dials the coordinator at addr, registers, and serves runs until
// ctx is cancelled (returns nil) or the connection fails (returns the
// error; callers typically back off and redial).
func (w *Worker) Run(ctx context.Context, addr string) error {
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return fmt.Errorf("shard: dial coordinator %s: %w", addr, err)
	}
	defer conn.Close()
	// Unblock any pending read/write when ctx is cancelled.
	done := make(chan struct{})
	defer close(done)
	go func() {
		select {
		case <-ctx.Done():
			conn.Close()
		case <-done:
		}
	}()

	lc := &lockedConn{conn: conn}
	if err := lc.write(&message{Type: msgHello, Name: w.cfg.Name, Auth: w.cfg.Secret}); err != nil {
		return err
	}
	var welcome message
	if err := readFrame(conn, &welcome); err != nil || welcome.Type != msgWelcome {
		if ctx.Err() != nil {
			return nil
		}
		if err == nil && welcome.Type == msgError {
			return fmt.Errorf("shard: registration with %s rejected: %s", addr, welcome.Error)
		}
		return fmt.Errorf("shard: registration with %s failed (got %v, err %v)", addr, welcome.Type, err)
	}
	name := w.cfg.Name
	if name == "" {
		// Mirror the coordinator's assigned name so the worker's span and
		// log attributes join against the coordinator's metrics.
		name = fmt.Sprintf("worker-%d", welcome.WorkerID)
	}
	w.cfg.Log.Info("registered with coordinator", "coordinator", addr, "worker", name, "worker_id", welcome.WorkerID)
	if w.cfg.OnRegister != nil {
		w.cfg.OnRegister(welcome.WorkerID)
	}

	// Heartbeat: a liveness frame every interval, whatever the worker is
	// doing — computing an epoch included. A write failure just stops the
	// beat; the Run loop's read surfaces the broken connection.
	if w.cfg.HeartbeatInterval > 0 {
		go func() {
			t := time.NewTicker(w.cfg.HeartbeatInterval)
			defer t.Stop()
			for {
				select {
				case <-done:
					return
				case <-t.C:
					if err := lc.write(&message{Type: msgHeartbeat}); err != nil {
						return
					}
				}
			}
		}()
	}

	for {
		var m message
		if err := readFrame(conn, &m); err != nil {
			if ctx.Err() != nil {
				return nil
			}
			return fmt.Errorf("shard: coordinator connection lost: %w", err)
		}
		switch m.Type {
		case msgRun:
			if err := w.serveRun(ctx, lc, &m, name); err != nil {
				if ctx.Err() != nil {
					return nil
				}
				return err
			}
		case msgError:
			// A stray abort for a run this worker already left; ignore.
		default:
			// Unknown frame while idle: tolerate (forward compatibility).
		}
	}
}

// serveRun executes one assigned run. Worker-side failures are reported
// to the coordinator in-band and leave the connection usable; only
// transport failures propagate (and end the connection). The worker
// measures its per-epoch compute into a local trace whose clock starts
// here; the report frame carries those spans back for the coordinator
// to rebase onto the request trace.
func (w *Worker) serveRun(ctx context.Context, lc *lockedConn, run *message, name string) error {
	start := time.Now()
	tr := obs.NewTrace(run.TraceID)
	reports, err := w.computeRun(ctx, lc, run, tr, name)
	if err != nil {
		if errors.Is(err, errAborted) {
			w.cfg.Log.Info("run aborted by coordinator", "seq", run.Seq, "trace", run.TraceID)
			return nil
		}
		if ctx.Err() != nil {
			return err
		}
		// In-band failure: tell the coordinator and stay registered.
		w.cfg.Log.Warn("run failed", "seq", run.Seq, "trace", run.TraceID, "err", err)
		return lc.write(&message{Type: msgError, Seq: run.Seq, Error: err.Error()})
	}
	if err := lc.write(&message{Type: msgReport, Seq: run.Seq, Reports: reports, Spans: tr.Spans()}); err != nil {
		return err
	}
	w.cfg.Log.Info("run complete", "seq", run.Seq, "trace", run.TraceID,
		"islands", len(reports), "dur", time.Since(start).Round(time.Millisecond))
	return nil
}

// computeRun builds the engine for the assigned slice and drives it
// against the network migrator until the coordinator says the
// archipelago is done.
func (w *Worker) computeRun(ctx context.Context, lc *lockedConn, run *message, tr *obs.Trace, name string) ([]island.Report, error) {
	if run.Graph == nil || run.Params == nil {
		return nil, fmt.Errorf("shard: run frame missing graph or params")
	}
	g, err := dag.FromSnapshot(*run.Graph)
	if err != nil {
		return nil, err
	}
	e, err := island.NewEngine(g, *run.Params, run.Islands)
	if err != nil {
		return nil, err
	}
	m := &netMigrator{worker: w, lc: lc, seq: run.Seq, tr: tr, name: name}
	if _, err := island.Drive(ctx, e, m); err != nil {
		return nil, err
	}
	return e.Finalize()
}

// netMigrator is the worker-side Migrator: the epoch barrier and the
// elite exchange live on the far side of the coordinator connection.
type netMigrator struct {
	worker *Worker
	lc     *lockedConn
	seq    uint64

	// Span measurement: tr's clock starts at the run frame; last is the
	// offset at which the previous Exchange returned, so the stretch up
	// to the next Exchange call is this epoch's compute time.
	tr   *obs.Trace
	name string
	last time.Duration
}

// die executes a one-shot connection-killing fault: close the socket so
// the coordinator sees the death exactly where the plan placed it.
func (m *netMigrator) die(where string, epoch int) error {
	m.lc.conn.Close()
	return fmt.Errorf("shard: fault injection: dying %s (epoch %d)", where, epoch)
}

// Exchange sends the local elites and blocks until the coordinator's
// barrier answers — with the incoming elites (migrate), the end of the
// run (finish), or an abort (error).
func (m *netMigrator) Exchange(ctx context.Context, epoch int, local []island.Elite) ([]island.Elite, bool, error) {
	if f := m.worker.cfg.Fault; f != nil {
		if f.EpochDelay > 0 {
			select {
			case <-time.After(f.EpochDelay):
			case <-ctx.Done():
				return nil, false, ctx.Err()
			}
		}
		if f.DieAtEpoch == epoch && m.worker.faultFired.CompareAndSwap(false, true) {
			return nil, false, m.die("mid-epoch", epoch)
		}
	}
	// The stretch since the previous barrier answer is this epoch's
	// compute (fault delays included — they simulate slow compute).
	now := m.tr.Since()
	m.tr.Observe("worker_epoch", m.name, epoch, m.last, now-m.last)
	if err := m.lc.write(&message{Type: msgEpoch, Seq: m.seq, Epoch: epoch, Elites: local}); err != nil {
		return nil, false, err
	}
	for {
		var reply message
		if err := readFrame(m.lc.conn, &reply); err != nil {
			if ctx.Err() != nil {
				return nil, false, fmt.Errorf("shard: exchange aborted: %w", ctx.Err())
			}
			return nil, false, err
		}
		if reply.Seq != m.seq {
			continue // frame from another run; not ours
		}
		switch reply.Type {
		case msgMigrate:
			if f := m.worker.cfg.Fault; f != nil && f.DieAfterMigrate == epoch && m.worker.faultFired.CompareAndSwap(false, true) {
				return nil, false, m.die("after migrate", epoch)
			}
			m.last = m.tr.Since()
			return reply.Elites, true, nil
		case msgFinish:
			return nil, false, nil
		case msgError:
			return nil, false, fmt.Errorf("%w: %s", errAborted, reply.Error)
		default:
			return nil, false, fmt.Errorf("shard: protocol: unexpected %s frame at the barrier", reply.Type)
		}
	}
}
