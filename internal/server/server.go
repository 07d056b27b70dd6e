// Package server exposes the layering algorithms as a long-running HTTP
// service: POST a DOT or edge-list graph to /layer and get the layering,
// the paper's quality metrics and optionally an SVG/ASCII drawing back as
// JSON — or submit the same request asynchronously to /jobs and poll.
//
// The daemon is built for repeated heavy traffic:
//
//   - Results are cached in an LRU keyed by the canonical (graph, params)
//     hash. Colony runs are bitwise-deterministic (PR 1), so a hit returns
//     exactly the bytes a recomputation would produce — repeated graphs
//     are free. /layer and /jobs share the cache.
//   - A semaphore bounds the number of concurrently computing /layer
//     requests; waiting requests hold no worker resources and honour
//     their deadline while queued.
//   - POST /jobs enqueues the request on a bounded job queue (202 + job
//     id; 429 when the backlog is full) worked by a fixed pool, so
//     clients submit many graphs without holding a connection open per
//     request. GET /jobs/{id} polls — a done job answers with exactly
//     the body /layer would have served — and DELETE /jobs/{id} cancels
//     through the colony's context plumbing.
//   - Every computation runs under a deadline (server default,
//     per-request override, hard cap) threaded into the colony's tour
//     loop via context.Context; an expired deadline aborts the run within
//     one ant walk per worker and answers 504 (or fails the job).
//   - /healthz for liveness plus build info, /metrics for counters
//     (requests, cache hit rate, tours run, p50/p99 latency, job-queue
//     depth and per-state counts), graceful shutdown via Serve's context.
//
// Start it with `daglayer serve`.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"net/http/pprof"
	"net/url"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"antlayer"
	"antlayer/internal/batch"
	"antlayer/internal/buildinfo"
	"antlayer/internal/obs"
	"antlayer/internal/shard"

	"log/slog"
)

// Config tunes the daemon. The zero value is usable: every field falls
// back to the documented default.
type Config struct {
	// Addr is the listen address for ListenAndServe. Default ":8645".
	Addr string
	// CacheSize is the LRU capacity in responses. 0 means the default
	// (256); negative disables caching.
	CacheSize int
	// CacheMaxBytes is the LRU's body-byte budget: entries are evicted
	// until total cached bytes fit, and a single body larger than an
	// eighth of the budget is never admitted (so one giant SVG cannot
	// purge dozens of plain layering entries). 0 means the default
	// (64 MiB); negative disables the byte bound (entry-counted only).
	CacheMaxBytes int64
	// MaxConcurrent bounds the /layer requests computing at once; further
	// requests queue (holding no CPU) until a slot or their deadline.
	// 0 means GOMAXPROCS.
	MaxConcurrent int
	// DefaultTimeout bounds a /layer request that sends no timeout-ms.
	// Default 30s.
	DefaultTimeout time.Duration
	// MaxTimeout caps the per-request timeout-ms override. Default 2m.
	MaxTimeout time.Duration
	// MaxBodyBytes caps the request body. Default 8 MiB.
	MaxBodyBytes int64
	// ShutdownGrace bounds how long Serve waits for in-flight requests
	// after its context is cancelled. Default 10s.
	ShutdownGrace time.Duration
	// JobWorkers is the worker-pool size of the async /jobs queue.
	// 0 means GOMAXPROCS.
	JobWorkers int
	// JobQueueDepth bounds how many submitted jobs may wait for a worker;
	// POST /jobs beyond it answers 429. 0 means 64.
	JobQueueDepth int
	// JobRetention bounds how many finished jobs stay pollable; the
	// oldest is evicted first. 0 means 256.
	JobRetention int
	// JobExpiry, when positive, additionally evicts finished jobs older
	// than this (a retention sweep runs in the background). 0 keeps jobs
	// until the count bound evicts them.
	JobExpiry time.Duration
	// EventRing bounds how many job state transitions the event layer
	// retains for SSE replay after a reconnect (Last-Event-ID). 0 means
	// 1024.
	EventRing int
	// SSEHeartbeat is the interval between comment heartbeats on idle
	// event streams, keeping proxies from reaping the connection.
	// Default 15s.
	SSEHeartbeat time.Duration
	// WebhookRetries bounds delivery attempts per webhook event (the
	// first try plus retries). 0 means 4.
	WebhookRetries int
	// WebhookRetryBase seeds the webhook retry backoff schedule (the
	// worker-reconnect schedule: attempt k waits base<<k, jittered
	// deterministically, capped at WebhookRetryMax). Defaults 100ms / 5s.
	WebhookRetryBase time.Duration
	WebhookRetryMax  time.Duration
	// FaultComputeDelay is a test-only fault hook: every computation (a
	// /layer miss or a job picked up by a worker) sleeps this long before
	// running the colony. The chaos harness uses it to make latency and
	// queue pressure reproducible — a deterministic "slow backend" —
	// without touching the algorithms. Leave zero in production.
	FaultComputeDelay time.Duration
	// TraceRing bounds how many recent request traces GET /traces can
	// reconstruct; TraceSlowest is the slowest-N retention list that
	// survives ring churn. 0 means the defaults (256 / 32); negative
	// TraceSlowest disables the slowest list.
	TraceRing    int
	TraceSlowest int
	// TraceSample is the probability a /layer or /jobs request mints a
	// trace (head sampling): 1 traces everything, 0.01 one in a hundred.
	// Sampled-out requests still echo an X-Request-ID (honored or
	// minted), they just record no spans and never enter the trace ring —
	// the knob that keeps high-rps warm traffic from churning it.
	// 0 means the default (1.0); negative disables tracing entirely.
	TraceSample float64
	// WarmCacheBytes budgets the warm-start state cache — prior runs'
	// pheromone matrices keyed by canonical graph hash, the fast path
	// for repeat-with-edits traffic. 0 means the default (64 MiB);
	// negative disables warm starting altogether.
	WarmCacheBytes int64
	// WarmToursFrac is the fraction of the requested tour budget a
	// warm-started run gets (the warm colony resumes near the target, so
	// it needs far fewer tours; stall-tours early stop trims the rest).
	// 0 means the default (1/3); values are clamped to (0, 1].
	WarmToursFrac float64
	// WarmStallTours is the StopAfterStagnantTours value injected into
	// warm-started runs that did not set their own, converting the
	// reduced budget into actual early exits. 0 means the default (3);
	// negative injects nothing.
	WarmStallTours int
	// WarmMinSimilarity is the vertex-name overlap ratio a cached graph
	// must reach for the similarity probe to warm-start from it
	// (|shared| / max(|a|, |b|)). 0 means the default (0.5); the
	// explicit base= knob bypasses the threshold.
	WarmMinSimilarity float64
	// EnablePprof mounts net/http/pprof under /debug/pprof. Off by
	// default: the profiling endpoints expose internals and cost CPU
	// when scraped, so production daemons opt in deliberately
	// (`daglayer serve -pprof`).
	EnablePprof bool
	// Coordinator, when non-nil, makes this daemon the archipelago's
	// coordinator: requests with distributed=true run algo=island sharded
	// over the coordinator's registered workers (byte-identical to the
	// in-process run), /cluster reports the fleet, and /metrics grows a
	// cluster section. The caller owns the coordinator's listener
	// lifecycle (see cmd/daglayer serve -coordinator).
	Coordinator *shard.Coordinator
	// Log receives structured request and lifecycle lines. Nil discards.
	Log *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.Addr == "" {
		c.Addr = ":8645"
	}
	if c.CacheSize == 0 {
		c.CacheSize = 256
	}
	if c.CacheMaxBytes == 0 {
		c.CacheMaxBytes = 64 << 20
	}
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = runtime.GOMAXPROCS(0)
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 30 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 2 * time.Minute
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 8 << 20
	}
	if c.ShutdownGrace <= 0 {
		c.ShutdownGrace = 10 * time.Second
	}
	if c.JobWorkers <= 0 {
		c.JobWorkers = runtime.GOMAXPROCS(0)
	}
	if c.JobQueueDepth <= 0 {
		c.JobQueueDepth = 64
	}
	if c.JobRetention <= 0 {
		c.JobRetention = 256
	}
	if c.EventRing <= 0 {
		c.EventRing = 1024
	}
	if c.SSEHeartbeat <= 0 {
		c.SSEHeartbeat = 15 * time.Second
	}
	if c.WebhookRetries <= 0 {
		c.WebhookRetries = 4
	}
	if c.WebhookRetryBase <= 0 {
		c.WebhookRetryBase = 100 * time.Millisecond
	}
	if c.WebhookRetryMax <= 0 {
		c.WebhookRetryMax = 5 * time.Second
	}
	if c.TraceSample == 0 {
		c.TraceSample = 1
	}
	if c.TraceSample > 1 {
		c.TraceSample = 1
	}
	if c.WarmCacheBytes == 0 {
		c.WarmCacheBytes = 64 << 20
	}
	if c.WarmToursFrac <= 0 || c.WarmToursFrac > 1 {
		c.WarmToursFrac = 1.0 / 3.0
	}
	if c.WarmStallTours == 0 {
		c.WarmStallTours = 3
	}
	if c.WarmMinSimilarity <= 0 {
		c.WarmMinSimilarity = 0.5
	}
	return c
}

// Server is the layering daemon. Create with New, mount via Handler, or
// run with Serve/ListenAndServe.
type Server struct {
	cfg   Config
	cache *resultCache
	// warm is the warm-start state cache (nil when disabled): prior
	// colony states keyed by canonical graph hash, probed by vertex-name
	// similarity. See warm.go.
	warm     *warmCache
	flights  *flightGroup
	metrics  *serverMetrics
	jobs     *batch.Queue
	webhooks *webhookManager
	tracer   *obs.Tracer
	sem      chan struct{}
	mux      *http.ServeMux
	// shuttingDown flips when Serve begins graceful shutdown, so aborted
	// in-flight requests are answered 503 rather than blamed on the client.
	shuttingDown atomic.Bool
	// shutdownCh is closed (once) when shutdown begins, so long-lived SSE
	// streams end promptly with a shutdown frame instead of riding out
	// their heartbeat interval against a dying listener.
	shutdownCh   chan struct{}
	shutdownOnce sync.Once
}

// New builds a Server from cfg (zero value fine; see Config).
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		cache:   newResultCache(cfg.CacheSize, cfg.CacheMaxBytes),
		flights: newFlightGroup(),
		metrics: newServerMetrics(),
		tracer:  obs.NewTracer(cfg.TraceRing, cfg.TraceSlowest),
		jobs: batch.New(batch.Config{
			Workers:     cfg.JobWorkers,
			Depth:       cfg.JobQueueDepth,
			Retain:      cfg.JobRetention,
			ExpireAfter: cfg.JobExpiry,
			EventRing:   cfg.EventRing,
		}),
		sem:        make(chan struct{}, cfg.MaxConcurrent),
		shutdownCh: make(chan struct{}),
	}
	if cfg.WarmCacheBytes > 0 {
		s.warm = newWarmCache(cfg.WarmCacheBytes)
	}
	s.webhooks = newWebhookManager(s)
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/layer", s.handleLayer)
	s.mux.HandleFunc("/jobs", s.handleJobs)
	s.mux.HandleFunc("/jobs/bulk", s.handleBulk)
	s.mux.HandleFunc("/jobs/", s.handleJob)
	s.mux.HandleFunc("/events", s.handleEvents)
	s.mux.HandleFunc("/subscriptions", s.handleSubscriptions)
	s.mux.HandleFunc("/subscriptions/", s.handleSubscription)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/cluster", s.handleCluster)
	s.mux.HandleFunc("/traces", s.handleTraces)
	s.mux.HandleFunc("/traces/", s.handleTrace)
	if cfg.EnablePprof {
		// Mounted explicitly on the daemon's own mux — importing
		// net/http/pprof registers on DefaultServeMux, which this server
		// never serves, so nothing leaks when the flag is off.
		s.mux.HandleFunc("/debug/pprof/", pprof.Index)
		s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return s
}

// Close releases the server's background resources — the job queue's
// worker pool (cancelling whatever is queued or running), the webhook
// delivery goroutines, and every open SSE stream. Serve calls it during
// graceful shutdown; call it directly when using Handler without Serve.
func (s *Server) Close() {
	s.shutdownOnce.Do(func() { close(s.shutdownCh) })
	s.jobs.Close()
	s.webhooks.Close()
}

// Handler returns the daemon's HTTP handler (for tests and embedding).
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.metrics.requests.Add(1)
		s.mux.ServeHTTP(w, r)
	})
}

// Serve accepts connections on ln until ctx is cancelled, then shuts down
// gracefully: the listener closes immediately, in-flight requests get
// ShutdownGrace to finish, and any request still computing after the grace
// period has its context cancelled so the colony aborts instead of running
// to its own deadline. It returns nil after a clean shutdown.
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	// Request contexts descend from base, so cancelling it aborts every
	// in-flight colony (the tour loop observes the context; see
	// core.Colony.RunContext).
	base, cancelBase := context.WithCancel(context.Background())
	defer cancelBase()
	hs := &http.Server{
		Handler:     s.Handler(),
		BaseContext: func(net.Listener) context.Context { return base },
	}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	s.shuttingDown.Store(true)
	// End the SSE streams first: Shutdown waits for in-flight requests,
	// and an event stream is in flight until told to stop.
	s.shutdownOnce.Do(func() { close(s.shutdownCh) })
	sctx, cancel := context.WithTimeout(context.Background(), s.cfg.ShutdownGrace)
	defer cancel()
	err := hs.Shutdown(sctx)
	cancelBase() // abort whatever outlived the grace period
	s.Close()    // stop the job workers; queued and running jobs fail as cancelled
	if err != nil {
		return fmt.Errorf("server: shutdown: %w", err)
	}
	<-errc // always http.ErrServerClosed after Shutdown
	return nil
}

// ListenAndServe listens on Config.Addr and calls Serve.
func (s *Server) ListenAndServe(ctx context.Context) error {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return err
	}
	s.log().Info("listening", "addr", ln.Addr().String())
	return s.Serve(ctx, ln)
}

// Metrics returns a point-in-time snapshot of the daemon's counters.
func (s *Server) Metrics() MetricsSnapshot {
	var cluster *shard.ClusterMetrics
	if s.cfg.Coordinator != nil {
		cm := s.cfg.Coordinator.Metrics()
		cluster = &cm
	}
	cacheBytes, cacheOversize := s.cache.Bytes()
	warmEntries, warmBytes := s.warm.stats()
	return s.metrics.snapshot(s.cache.Len(), cacheBytes, cacheOversize, warmEntries, warmBytes, s.jobs.Stats(), s.jobs.Events().Stats(), s.webhooks.Metrics(), cluster, obs.ReadRuntime())
}

// log returns the structured logger (never nil).
func (s *Server) log() *slog.Logger {
	if s.cfg.Log != nil {
		return s.cfg.Log
	}
	return obs.Discard()
}

// healthzResponse is the JSON /healthz serves: liveness plus the build
// description of the running binary, so deployed instances can be told
// apart from the outside.
type healthzResponse struct {
	Status string         `json:"status"`
	Build  buildinfo.Info `json:"build"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(healthzResponse{Status: "ok", Build: buildinfo.Get()})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	switch format := r.URL.Query().Get("format"); format {
	case "", "json":
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(s.Metrics())
	case "prometheus":
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = writeProm(w, s.Metrics())
	default:
		s.httpError(w, http.StatusBadRequest, "unknown format %q (want json|prometheus)", format)
	}
}

// handleCluster reports the shard coordinator's fleet and per-shard
// counters, so operators can watch workers register and epochs flow
// without grepping logs.
func (s *Server) handleCluster(w http.ResponseWriter, r *http.Request) {
	if s.cfg.Coordinator == nil {
		s.httpError(w, http.StatusNotFound, "this daemon is not a coordinator (start it with -coordinator)")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(s.cfg.Coordinator.Metrics())
}

// httpError answers status with a plain-text message and counts it.
func (s *Server) httpError(w http.ResponseWriter, status int, format string, args ...any) {
	s.metrics.errors.Add(1)
	if status == http.StatusGatewayTimeout {
		s.metrics.timeouts.Add(1)
	}
	http.Error(w, fmt.Sprintf(format, args...), status)
}

// admission is a request that passed intake, ready for computeCached.
// gk is the canonical graph hash (X-Graph-Key), coldKey the result-cache
// key of the request as asked (X-Cache-Key), and req, key, warm and
// probed are what warmPlan made of them.
type admission struct {
	req              Request
	g                *antlayer.Graph
	names            []string
	gk, coldKey, key string
	warm             *warmRun
	probed           bool
	timeout          time.Duration
}

// intakeError is a request intake refused: the status /layer and /jobs
// answer, and the message (a bulk line's error).
type intakeError struct {
	status int
	msg    string
}

// intake is the one admission sequence behind /layer, /jobs and every
// /jobs/bulk line: parse the query and the graph, hash the graph once and
// derive the result-cache key from that hash, then plan a warm start.
// Each stage records one span on tr (nil-safe): parse, key, warm.
func (s *Server) intake(q url.Values, body io.Reader, tr *obs.Trace) (*admission, *intakeError) {
	span := tr.Begin("parse")
	req, g, names, ierr := s.parseInput(q, body)
	span.End()
	if ierr != nil {
		return nil, ierr
	}
	span = tr.Begin("key")
	a := &admission{req: req, g: g, names: names, gk: graphKey(g, names)}
	a.coldKey = requestKey(req, a.gk)
	span.End()
	span = tr.Begin("warm")
	a.req, a.key, a.warm, a.probed = s.warmPlan(req, g, names, a.coldKey, a.gk)
	span.End()
	a.timeout = s.timeout(a.req)
	return a, nil
}

// parseInput is intake's parse stage: the query parameters, then the
// graph body in the format they name.
func (s *Server) parseInput(q url.Values, body io.Reader) (Request, *antlayer.Graph, []string, *intakeError) {
	req, err := ParseRequest(q)
	if err != nil {
		return req, nil, nil, &intakeError{http.StatusBadRequest, fmt.Sprintf("bad request: %v", err)}
	}
	if req.Distributed && s.cfg.Coordinator == nil {
		return req, nil, nil, &intakeError{http.StatusBadRequest, "distributed=true but this daemon is not a coordinator (start it with -coordinator)"}
	}
	g, names, err := ParseGraph(req, body)
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			return req, nil, nil, &intakeError{http.StatusRequestEntityTooLarge, fmt.Sprintf("graph larger than %d bytes", tooLarge.Limit)}
		}
		return req, nil, nil, &intakeError{http.StatusBadRequest, fmt.Sprintf("bad %s input: %v", req.Format, err)}
	}
	return req, g, names, nil
}

// computeCached serves a request body from the cache, an identical
// in-flight computation, or a fresh Compute — the one engine behind the
// synchronous /layer handler and the async job closure, which is what
// makes their bodies byte-identical by construction.
//
// Cache, then single-flight: if an identical request is already
// computing, wait for its result instead of running a duplicate colony.
// A successful leader stores to the cache before releasing its flight,
// so a new leader's re-check through the loop cannot miss a completed
// result. acquire, when non-nil, runs after winning flight leadership
// and before computing (the /layer compute semaphore; jobs pass nil —
// their worker pool is the bound); it returns a release callback or
// ctx's error.
//
// source is "hit", "coalesced" or "miss" on success; stage names what
// was happening when err struck, in the vocabulary deadlineError logs.
//
// A computation that exported a warm-start state files it under the
// admission's graph hash. a.warm drives the warm hit and tours-saved
// accounting — a warm "hit" is any request served through a warm
// lineage, whether the body was computed, coalesced or replayed.
func (s *Server) computeCached(ctx context.Context, a *admission, acquire func(context.Context) (func(), error)) (body []byte, source, stage string, err error) {
	key, warm := a.key, a.warm
	tr := obs.FromContext(ctx)
	for {
		lookup := tr.Begin("cache_lookup")
		body, ok := s.cache.Get(key)
		lookup.End()
		if ok {
			s.metrics.cacheHits.Add(1)
			if warm != nil {
				s.metrics.warmHits.Add(1)
			}
			return body, "hit", "", nil
		}
		leader, fl := s.flights.join(key)
		if !leader {
			waitStart := tr.Since()
			select {
			case <-fl.done:
				tr.Observe("coalesce_wait", "", 0, waitStart, tr.Since()-waitStart)
				if fl.err == nil {
					s.metrics.coalesced.Add(1)
					if warm != nil {
						s.metrics.warmHits.Add(1)
					}
					return fl.body, "coalesced", "", nil
				}
				// The leader failed — possibly on a deadline shorter
				// than ours. Loop: re-check the cache, then try leading.
				continue
			case <-ctx.Done():
				tr.Observe("coalesce_wait", "", 0, waitStart, tr.Since()-waitStart)
				return nil, "", "waiting on an identical in-flight request", ctx.Err()
			}
		}
		release := func() {}
		if acquire != nil {
			queueStart := tr.Since()
			release, err = acquire(ctx)
			tr.Observe("queue_wait", "", 0, queueStart, tr.Since()-queueStart)
			if err != nil {
				s.flights.finish(key, fl, nil, err)
				return nil, "", "queued for a compute slot", err
			}
		}
		s.metrics.inFlight.Add(1)
		if d := s.cfg.FaultComputeDelay; d > 0 {
			// Injected latency (chaos testing only); honours the deadline
			// like any real computation would.
			select {
			case <-time.After(d):
			case <-ctx.Done():
				s.metrics.inFlight.Add(-1)
				release()
				s.flights.finish(key, fl, nil, ctx.Err())
				return nil, "", "computing", ctx.Err()
			}
		}
		computeStart := tr.Since()
		body, toursRun, state, err := ComputeWith(ctx, a.req, a.g, a.names, s.islandRunner(a.req))
		tr.Observe("compute", "", 0, computeStart, tr.Since()-computeStart)
		s.metrics.toursRun.Add(int64(toursRun))
		s.metrics.inFlight.Add(-1)
		release()
		if err != nil {
			s.flights.finish(key, fl, nil, err)
			return nil, "", "computing", err
		}
		if state != nil && warm == nil {
			// File a cold run's final state under the graph it solved, so
			// the next request for this graph — or an edit of it — can
			// warm-start. Only cold runs publish: they are the stable
			// anchors of a lineage. If warm runs republished their own
			// states, every replay would probe its own fresher entry,
			// shift the generation-stamped result key, and recompute —
			// answers would drift instead of replaying byte-identically.
			// When an edit chain wanders far enough from its anchor that
			// the similarity probe misses, the cold run that follows
			// re-anchors it.
			s.warm.put(a.gk, a.names, state)
		}
		if warm != nil {
			s.metrics.warmHits.Add(1)
			if saved := int64(warm.coldTours - toursRun); saved > 0 {
				s.metrics.warmToursSaved.Add(saved)
			}
		}
		s.cache.Put(key, body)
		// The miss is counted only now, when a body was computed and
		// stored: the hit rate then describes serviceable traffic,
		// undistorted by requests that failed or timed out before
		// producing anything.
		s.metrics.cacheMisses.Add(1)
		s.flights.finish(key, fl, body, nil)
		return body, "miss", "", nil
	}
}

// islandRunner resolves where an algo=island request burns its CPU: on
// the shard coordinator's worker fleet when the request asked to be
// distributed and workers are registered, in-process otherwise (nil).
// An empty fleet falls back to the local archipelago rather than failing
// the request — the bytes are identical either way, so availability wins
// — and the fallback is counted so operators notice a fleet that never
// fills. A full admission queue (shard.ErrRunQueueFull) does NOT fall
// back: the cluster is saturated, so shedding the request with 429 +
// Retry-After beats piling the work onto the coordinator's own CPU.
func (s *Server) islandRunner(req Request) IslandRunner {
	if !req.Distributed || s.cfg.Coordinator == nil {
		return nil
	}
	if s.cfg.Coordinator.Workers() == 0 {
		s.metrics.distFallbacks.Add(1)
		s.log().Warn("distributed request with no registered workers; running in-process")
		return nil
	}
	return func(ctx context.Context, g *antlayer.Graph, p antlayer.IslandParams) (*antlayer.IslandResult, error) {
		res, err := s.cfg.Coordinator.RunIsland(ctx, g, p)
		if errors.Is(err, shard.ErrNoWorkers) {
			// The fleet drained between the check and the run.
			s.metrics.distFallbacks.Add(1)
			s.log().Warn("worker fleet drained mid-request; running in-process",
				"trace", obs.FromContext(ctx).ID())
			return antlayer.IslandColonyRunContext(ctx, g, p)
		}
		if err == nil {
			s.metrics.distRuns.Add(1)
		}
		return res, err
	}
}

// startTrace opens the trace of a /layer or /jobs request and echoes its
// X-Request-ID. Head sampling (Config.TraceSample) decides whether the
// request records spans; its RNG is deliberately outside the
// deterministic seed discipline, since it selects which requests are
// observed, never what any of them compute. A well-formed inbound ID is
// honored (so callers and upstream proxies can correlate), a fresh one
// minted otherwise, and the ID is echoed even when the request is
// sampled out, so correlation never depends on the sampling verdict. A
// nil trace (sampled out) is inert everywhere downstream; the caller
// finishes a non-nil one.
func (s *Server) startTrace(w http.ResponseWriter, r *http.Request) *obs.Trace {
	id := r.Header.Get("X-Request-ID")
	if sample := s.cfg.TraceSample; sample >= 1 || sample > 0 && rand.Float64() < sample {
		tr := s.tracer.New(id)
		w.Header().Set("X-Request-ID", tr.ID())
		return tr
	}
	if !obs.ValidID(id) {
		id = obs.NewID()
	}
	w.Header().Set("X-Request-ID", id)
	return nil
}

// acquireSem is the /layer compute bound: the semaphore caps computation,
// not connections — a queued request costs one blocked goroutine and
// still honours its deadline.
func (s *Server) acquireSem(ctx context.Context) (func(), error) {
	select {
	case s.sem <- struct{}{}:
		return func() { <-s.sem }, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// handleLayer is the daemon's synchronous endpoint: intake, then serve
// through the shared cache/single-flight/compute engine under the
// semaphore and the request deadline.
func (s *Server) handleLayer(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		s.httpError(w, http.StatusMethodNotAllowed, "POST a DOT or edge-list graph to /layer")
		return
	}
	s.metrics.layerRequests.Add(1)
	start := time.Now()
	defer func() { s.metrics.observeLatency(time.Since(start)) }()

	tr := s.startTrace(w, r)
	defer s.tracer.Finish(tr)
	a, ierr := s.intake(r.URL.Query(), http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes), tr)
	if ierr != nil {
		s.httpError(w, ierr.status, "%s", ierr.msg)
		return
	}
	w.Header().Set("X-Cache-Key", a.coldKey)
	// The graph's canonical hash is the handle a client passes back as
	// base= to name this graph as the warm-start lineage of its next
	// edit.
	w.Header().Set("X-Graph-Key", a.gk)
	switch {
	case a.warm != nil:
		w.Header().Set("X-Warm", "hit")
		w.Header().Set("X-Warm-Base", a.warm.baseKey)
	case a.probed:
		w.Header().Set("X-Warm", "miss")
	}

	ctx, cancel := context.WithTimeout(obs.NewContext(r.Context(), tr), a.timeout)
	defer cancel()

	body, source, stage, err := s.computeCached(ctx, a, s.acquireSem)
	if err != nil {
		if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
			s.deadlineError(w, r, err, stage)
			return
		}
		if errors.Is(err, shard.ErrRunQueueFull) {
			// The cluster scheduler's admission queue is at bound. The hint
			// is derived from the scheduler's stats — pending runs over
			// dispatch slots, scaled by observed run duration — so clients
			// back off proportionally to the actual congestion.
			retry := s.cfg.Coordinator.RetryAfterSeconds()
			w.Header().Set("Retry-After", strconv.Itoa(retry))
			s.httpError(w, http.StatusTooManyRequests, "distributed run queue full; retry in %ds", retry)
			return
		}
		s.httpError(w, http.StatusBadRequest, "layering failed: %v", err)
		return
	}
	s.log().Info("layer served",
		"trace", tr.ID(), "source", source, "warm", a.warm != nil, "n", a.g.N(), "m", a.g.M(),
		"algo", string(a.req.Algo), "dur", time.Since(start).Round(time.Microsecond))
	s.writeBody(w, body, source)
}

// timeout resolves a request's computation deadline: the server default,
// overridden per-request, capped by MaxTimeout.
func (s *Server) timeout(req Request) time.Duration {
	timeout := s.cfg.DefaultTimeout
	if req.Timeout > 0 {
		timeout = req.Timeout
	}
	if timeout > s.cfg.MaxTimeout {
		timeout = s.cfg.MaxTimeout
	}
	return timeout
}

// deadlineError maps a context error: 504 when the request's deadline
// passed, 503 when a graceful shutdown aborted the work, and otherwise —
// the client itself vanished mid-request — 499 in the nginx convention.
func (s *Server) deadlineError(w http.ResponseWriter, r *http.Request, err error, stage string) {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		s.httpError(w, http.StatusGatewayTimeout, "deadline exceeded while %s", stage)
	case s.shuttingDown.Load():
		s.httpError(w, http.StatusServiceUnavailable, "server shutting down while %s", stage)
	default:
		s.httpError(w, 499, "client closed request while %s", stage)
	}
}

func (s *Server) writeBody(w http.ResponseWriter, body []byte, cacheStatus string) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Cache", cacheStatus)
	_, _ = w.Write(body)
}
