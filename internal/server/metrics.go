package server

import (
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"antlayer/internal/batch"
	"antlayer/internal/obs"
	"antlayer/internal/shard"
)

// latencyWindow is how many recent /layer latencies the quantile estimates
// are computed over.
const latencyWindow = 1024

// serverMetrics aggregates the daemon's observability counters. All
// counters are monotonically increasing except inFlight (a gauge). Each
// Server owns its metrics instance, so tests can run many servers in one
// process — the reason these are plain atomics instead of package-global
// expvar registrations, which panic on re-registration.
type serverMetrics struct {
	start time.Time

	requests      atomic.Int64 // every HTTP request the mux saw
	layerRequests atomic.Int64 // POST /layer requests
	cacheHits     atomic.Int64
	cacheMisses   atomic.Int64 // computed-and-stored bodies, not failed lookups
	coalesced     atomic.Int64 // requests served by an identical in-flight compute
	errors        atomic.Int64 // /layer requests answered with a 4xx/5xx
	timeouts      atomic.Int64 // /layer requests answered 504
	toursRun      atomic.Int64 // colony tours executed (cache hits run zero)
	inFlight      atomic.Int64 // /layer requests currently being computed
	distRuns      atomic.Int64 // island runs served by the worker fleet
	distFallbacks atomic.Int64 // distributed requests computed in-process (no workers)
	sseStreams    atomic.Int64 // SSE streams opened (per-job and firehose)
	sseActive     atomic.Int64 // SSE streams currently connected (gauge)
	bulkRequests  atomic.Int64 // POST /jobs/bulk requests
	bulkJobs      atomic.Int64 // jobs admitted through /jobs/bulk lines
	// Warm-start accounting: hits are requests served through a warm
	// lineage (computed, coalesced or replayed), misses are warm-eligible
	// requests for which no usable state was cached, toursSaved is the
	// difference between the cold tour budgets of warm-started
	// computations and the tours they actually ran.
	warmHits       atomic.Int64
	warmMisses     atomic.Int64
	warmToursSaved atomic.Int64

	mu       sync.Mutex
	latRing  [latencyWindow]time.Duration // recent /layer latencies
	latNext  int
	latCount int64
}

func newServerMetrics() *serverMetrics {
	return &serverMetrics{start: time.Now()}
}

// observeLatency records one /layer request duration (hits and misses
// alike: the hit/miss split is what makes the p50 interesting).
func (m *serverMetrics) observeLatency(d time.Duration) {
	m.mu.Lock()
	m.latRing[m.latNext] = d
	m.latNext = (m.latNext + 1) % latencyWindow
	m.latCount++
	m.mu.Unlock()
}

// quantiles returns p50 and p99 over the retained window, in milliseconds
// (obs.Quantile's nearest-rank rule).
func (m *serverMetrics) quantiles() (count int64, p50, p99 float64) {
	m.mu.Lock()
	n := int(m.latCount)
	if n > latencyWindow {
		n = latencyWindow
	}
	buf := make([]time.Duration, n)
	copy(buf, m.latRing[:n])
	count = m.latCount
	m.mu.Unlock()
	slices.Sort(buf)
	ms := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
	return count, ms(obs.Quantile(buf, 0.50)), ms(obs.Quantile(buf, 0.99))
}

// MetricsSnapshot is the JSON document /metrics serves. CacheMisses
// counts computed-and-stored responses — a request that fails or times
// out before producing a body is counted under Errors/Timeouts only — so
// CacheHitRate (hits / (hits + misses)) describes serviceable traffic.
// Coalesced counts requests answered by an identical concurrent
// computation (single-flight); they ran no colony and sit outside the
// hit/miss split.
type MetricsSnapshot struct {
	UptimeSeconds float64 `json:"uptime_seconds"`
	RequestsTotal int64   `json:"requests_total"`
	LayerRequests int64   `json:"layer_requests"`
	CacheHits     int64   `json:"cache_hits"`
	CacheMisses   int64   `json:"cache_misses"`
	CacheHitRate  float64 `json:"cache_hit_rate"`
	CacheEntries  int     `json:"cache_entries"`
	// CacheBytes is the total body bytes the LRU currently holds (the
	// size-aware eviction keeps it under the configured budget);
	// CacheOversizeRejects counts bodies refused admission because one
	// entry would have displaced too much of the working set.
	CacheBytes           int64 `json:"cache_bytes"`
	CacheOversizeRejects int64 `json:"cache_oversize_rejects"`
	// The warm-start fast path (see DESIGN.md §15): WarmHits counts
	// requests served through a warm lineage, WarmMisses warm-eligible
	// requests that found no usable state, WarmToursSaved the colony
	// tours the warm starts avoided (cold budget minus tours actually
	// run, summed over warm computations). WarmEntries/WarmBytes gauge
	// the warm-state cache.
	WarmHits       int64           `json:"warm_hits"`
	WarmMisses     int64           `json:"warm_misses"`
	WarmToursSaved int64           `json:"warm_tours_saved"`
	WarmEntries    int             `json:"warm_entries"`
	WarmBytes      int64           `json:"warm_bytes"`
	Coalesced      int64           `json:"coalesced"`
	Errors         int64           `json:"errors"`
	Timeouts       int64           `json:"timeouts"`
	ToursRun       int64           `json:"tours_run"`
	InFlight       int64           `json:"in_flight"`
	Latency        LatencyQuantile `json:"latency_ms"`
	// DistributedRuns counts island runs served by the shard worker
	// fleet; DistributedFallbacks counts distributed=true requests that
	// ran in-process because no workers were registered (the bytes are
	// identical either way — the fallback costs locality, not
	// correctness).
	DistributedRuns      int64 `json:"distributed_runs"`
	DistributedFallbacks int64 `json:"distributed_fallbacks"`
	// SSEStreams counts event streams opened over the daemon's lifetime;
	// SSEActive is the currently-connected gauge. BulkRequests counts
	// POST /jobs/bulk calls; BulkJobs the jobs their lines admitted.
	SSEStreams   int64 `json:"sse_streams"`
	SSEActive    int64 `json:"sse_active"`
	BulkRequests int64 `json:"bulk_requests"`
	BulkJobs     int64 `json:"bulk_jobs"`
	// Jobs summarises the async /jobs queue: submitted/rejected totals,
	// the queued/running gauges (queue depth is the queued gauge against
	// the depth bound), and per-outcome counters.
	Jobs batch.Stats `json:"jobs"`
	// Events summarises the push layer: transitions published, the newest
	// sequence number, subscriber-side drops, and the replay ring.
	Events batch.EventStats `json:"events"`
	// Webhooks summarises registered webhook subscriptions and their
	// delivery counters.
	Webhooks WebhookMetrics `json:"webhooks"`
	// Cluster is the shard coordinator's snapshot — fleet size, runs,
	// epochs, migrations, per-shard epoch latency. Present only on a
	// coordinator daemon.
	Cluster *shard.ClusterMetrics `json:"cluster,omitempty"`
	// Runtime is the Go runtime's health at snapshot time: goroutines,
	// heap gauges and cumulative GC work (see obs.ReadRuntime).
	Runtime obs.RuntimeStats `json:"runtime"`
}

// LatencyQuantile summarises the recent /layer latency distribution.
type LatencyQuantile struct {
	Count int64   `json:"count"`
	P50   float64 `json:"p50"`
	P99   float64 `json:"p99"`
}

func (m *serverMetrics) snapshot(cacheEntries int, cacheBytes, cacheOversize int64, warmEntries int, warmBytes int64, jobs batch.Stats, events batch.EventStats, webhooks WebhookMetrics, cluster *shard.ClusterMetrics, rt obs.RuntimeStats) MetricsSnapshot {
	hits, misses := m.cacheHits.Load(), m.cacheMisses.Load()
	rate := 0.0
	if hits+misses > 0 {
		rate = float64(hits) / float64(hits+misses)
	}
	count, p50, p99 := m.quantiles()
	return MetricsSnapshot{
		UptimeSeconds:        time.Since(m.start).Seconds(),
		RequestsTotal:        m.requests.Load(),
		LayerRequests:        m.layerRequests.Load(),
		CacheHits:            hits,
		CacheMisses:          misses,
		CacheHitRate:         rate,
		CacheEntries:         cacheEntries,
		CacheBytes:           cacheBytes,
		CacheOversizeRejects: cacheOversize,
		WarmHits:             m.warmHits.Load(),
		WarmMisses:           m.warmMisses.Load(),
		WarmToursSaved:       m.warmToursSaved.Load(),
		WarmEntries:          warmEntries,
		WarmBytes:            warmBytes,
		Coalesced:            m.coalesced.Load(),
		Errors:               m.errors.Load(),
		Timeouts:             m.timeouts.Load(),
		ToursRun:             m.toursRun.Load(),
		InFlight:             m.inFlight.Load(),
		Latency:              LatencyQuantile{Count: count, P50: p50, P99: p99},
		DistributedRuns:      m.distRuns.Load(),
		DistributedFallbacks: m.distFallbacks.Load(),
		SSEStreams:           m.sseStreams.Load(),
		SSEActive:            m.sseActive.Load(),
		BulkRequests:         m.bulkRequests.Load(),
		BulkJobs:             m.bulkJobs.Load(),
		Jobs:                 jobs,
		Events:               events,
		Webhooks:             webhooks,
		Cluster:              cluster,
		Runtime:              rt,
	}
}
