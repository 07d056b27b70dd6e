package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

const demoDOT = `digraph g {
	a -> b; a -> c;
	b -> d; c -> d;
	d -> e;
}`

// bigEdgeList builds an edge-list graph large enough that a
// many-thousand-tour colony takes far longer than the test deadlines.
func bigEdgeList(n int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d %d\n", n, n-1)
	for v := 1; v < n; v++ {
		fmt.Fprintf(&b, "%d %d\n", v, v/2)
	}
	return b.String()
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	// httptest.Close stops the listener but not the job-queue workers
	// every Server now owns; Close does.
	t.Cleanup(s.Close)
	return s, ts
}

func postLayer(t *testing.T, ts *httptest.Server, query, body string) (*http.Response, []byte) {
	t.Helper()
	url := ts.URL + "/layer"
	if query != "" {
		url += "?" + query
	}
	resp, err := http.Post(url, "text/plain", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

// testResponse mirrors layerResponse for decoding.
type testResponse struct {
	Algo      string `json:"algo"`
	Graph     struct{ Vertices, Edges int }
	Metrics   struct{ Height int }
	Objective float64    `json:"objective"`
	BestTour  *int       `json:"best_tour"`
	ToursRun  int        `json:"tours_run"`
	Layers    [][]string `json:"layers"`
	SVG       string     `json:"svg"`
	ASCII     string     `json:"ascii"`
}

func TestLayerEndToEnd(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := postLayer(t, ts, "seed=1", demoDOT)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, body %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Cache"); got != "miss" {
		t.Fatalf("X-Cache = %q, want miss", got)
	}
	var r testResponse
	if err := json.Unmarshal(body, &r); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, body)
	}
	if r.Algo != "aco" || r.Graph.Vertices != 5 || r.Graph.Edges != 5 {
		t.Fatalf("header fields wrong: %+v", r)
	}
	if r.ToursRun == 0 || r.Objective <= 0 {
		t.Fatalf("missing colony stats: %+v", r)
	}
	// best_tour must be present for aco even when its value is 0 (the
	// LPL seed stood) — that 0 is meaningful, not an omitted field.
	if r.BestTour == nil {
		t.Fatal("best_tour missing from aco response")
	}
	if len(r.Layers) != r.Metrics.Height {
		t.Fatalf("%d layers vs height %d", len(r.Layers), r.Metrics.Height)
	}
	seen := map[string]bool{}
	for _, layer := range r.Layers {
		for _, name := range layer {
			seen[name] = true
		}
	}
	for _, name := range []string{"a", "b", "c", "d", "e"} {
		if !seen[name] {
			t.Fatalf("vertex %s missing from layers %v", name, r.Layers)
		}
	}
	// The layering must respect the edges: every edge points to a lower
	// layer (a above b above d above e, by construction).
	layerOf := map[string]int{}
	for i, layer := range r.Layers {
		for _, name := range layer {
			layerOf[name] = i + 1
		}
	}
	for _, e := range [][2]string{{"a", "b"}, {"a", "c"}, {"b", "d"}, {"c", "d"}, {"d", "e"}} {
		if layerOf[e[0]] <= layerOf[e[1]] {
			t.Fatalf("edge %s->%s not downward in %v", e[0], e[1], r.Layers)
		}
	}
}

func TestLayerCacheHitIsByteIdentical(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	resp1, body1 := postLayer(t, ts, "seed=7&tours=5", demoDOT)
	resp2, body2 := postLayer(t, ts, "seed=7&tours=5", demoDOT)
	if resp1.StatusCode != 200 || resp2.StatusCode != 200 {
		t.Fatalf("statuses %d, %d", resp1.StatusCode, resp2.StatusCode)
	}
	if got := resp2.Header.Get("X-Cache"); got != "hit" {
		t.Fatalf("second request X-Cache = %q, want hit", got)
	}
	if !bytes.Equal(body1, body2) {
		t.Fatalf("cache hit returned different bytes:\n%s\nvs\n%s", body1, body2)
	}
	m := s.Metrics()
	if m.CacheHits != 1 || m.CacheMisses != 1 {
		t.Fatalf("hits=%d misses=%d, want 1/1", m.CacheHits, m.CacheMisses)
	}
	// A different seed is a different search: must miss and recompute
	// (on this tiny graph the colony may still find the same layering,
	// so only the cache disposition is asserted).
	resp3, _ := postLayer(t, ts, "seed=8&tours=5", demoDOT)
	if got := resp3.Header.Get("X-Cache"); got != "miss" {
		t.Fatalf("changed seed X-Cache = %q, want miss", got)
	}
}

// TestLayerCacheIgnoresWorkersAndTimeout pins the key design: parallelism
// and deadlines do not change the result, so they must not split the cache.
func TestLayerCacheIgnoresWorkersAndTimeout(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	_, body1 := postLayer(t, ts, "seed=3&workers=1", demoDOT)
	resp2, body2 := postLayer(t, ts, "seed=3&workers=4&timeout-ms=60000", demoDOT)
	if got := resp2.Header.Get("X-Cache"); got != "hit" {
		t.Fatalf("workers/timeout variation X-Cache = %q, want hit", got)
	}
	if !bytes.Equal(body1, body2) {
		t.Fatal("workers variation changed response bytes")
	}
}

func TestLayerDeadlineReturns504AndLeaksNothing(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	// Warm up the connection pool so the baseline includes it.
	if resp, err := http.Get(ts.URL + "/healthz"); err != nil {
		t.Fatal(err)
	} else {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	baseline := runtime.NumGoroutine()

	resp, body := postLayer(t, ts, "format=edges&tours=1000000&ants=8&timeout-ms=1", bigEdgeList(300))
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504; body %s", resp.StatusCode, body)
	}
	if m := s.Metrics(); m.Timeouts != 1 {
		t.Fatalf("timeouts counter = %d, want 1", m.Timeouts)
	}
	// The colony's worker goroutines must wind down once the deadline
	// fires; give slow machines a generous window.
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > baseline {
		t.Fatalf("goroutines leaked after 504: baseline %d, now %d", baseline, after)
	}
	// The aborted run must not have been cached: a retry with a sane
	// deadline computes and succeeds.
	resp2, _ := postLayer(t, ts, "format=edges&tours=5&ants=8", bigEdgeList(300))
	if resp2.StatusCode != 200 || resp2.Header.Get("X-Cache") != "miss" {
		t.Fatalf("retry after 504: status %d, X-Cache %q", resp2.StatusCode, resp2.Header.Get("X-Cache"))
	}
}

func TestLayerConcurrentUnderSemaphore(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxConcurrent: 1})
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(ts.URL+fmt.Sprintf("/layer?seed=%d", i%2), "text/plain", strings.NewReader(demoDOT))
			if err != nil {
				errs <- err
				return
			}
			defer resp.Body.Close()
			io.Copy(io.Discard, resp.Body)
			if resp.StatusCode != 200 {
				errs <- fmt.Errorf("status %d", resp.StatusCode)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if m := s.Metrics(); m.LayerRequests != 8 {
		t.Fatalf("layer_requests = %d, want 8", m.LayerRequests)
	}
}

// TestComputeGateSharedByLayerAndJobs: /layer and /jobs draw their
// colonies from one compute gate. At MaxConcurrent 1 a job miss and a
// /layer miss on another graph compute one after the other — in_flight
// never reads 2 — and the /layer request's wait for the job's slot shows
// in its trace as queue_wait.
func TestComputeGateSharedByLayerAndJobs(t *testing.T) {
	const delay = 300 * time.Millisecond
	s, ts := newTestServer(t, Config{MaxConcurrent: 1, FaultComputeDelay: delay, CacheSize: -1, WarmCacheBytes: -1})
	var peak int64 // written by the sampler, read after it exits
	stop := make(chan struct{})
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		for {
			peak = max(peak, s.Metrics().InFlight)
			select {
			case <-stop:
				return
			case <-time.After(time.Millisecond):
			}
		}
	}()

	_, job := postJob(t, ts, "seed=1&tours=2", demoDOT)
	// The job holds the one slot once it is in flight (inside the
	// injected delay); only then does the /layer miss arrive.
	deadline := time.Now().Add(5 * time.Second)
	for s.Metrics().InFlight != 1 {
		if time.Now().After(deadline) {
			t.Fatal("job never started computing")
		}
		time.Sleep(time.Millisecond)
	}
	resp, body := postLayer(t, ts, "format=edges&seed=2&tours=2", "3 2\n0 1\n1 2\n")
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Cache") != "miss" {
		t.Fatalf("/layer: status %d, X-Cache %q: %s", resp.StatusCode, resp.Header.Get("X-Cache"), body)
	}
	if final, view := pollUntilTerminal(t, ts, job.ID); final.Header.Get("X-Job-State") != "done" {
		t.Fatalf("job: %s", view.raw)
	}
	close(stop)
	<-sampled
	if peak != 1 {
		t.Errorf("peak in_flight = %d, want 1 (a job and a /layer miss computed at once)", peak)
	}

	var wait time.Duration
	for _, sp := range getTrace(t, ts.URL, resp.Header.Get("X-Request-ID")).Spans {
		if sp.Name == "queue_wait" {
			wait += time.Duration(sp.DurUS) * time.Microsecond
		}
	}
	if wait < delay/3 {
		t.Errorf("/layer queue_wait = %v, want most of the job's %v slot", wait, delay)
	}
}

// TestLayerSingleFlightCoalescing pins the dedup of concurrent identical
// requests: one colony computes, everyone else reuses its bytes.
func TestLayerSingleFlightCoalescing(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	const clients = 8
	query := "?format=edges&tours=200&ants=8&seed=9"
	graph := bigEdgeList(200)
	bodies := make([][]byte, clients)
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/layer"+query, "text/plain", strings.NewReader(graph))
			if err != nil {
				errs[i] = err
				return
			}
			defer resp.Body.Close()
			bodies[i], errs[i] = io.ReadAll(resp.Body)
			if resp.StatusCode != 200 {
				errs[i] = fmt.Errorf("status %d: %s", resp.StatusCode, bodies[i])
			}
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
	}
	for i := 1; i < clients; i++ {
		if !bytes.Equal(bodies[0], bodies[i]) {
			t.Fatalf("client %d got different bytes", i)
		}
	}
	m := s.Metrics()
	if m.CacheMisses != 1 {
		t.Fatalf("cache_misses = %d, want 1 (single compute for %d identical requests)", m.CacheMisses, clients)
	}
	if m.CacheHits+m.Coalesced != clients-1 {
		t.Fatalf("hits %d + coalesced %d != %d", m.CacheHits, m.Coalesced, clients-1)
	}
}

// TestShutdownAbortsInFlightWith503 pins the shutdown path: a request
// whose computation outlives the grace period is answered 503, not
// blamed on the client, and the colony stops.
func TestShutdownAbortsInFlightWith503(t *testing.T) {
	s := New(Config{ShutdownGrace: 100 * time.Millisecond})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- s.Serve(ctx, ln) }()
	url := "http://" + ln.Addr().String()

	type result struct {
		status int
		body   string
		err    error
	}
	resc := make(chan result, 1)
	go func() {
		resp, err := http.Post(url+"/layer?format=edges&tours=100000000&ants=8&timeout-ms=60000",
			"text/plain", strings.NewReader(bigEdgeList(300)))
		if err != nil {
			resc <- result{err: err}
			return
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		resc <- result{status: resp.StatusCode, body: string(b)}
	}()

	// Wait for the request to be computing, then trigger shutdown.
	deadline := time.Now().Add(10 * time.Second)
	for s.Metrics().InFlight == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if s.Metrics().InFlight == 0 {
		t.Fatal("request never started computing")
	}
	cancel()
	select {
	case res := <-resc:
		if res.err != nil {
			t.Fatalf("client error: %v", res.err)
		}
		if res.status != http.StatusServiceUnavailable {
			t.Fatalf("status %d (%q), want 503", res.status, res.body)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("in-flight request never answered")
	}
	select {
	case err := <-served:
		if err == nil {
			t.Log("shutdown drained within grace")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Serve did not return")
	}
}

func TestLayerOtherAlgorithmsAndRender(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, algo := range []string{"lpl", "minwidth", "cg", "ns"} {
		resp, body := postLayer(t, ts, "algo="+algo+"&promote=true", demoDOT)
		if resp.StatusCode != 200 {
			t.Fatalf("%s: status %d, body %s", algo, resp.StatusCode, body)
		}
		var r testResponse
		if err := json.Unmarshal(body, &r); err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		if r.Algo != algo || len(r.Layers) == 0 {
			t.Fatalf("%s: bad response %+v", algo, r)
		}
	}
	resp, body := postLayer(t, ts, "render=svg", demoDOT)
	if resp.StatusCode != 200 {
		t.Fatalf("render=svg status %d", resp.StatusCode)
	}
	var r testResponse
	if err := json.Unmarshal(body, &r); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(r.SVG, "<svg") {
		t.Fatalf("render=svg returned no SVG: %.80s", r.SVG)
	}
	_, body = postLayer(t, ts, "render=ascii&format=edges", "3 2\n1 0\n2 1\n")
	if err := json.Unmarshal(body, &r); err != nil {
		t.Fatal(err)
	}
	if r.ASCII == "" {
		t.Fatal("render=ascii returned no drawing")
	}
}

func TestLayerBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBodyBytes: 256})
	cases := []struct {
		name, query, body string
		status            int
	}{
		{"unknown param", "tuors=10", demoDOT, 400},
		{"bad value", "ants=many", demoDOT, 400},
		{"bad algo", "algo=dijkstra", demoDOT, 400},
		{"bad render", "render=png", demoDOT, 400},
		{"bad dot", "", "digraph {", 400},
		{"cyclic graph", "", "digraph { a -> b; b -> a; }", 400},
		{"invalid params", "ants=0", demoDOT, 400},
		{"body too large", "", strings.Repeat("x", 4096), 413},
	}
	for _, tc := range cases {
		resp, body := postLayer(t, ts, tc.query, tc.body)
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status %d, want %d (body %.120s)", tc.name, resp.StatusCode, tc.status, body)
		}
	}
	resp, err := http.Get(ts.URL + "/layer")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /layer status %d, want 405", resp.StatusCode)
	}
}

// TestStopStagnantKnob: stop-stagnant=N reaches the colony, which ends a
// run once N tours in a row fail to improve; the knob has no other name.
func TestStopStagnantKnob(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	_, body := postLayer(t, ts, "tours=60&stop-stagnant=2&seed=1", demoDOT)
	var r testResponse
	if err := json.Unmarshal(body, &r); err != nil {
		t.Fatalf("%v (body %.120s)", err, body)
	}
	if r.ToursRun < 2 || r.ToursRun >= 60 {
		t.Errorf("stop-stagnant=2: tours_run = %d, want an early stop in [2, 60)", r.ToursRun)
	}
	if resp, body := postLayer(t, ts, "tours=60&stall-tours=2&seed=1", demoDOT); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("stall-tours=2: status %d, want 400 (body %.120s)", resp.StatusCode, body)
	}
}

func TestHealthzAndMetrics(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		Status string `json:"status"`
		Build  struct {
			Version string `json:"version"`
			Go      string `json:"go"`
		} `json:"build"`
	}
	err = json.NewDecoder(resp.Body).Decode(&health)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 200 || health.Status != "ok" {
		t.Fatalf("healthz: %d %+v", resp.StatusCode, health)
	}
	if health.Build.Version == "" {
		t.Fatal("healthz reports no build version")
	}

	postLayer(t, ts, "tours=3", demoDOT)
	postLayer(t, ts, "tours=3", demoDOT)
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var m MetricsSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if m.LayerRequests != 2 || m.CacheHits != 1 || m.CacheMisses != 1 {
		t.Fatalf("metrics: %+v", m)
	}
	if m.CacheHitRate != 0.5 || m.CacheEntries != 1 {
		t.Fatalf("hit rate %v entries %d, want 0.5 / 1", m.CacheHitRate, m.CacheEntries)
	}
	if m.ToursRun != 3 { // the hit ran zero tours
		t.Fatalf("tours_run = %d, want 3", m.ToursRun)
	}
	if m.Latency.Count != 2 || m.RequestsTotal < 4 {
		t.Fatalf("latency count %d, requests %d", m.Latency.Count, m.RequestsTotal)
	}
}

func TestServeGracefulShutdown(t *testing.T) {
	s := New(Config{Addr: "127.0.0.1:0"})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { done <- s.Serve(ctx, ln) }()

	url := "http://" + ln.Addr().String()
	var resp *http.Response
	for i := 0; i < 50; i++ {
		resp, err = http.Get(url + "/healthz")
		if err == nil {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Serve returned %v after graceful shutdown, want nil", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Serve did not return after cancel")
	}
	if _, err := http.Get(url + "/healthz"); err == nil {
		t.Fatal("server still answering after shutdown")
	}
}
