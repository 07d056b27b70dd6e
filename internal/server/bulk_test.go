package server

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// bulkBody builds an ndjson request body from (query, graph) pairs.
func bulkBody(lines ...[2]string) string {
	var b strings.Builder
	for _, l := range lines {
		data, _ := json.Marshal(bulkLine{Query: l[0], Graph: l[1]})
		b.Write(data)
		b.WriteByte('\n')
	}
	return b.String()
}

// postBulk POSTs ndjson to /jobs/bulk and returns the response lines
// (without trailing newlines) once the stream ends.
func postBulk(t *testing.T, ts *httptest.Server, query, body string) (*http.Response, []string) {
	t.Helper()
	url := ts.URL + "/jobs/bulk"
	if query != "" {
		url += "?" + query
	}
	resp, err := http.Post(url, "application/x-ndjson", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var lines []string
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return resp, lines
}

// TestBulkRawByteIdentity is the bulk acceptance criterion: each
// succeeded line of the default (raw) /jobs/bulk response is
// byte-identical to the body POST /layer serves for the same request.
func TestBulkRawByteIdentity(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	requests := [][2]string{
		{"seed=7&tours=3", demoDOT},
		{"format=edges&seed=8&tours=3", bigEdgeList(40)},
		{"render=ascii&format=edges", "3 2\n1 0\n2 1\n"},
	}
	want := make(map[string]bool, len(requests))
	for _, rq := range requests {
		resp, body := postLayer(t, ts, rq[0], rq[1])
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("layer %q answered %d: %s", rq[0], resp.StatusCode, body)
		}
		want[string(body)] = false
	}

	resp, lines := postBulk(t, ts, "", bulkBody(requests...))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("bulk answered %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("bulk Content-Type = %q", ct)
	}
	if len(lines) != len(requests) {
		t.Fatalf("bulk streamed %d lines, want %d: %v", len(lines), len(requests), lines)
	}
	for _, line := range lines {
		key := line + "\n" // the scanner strips the newline Compute appends
		seen, ok := want[key]
		if !ok {
			t.Fatalf("bulk line not byte-identical to any /layer body: %q", line)
		}
		if seen {
			t.Fatalf("bulk line duplicated: %q", line)
		}
		want[key] = true
	}
}

// TestBulkEnvelopeMode: ?envelope=true wraps every line with the input
// line number, job id and state, carrying the /layer body inside — the
// correlation `daglayer batch -stream` relies on — and reports parse
// failures as failed lines instead of aborting the stream.
func TestBulkEnvelopeMode(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body := bulkBody(
		[2]string{"seed=9&tours=2", demoDOT},
		[2]string{"algo=unknown-algo", demoDOT},
	)
	resp, lines := postBulk(t, ts, "envelope=true", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("bulk answered %d", resp.StatusCode)
	}
	if len(lines) != 2 {
		t.Fatalf("bulk streamed %d lines, want 2: %v", len(lines), lines)
	}
	byLine := map[int]bulkResult{}
	for _, line := range lines {
		var res bulkResult
		if err := json.Unmarshal([]byte(line), &res); err != nil {
			t.Fatalf("bad envelope line %q: %v", line, err)
		}
		byLine[res.Line] = res
	}
	good, ok := byLine[1]
	if !ok || good.State != "done" || good.Job == "" || len(good.Body) == 0 {
		t.Fatalf("line 1 envelope = %+v, want a done job with a body", good)
	}
	_, layerBody := postLayer(t, ts, "seed=9&tours=2", demoDOT)
	if string(good.Body)+"\n" != string(layerBody) {
		t.Fatalf("envelope body differs from /layer:\n%s\nvs\n%s", good.Body, layerBody)
	}
	bad, ok := byLine[2]
	if !ok || bad.State != "failed" || bad.Error == "" || bad.Job != "" {
		t.Fatalf("line 2 envelope = %+v, want an unadmitted parse failure", bad)
	}
}

// TestBulkQueueFullRejection: lines beyond the queue bound are rejected
// through the same admission machinery as POST /jobs — an error line
// carrying the Retry-After hint, not a silently dropped request.
func TestBulkQueueFullRejection(t *testing.T) {
	_, ts := newTestServer(t, Config{
		JobWorkers: 1, JobQueueDepth: 1,
		FaultComputeDelay: 300 * time.Millisecond,
	})
	var reqs [][2]string
	for i := 0; i < 6; i++ {
		// Distinct seeds: identical lines would coalesce on the flight
		// group and never occupy extra queue slots.
		reqs = append(reqs, [2]string{fmt.Sprintf("seed=%d&tours=2", 100+i), demoDOT})
	}
	resp, lines := postBulk(t, ts, "envelope=true", bulkBody(reqs...))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("bulk answered %d", resp.StatusCode)
	}
	if len(lines) != len(reqs) {
		t.Fatalf("bulk streamed %d lines, want %d", len(lines), len(reqs))
	}
	done, rejected := 0, 0
	for _, line := range lines {
		var res bulkResult
		if err := json.Unmarshal([]byte(line), &res); err != nil {
			t.Fatal(err)
		}
		switch {
		case res.State == "done":
			done++
		case res.State == "failed" && res.RetryAfter > 0:
			rejected++
		default:
			t.Fatalf("unexpected bulk line %+v", res)
		}
	}
	if done == 0 || rejected == 0 {
		t.Fatalf("done=%d rejected=%d, want both admission outcomes", done, rejected)
	}
	if m := metricsOf(t, ts); m.BulkRequests != 1 || m.BulkJobs != int64(done) {
		t.Fatalf("bulk metrics = %d requests / %d jobs, want 1 / %d", m.BulkRequests, m.BulkJobs, done)
	}
}

// TestBulkStreamsWhileReading is the regression test for lost bulk
// lines: results stream back while later input lines are still being
// read, so the handler must run the connection full duplex. The client
// sends one line, waits for its result, and only then sends the rest.
// Without full duplex the HTTP/1 server drains and closes the request
// body at the first flushed result, so that result never arrives while
// the body is open, and lines racing the flush fail as "invalid Read on
// closed Body" or truncated JSON.
func TestBulkStreamsWhileReading(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	pr, pw := io.Pipe()
	defer pw.Close()
	type reply struct {
		resp *http.Response
		err  error
	}
	replies := make(chan reply, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/jobs/bulk?envelope=true", "application/x-ndjson", pr)
		replies <- reply{resp, err}
	}()
	if _, err := io.WriteString(pw, bulkBody([2]string{"algo=unknown-algo", demoDOT})); err != nil {
		t.Fatal(err)
	}
	var resp *http.Response
	select {
	case r := <-replies:
		if r.err != nil {
			t.Fatal(r.err)
		}
		resp = r.resp
	case <-time.After(5 * time.Second):
		t.Fatal("no streamed result while the request body is still open")
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	if !sc.Scan() {
		t.Fatalf("stream ended before the first result: %v", sc.Err())
	}
	var first bulkResult
	if err := json.Unmarshal(sc.Bytes(), &first); err != nil || first.Line != 1 || first.State != "failed" {
		t.Fatalf("first result = %q (%v), want line 1 failed", sc.Bytes(), err)
	}

	// The rest of the body goes out only now, while the response streams.
	const n = 32
	var reqs [][2]string
	for i := 0; i < n; i++ {
		reqs = append(reqs, [2]string{"format=edges&tours=10", bigEdgeList(40 + 2*i)})
	}
	go func() {
		_, err := io.WriteString(pw, bulkBody(reqs...))
		pw.CloseWithError(err)
	}()
	done := map[int]bool{}
	for sc.Scan() {
		var res bulkResult
		if err := json.Unmarshal(sc.Bytes(), &res); err != nil {
			t.Fatalf("bad envelope line %q: %v", sc.Bytes(), err)
		}
		if res.State != "done" {
			t.Errorf("line %d %s: %s", res.Line, res.State, res.Error)
			continue
		}
		done[res.Line] = true
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(done) != n {
		t.Fatalf("%d of %d lines done", len(done), n)
	}
}

// TestBulkBadMethodAndEmpty: GET is refused; an empty body streams back
// an empty (but successful) response.
func TestBulkBadMethodAndEmpty(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/jobs/bulk")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /jobs/bulk answered %d, want 405", resp.StatusCode)
	}
	resp2, lines := postBulk(t, ts, "", "\n\n")
	if resp2.StatusCode != http.StatusOK || len(lines) != 0 {
		t.Fatalf("empty bulk answered %d with %v", resp2.StatusCode, lines)
	}
}

// BenchmarkBulkIntake measures the bulk pipeline end to end over HTTP —
// line parsing, admission, job execution (cache-hot after the first
// line), waiter fan-in and ndjson streaming — per input line.
func BenchmarkBulkIntake(b *testing.B) {
	s := New(Config{})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	line := func() string {
		data, _ := json.Marshal(bulkLine{Query: "seed=42&tours=2", Graph: demoDOT})
		return string(data) + "\n"
	}()
	b.ReportAllocs()
	b.ResetTimer()
	for n := b.N; n > 0; {
		chunk := n
		if chunk > 64 {
			chunk = 64 // bound each request so the job queue's depth is never the subject
		}
		n -= chunk
		resp, err := http.Post(ts.URL+"/jobs/bulk", "application/x-ndjson",
			strings.NewReader(strings.Repeat(line, chunk)))
		if err != nil {
			b.Fatal(err)
		}
		out, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("bulk answered %d: %s", resp.StatusCode, out)
		}
	}
}
