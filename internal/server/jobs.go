package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"antlayer/internal/batch"
	"antlayer/internal/obs"
	"antlayer/internal/shard"
)

// The async job API. POST /jobs accepts exactly what POST /layer accepts
// (same query parameters, same DOT/edge-list body) but answers 202 with a
// job id immediately; the layering computes on the job queue's worker
// pool. GET /jobs/{id} polls the job through queued → running →
// done|failed; a done job answers with byte-for-byte the body /layer
// would have served (the two paths share Compute and the result cache).
// DELETE /jobs/{id} cancels: a queued job fails without ever running, a
// running one has its context cancelled and the colony aborts within one
// ant walk per worker. A cancelled job reports state "failed" with a
// 499-style reason, mirroring how /layer labels a vanished client.
// GET /jobs lists every tracked job (optionally ?state=queued|running|
// done|failed); tracking is bounded by count (JobRetention) and, when
// JobExpiry is set, by age — the batch queue's background sweep.

// jobStatus is the JSON envelope for every non-done job state (and for
// POST/DELETE acknowledgements). Done jobs are served raw — the /layer
// body — so clients reuse one parser for both paths.
type jobStatus struct {
	ID    string `json:"id"`
	State string `json:"state"`
	// TraceID correlates the job with its request trace (GET /traces/{id});
	// empty for jobs admitted through paths that do not mint traces.
	TraceID string `json:"trace_id,omitempty"`
	// Error is set for failed jobs. A cancellation reads
	// "client closed request (499): ..." whether the job was still queued
	// or already running.
	Error string `json:"error,omitempty"`
	// Poll is the URL to poll, echoed on submission for convenience.
	Poll string `json:"poll,omitempty"`
}

// handleJobs serves POST /jobs — parse and validate synchronously (bad
// requests fail now, not at poll time), then enqueue the computation —
// and GET /jobs, the job listing.
func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	if r.Method == http.MethodGet {
		s.handleJobList(w, r)
		return
	}
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", "GET, POST")
		s.httpError(w, http.StatusMethodNotAllowed, "POST a DOT or edge-list graph to /jobs (then poll GET /jobs/{id}), or GET /jobs to list")
		return
	}
	// A job's trace spans its whole life: opened at submission, finished
	// when the job settles, so the queue wait is visible in the span
	// breakdown.
	tr := s.startTrace(w, r)
	a, ierr := s.intake(r.URL.Query(), http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes), tr)
	if ierr != nil {
		s.tracer.Finish(tr)
		s.httpError(w, ierr.status, "%s", ierr.msg)
		return
	}
	job, retry, err := s.submitJob(a, tr)
	if err != nil {
		if retry > 0 {
			w.Header().Set("Retry-After", strconv.Itoa(retry))
			s.httpError(w, http.StatusTooManyRequests, "job queue full (depth %d); retry in %ds", s.cfg.JobQueueDepth, retry)
			return
		}
		s.httpError(w, http.StatusServiceUnavailable, "job queue closed: %v", err)
		return
	}
	s.log().Info("job submitted",
		"job", job.ID(), "trace", tr.ID(), "warm", a.warm != nil, "n", a.g.N(), "m", a.g.M(), "algo", string(a.req.Algo))
	s.writeJobStatus(w, http.StatusAccepted, jobStatus{
		ID:      job.ID(),
		State:   string(batch.StateQueued),
		TraceID: tr.ID(),
		Poll:    "/jobs/" + job.ID(),
	})
}

// submitJob enqueues an admitted request: the one job closure behind
// POST /jobs (traced) and every /jobs/bulk line (tr nil). tr is finished
// when the job settles, or here if the queue refuses it. The deadline
// starts when a worker picks the job up, so a long queue wait is not
// punished. The job runs on handleLayer's engine — identical requests
// share one computation and the cache — with the worker pool, not the
// semaphore, as its bound. A full queue yields batch.ErrQueueFull and
// the queue's stats-derived Retry-After hint.
func (s *Server) submitJob(a *admission, tr *obs.Trace) (job *batch.Job, retryAfter int, err error) {
	enqueued := tr.Since()
	job, err = s.jobs.SubmitTraced(func(ctx context.Context) ([]byte, error) {
		defer s.tracer.Finish(tr)
		tr.Observe("queue_wait", "", 0, enqueued, tr.Since()-enqueued)
		ctx, cancel := context.WithTimeout(obs.NewContext(ctx, tr), a.timeout)
		defer cancel()
		body, _, _, err := s.computeCached(ctx, a, nil)
		return body, err
	}, tr.ID(), a.req.Labels...)
	if err != nil {
		s.tracer.Finish(tr)
		if errors.Is(err, batch.ErrQueueFull) {
			retryAfter = s.jobs.RetryAfter()
		}
	}
	return job, retryAfter, err
}

// jobListEntry is one row of the GET /jobs listing: the status envelope
// plus timestamps, so clients can spot stuck or ancient jobs without
// polling each id.
type jobListEntry struct {
	jobStatus
	Submitted time.Time  `json:"submitted"`
	Started   *time.Time `json:"started,omitempty"`
	Finished  *time.Time `json:"finished,omitempty"`
}

// jobList is the GET /jobs response document.
type jobList struct {
	// Jobs holds the tracked jobs in submission order. Jobs evicted by
	// the retention bounds (count or age) no longer appear.
	Jobs []jobListEntry `json:"jobs"`
	// Stats is the same queue summary /metrics serves, so one GET shows
	// the listing and the gauges together.
	Stats batch.Stats `json:"stats"`
}

// handleJobList serves GET /jobs?state=queued|running|done|failed: every
// tracked job in submission order, optionally filtered by state.
func (s *Server) handleJobList(w http.ResponseWriter, r *http.Request) {
	var filter batch.State
	if v := r.URL.Query().Get("state"); v != "" {
		filter = batch.State(v)
		switch filter {
		case batch.StateQueued, batch.StateRunning, batch.StateDone, batch.StateFailed:
		default:
			s.httpError(w, http.StatusBadRequest, "unknown state %q (want queued|running|done|failed)", v)
			return
		}
	}
	snaps := s.jobs.List(filter)
	list := jobList{Jobs: make([]jobListEntry, 0, len(snaps)), Stats: s.jobs.Stats()}
	for _, snap := range snaps {
		entry := jobListEntry{
			jobStatus: jobStatus{ID: snap.ID, State: string(snap.State), TraceID: snap.TraceID, Poll: "/jobs/" + snap.ID},
			Submitted: snap.Submitted,
		}
		if !snap.Started.IsZero() {
			started := snap.Started
			entry.Started = &started
		}
		if !snap.Finished.IsZero() {
			finished := snap.Finished
			entry.Finished = &finished
		}
		if snap.State == batch.StateFailed {
			entry.Error = jobFailureReason(snap)
		}
		list.Jobs = append(list.Jobs, entry)
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(list)
}

// handleJob serves GET (poll) and DELETE (cancel) on /jobs/{id}.
func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	id := strings.TrimPrefix(r.URL.Path, "/jobs/")
	if base, ok := strings.CutSuffix(id, "/events"); ok && base != "" && !strings.Contains(base, "/") {
		s.handleJobEvents(w, r, base)
		return
	}
	if id == "" || strings.Contains(id, "/") {
		s.httpError(w, http.StatusNotFound, "want /jobs/{id}")
		return
	}
	job, ok := s.jobs.Get(id)
	if !ok {
		s.httpError(w, http.StatusNotFound, "no such job %q (finished jobs are retained for a bounded time)", id)
		return
	}
	switch r.Method {
	case http.MethodGet:
		s.writeJobSnapshot(w, job.Snapshot())
	case http.MethodDelete:
		s.jobs.Cancel(id)
		// Cancelling a queued job settles it synchronously; a running one
		// may take a moment to unwind. Either way, answer with the state
		// as it is now.
		s.writeJobSnapshot(w, job.Snapshot())
	default:
		w.Header().Set("Allow", "GET, DELETE")
		s.httpError(w, http.StatusMethodNotAllowed, "GET polls a job, DELETE cancels it")
	}
}

// writeJobSnapshot renders a job state: done jobs as the raw /layer body,
// everything else as a jobStatus envelope.
func (s *Server) writeJobSnapshot(w http.ResponseWriter, snap batch.Snapshot) {
	w.Header().Set("X-Job-State", string(snap.State))
	if snap.State == batch.StateDone {
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(snap.Result)
		return
	}
	status := jobStatus{ID: snap.ID, State: string(snap.State), TraceID: snap.TraceID}
	if snap.State == batch.StateFailed {
		status.Error = jobFailureReason(snap)
	}
	s.writeJobStatus(w, http.StatusOK, status)
}

// jobFailureReason renders a failed job's error, labelling cancellations
// and deadline expiries the way /layer's status codes would: 499-style
// for a client-initiated cancel, 504-style for a deadline.
func jobFailureReason(snap batch.Snapshot) string {
	switch {
	case snap.Canceled:
		return fmt.Sprintf("client closed request (499): %v", snap.Err)
	case errors.Is(snap.Err, context.DeadlineExceeded):
		return fmt.Sprintf("deadline exceeded (504): %v", snap.Err)
	case errors.Is(snap.Err, context.Canceled):
		return fmt.Sprintf("server shutting down (503): %v", snap.Err)
	case errors.Is(snap.Err, shard.ErrRunQueueFull):
		return fmt.Sprintf("cluster run queue full (429): %v", snap.Err)
	default:
		return snap.Err.Error()
	}
}

func (s *Server) writeJobStatus(w http.ResponseWriter, code int, status jobStatus) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(status)
}
