package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"
	"net/http"
	"sort"
	"strconv"
	"time"

	"fdpsim/internal/obs"
	"fdpsim/internal/sim"
	"fdpsim/internal/sweep"
	"fdpsim/internal/workload/spec"
)

// JobRequest is the POST /v1/jobs body. Either set the simple fields —
// prefetcher, level, fdp, dynamic_insertion and controller work exactly
// like a sweep config axis (sweep.ConfigAxis.Build) — or supply a
// complete sim.Config under "config" for full control; the simple sizing
// fields (insts, warmup, seed, tinterval) still apply on top of an
// explicit config when non-zero.
type JobRequest struct {
	Workload         string `json:"workload"`
	Prefetcher       string `json:"prefetcher"`           // default "stream"
	Level            int    `json:"level"`                // static aggressiveness 1..5; 0 with fdp
	FDP              bool   `json:"fdp"`                  // dynamic aggressiveness + insertion
	DynamicInsertion bool   `json:"dynamic_insertion"`    // dynamic insertion only
	Controller       string `json:"controller,omitempty"` // feedback decision policy (internal/control names)
	Insts            uint64 `json:"insts"`                // default 1,000,000
	Warmup           uint64 `json:"warmup"`
	Seed             uint64 `json:"seed"`
	TInterval        uint64 `json:"tinterval"`

	// Trace makes the job collect its FDP decision trace, downloadable at
	// GET /v1/jobs/{id}/trace once the job is terminal.
	Trace bool `json:"trace,omitempty"`

	// Series makes the job record its interval timeseries, queryable at
	// GET /v1/jobs/{id}/series once the job is terminal and diffable
	// against another run at GET /v1/diff.
	Series bool `json:"series,omitempty"`

	// Tenant attributes the job to a scheduler tenant for fair queueing
	// and quotas; empty means the default tenant. Priority orders the job
	// within the tenant's queue (higher runs sooner).
	Tenant   string `json:"tenant,omitempty"`
	Priority int    `json:"priority,omitempty"`

	// IdempotencyKey, when set, must equal the configuration fingerprint
	// the server would compute for this request (the "fingerprint" field
	// of a prior submission's status). A matching key makes the POST
	// idempotent: if a job for that fingerprint already exists — queued,
	// running or finished — it is returned (200) instead of a duplicate
	// being created. A mismatched key is rejected (409) since it means
	// the client is retrying a different configuration than it believes.
	IdempotencyKey string `json:"idempotency_key,omitempty"`

	// Attribution enables the cycle-accounting and bandwidth-attribution
	// layer: the job's Result gains the Attribution block, its SSE
	// progress events and decision trace carry per-interval stall/bus
	// samples, and /metrics aggregates the stall and bus-occupancy
	// counters across attribution jobs.
	Attribution bool `json:"attribution,omitempty"`

	// Config, when present, is the full simulator configuration and takes
	// the place of the assembled baseline.
	Config *sim.Config `json:"config,omitempty"`

	// Spec, when present, is a declarative WorkloadSpec (the same schema
	// docs/WORKLOADS.md documents for spec files) the job runs instead of a
	// registered workload name; "workload" is then ignored and the job is
	// deduplicated under the spec-aware fingerprint. Only single-lane specs
	// are accepted.
	Spec *spec.Spec `json:"spec,omitempty"`
}

// BuildConfig assembles the simulation configuration, or returns the
// zero Config (which sim.Job.Validate rejects) when the simple fields are
// inconsistent; the HTTP layer reports why through buildConfig.
func (r *JobRequest) BuildConfig() sim.Config {
	cfg, _ := r.buildConfig()
	return cfg
}

// buildConfig assembles the simulation configuration. The simple fields
// go through the sweep axis builder, whose errors match sweep.ErrInvalid;
// validation of the result happens in Submit (sim.Job.Validate).
func (r *JobRequest) buildConfig() (sim.Config, error) {
	var cfg sim.Config
	if r.Config != nil {
		cfg = *r.Config
	} else {
		var err error
		axis := sweep.ConfigAxis{Prefetcher: r.Prefetcher, Level: r.Level, FDP: r.FDP,
			DynamicInsertion: r.DynamicInsertion, Controller: r.Controller}
		if cfg, err = axis.Build(); err != nil {
			return sim.Config{}, err
		}
		if r.Workload != "" {
			cfg.Workload = r.Workload
		}
	}
	if r.Insts != 0 {
		cfg.MaxInsts = r.Insts
	}
	if r.Warmup != 0 {
		cfg.WarmupInsts = r.Warmup
	}
	if r.Seed != 0 {
		cfg.Seed = r.Seed
	}
	if r.TInterval != 0 {
		cfg.FDP.TInterval = r.TInterval
	}
	if r.Controller != "" {
		cfg.Controller = r.Controller
	}
	if r.Attribution {
		cfg.Attribution = true
	}
	return cfg, nil
}

// Handler returns the service's HTTP API:
//
//	POST   /v1/jobs               submit (202; 200 on a cache hit; 429 full)
//	GET    /v1/jobs               list job statuses (?state=, ?tenant=, ?sweep=)
//	GET    /v1/jobs/{id}          poll one job
//	GET    /v1/jobs/{id}/events   SSE per-interval progress
//	GET    /v1/jobs/{id}/trace    download the FDP decision trace
//	                              (JSONL; ?format=chrome for Perfetto)
//	GET    /v1/jobs/{id}/series   interval timeseries (?metrics=, ?step=,
//	                              ?format=json|csv)
//	GET    /v1/jobs/{id}/spans    fabric spans (JSON; ?format=chrome)
//	DELETE /v1/jobs/{id}          cancel
//	POST   /v1/sweeps             submit a parameter grid (202; 400 invalid)
//	GET    /v1/sweeps             list sweep statuses
//	GET    /v1/sweeps/{id}        poll one sweep (aggregate summary + ETA)
//	GET    /v1/sweeps/{id}/events SSE aggregate progress (counts, ETA, means)
//	GET    /v1/sweeps/{id}/results merged results (JSON; ?format=text for tables)
//	GET    /v1/sweeps/{id}/trace  whole-sweep fabric trace (Chrome/Perfetto;
//	                              ?format=json for raw spans)
//	GET    /v1/sweeps/{id}/series merged (mean) interval timeseries across
//	                              the sweep's cells
//	GET    /v1/diff               run-diff two fingerprints' series
//	                              (?a=, ?b=, ?skip_a=, ?skip_b=)
//	DELETE /v1/sweeps/{id}        cancel every non-terminal cell
//	GET    /debug/events          fabric-span flight recorder (last N spans)
//	GET    /metrics               Prometheus text metrics
//	GET    /healthz               liveness
//
// Every route runs behind the observability middleware: request-duration
// metrics plus one structured log line per request with a request ID.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleGet)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /v1/jobs/{id}/trace", s.handleTrace)
	mux.HandleFunc("GET /v1/jobs/{id}/series", s.handleSeries)
	mux.HandleFunc("GET /v1/jobs/{id}/spans", s.handleJobSpans)
	mux.HandleFunc("POST /v1/sweeps", s.handleSweepSubmit)
	mux.HandleFunc("GET /v1/sweeps", s.handleSweepList)
	mux.HandleFunc("GET /v1/sweeps/{id}", s.handleSweepGet)
	mux.HandleFunc("DELETE /v1/sweeps/{id}", s.handleSweepCancel)
	mux.HandleFunc("GET /v1/sweeps/{id}/events", s.handleSweepEvents)
	mux.HandleFunc("GET /v1/sweeps/{id}/results", s.handleSweepResults)
	mux.HandleFunc("GET /v1/sweeps/{id}/trace", s.handleSweepTrace)
	mux.HandleFunc("GET /v1/sweeps/{id}/series", s.handleSweepSeries)
	mux.HandleFunc("GET /v1/diff", s.handleDiff)
	mux.HandleFunc("GET /debug/events", s.handleDebugEvents)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	return s.withObservability(mux)
}

// apiError is every non-2xx JSON body.
type apiError struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // the client went away; nothing to do
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, apiError{Error: fmt.Sprintf(format, args...)})
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req JobRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "invalid job request: %v", err)
		return
	}
	cfg, err := req.buildConfig()
	if err != nil {
		writeError(w, http.StatusBadRequest, "invalid job request: %v", err)
		return
	}
	run := sim.Job{Cfg: cfg, Spec: req.Spec}

	// Idempotent retries: a client that saw a submission's fingerprint but
	// lost the response echoes it back; an existing job for it — in any
	// state — answers the retry instead of a duplicate being created. A
	// request that cannot fingerprint skips the check; Submit reports why.
	if req.IdempotencyKey != "" {
		if fp, ok := run.Fingerprint(); ok && fp != req.IdempotencyKey {
			writeError(w, http.StatusConflict,
				"idempotency key %s does not match this request's fingerprint %s",
				shortFP(req.IdempotencyKey), shortFP(fp))
			return
		}
		if job, ok := s.jobByFingerprint(req.IdempotencyKey); ok {
			writeJSON(w, http.StatusOK, job.Status())
			return
		}
	}

	var opts []SubmitOption
	if req.Trace {
		opts = append(opts, WithDecisionTrace())
	}
	if req.Series {
		opts = append(opts, WithSeriesRecording())
	}
	if req.Tenant != "" {
		opts = append(opts, WithTenant(req.Tenant))
	}
	if req.Priority != 0 {
		opts = append(opts, WithPriority(req.Priority))
	}
	if traceID, parent := parseTraceHeader(r.Header.Get(TraceHeader)); traceID != "" {
		opts = append(opts, WithTraceContext(traceID, parent))
	}
	job, err := s.Submit(run, opts...)
	switch {
	case err == nil:
		st := job.Status()
		w.Header().Set(TraceHeader, job.TraceID())
		if st.CacheHit {
			writeJSON(w, http.StatusOK, st) // answered without simulating
			return
		}
		w.Header().Set("Location", "/v1/jobs/"+job.ID())
		writeJSON(w, http.StatusAccepted, st)
	case errors.Is(err, ErrQueueFull):
		// Backpressure: one worker will free up within roughly a run
		// length. The Retry-After hint is jittered so a herd of clients
		// that hit the full queue together does not retry in lockstep.
		retry := retryAfterSeconds()
		w.Header().Set("Retry-After", strconv.Itoa(retry))
		writeError(w, http.StatusTooManyRequests, "%v (retry after %ds)", err, retry)
	case errors.Is(err, ErrShuttingDown):
		writeError(w, http.StatusServiceUnavailable, "%v", err)
	default: // validation (including sweep.ErrUnknownTenant)
		writeError(w, http.StatusBadRequest, "%v", err)
	}
}

// retryAfterSeconds is the backoff hint sent with 429 responses: a 1–3s
// jittered window rather than a fixed constant.
func retryAfterSeconds() int { return 1 + rand.IntN(3) }

// jobByFingerprint finds the most recent job for a fingerprint.
func (s *Server) jobByFingerprint(fp string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var best *Job
	for _, j := range s.jobs {
		if j.fp == fp && (best == nil || j.submittedAt.After(best.submittedAt)) {
			best = j
		}
	}
	return best, best != nil
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	stateFilter := q.Get("state")
	switch JobState(stateFilter) {
	case "", StateQueued, StateRunning, StateDone, StateFailed, StateCancelled:
	default:
		writeError(w, http.StatusBadRequest,
			"unknown state %q (want queued, running, done, failed or cancelled)", stateFilter)
		return
	}
	tenantFilter := q.Get("tenant")
	sweepFilter := q.Get("sweep")

	jobs := s.Jobs()
	statuses := make([]JobStatus, 0, len(jobs))
	for _, j := range jobs {
		st := j.Status()
		if stateFilter != "" && st.State != JobState(stateFilter) {
			continue
		}
		if tenantFilter != "" && st.Tenant != tenantFilter {
			continue
		}
		if sweepFilter != "" && st.Sweep != sweepFilter {
			continue
		}
		st.Result = nil // keep the listing small; poll the job for metrics
		statuses = append(statuses, st)
	}
	sort.Slice(statuses, func(i, k int) bool {
		return statuses[i].SubmittedAt.Before(statuses[k].SubmittedAt)
	})
	writeJSON(w, http.StatusOK, statuses)
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	job, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, job.Status())
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	job, err := s.Cancel(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, job.Status())
}

// sseEvent writes one Server-Sent Event and flushes it to the client.
func sseEvent(w http.ResponseWriter, fl http.Flusher, event string, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, data); err != nil {
		return err
	}
	fl.Flush()
	return nil
}

// sseFrame is one SSE event: its name and its JSON payload.
type sseFrame struct {
	event string
	data  any
}

// streamFeed is the one SSE loop behind the job and sweep event streams.
// It subscribes to f and writes the frames first returns for the feed's
// latest value, so a late joiner sees where the stream already is. It
// then relays each published value as an event called name, and ends
// with one "done" frame carrying final() once done closes; values still
// buffered then are superseded by that status. Idle gaps are bridged
// with ": keepalive" comment frames (Config.SSEKeepalive).
func streamFeed[T any](s *Server, w http.ResponseWriter, r *http.Request, f *feed[T], name string,
	first func(last T) []sseFrame, done <-chan struct{}, final func() any) {
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "streaming unsupported by this connection")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	id, ch, last := f.subscribe()
	defer f.unsubscribe(id)
	var keepalive <-chan time.Time // nil, blocking forever, when disabled
	var ticker *time.Ticker
	if s.cfg.SSEKeepalive > 0 {
		ticker = time.NewTicker(s.cfg.SSEKeepalive)
		defer ticker.Stop()
		keepalive = ticker.C
	}

	for _, fr := range first(last) {
		if err := sseEvent(w, fl, fr.event, fr.data); err != nil {
			return
		}
	}
	for {
		select {
		case <-r.Context().Done():
			return
		case v := <-ch:
			if ticker != nil {
				// Comment frames only fill genuine idle gaps.
				ticker.Reset(s.cfg.SSEKeepalive)
			}
			if err := sseEvent(w, fl, name, v); err != nil {
				return
			}
		case <-keepalive:
			// A comment frame: invisible to EventSource clients, but enough
			// traffic to keep proxies and LBs from reaping an idle stream.
			if _, err := fmt.Fprint(w, ": keepalive\n\n"); err != nil {
				return
			}
			fl.Flush()
		case <-done:
			sseEvent(w, fl, "done", final()) //nolint:errcheck
			return
		}
	}
}

// handleEvents streams a job's per-FDP-interval sim.DecisionEvents as SSE
// "progress" events — each payload is the JSON object of one JSONL trace
// line — ending with one "done" event carrying the final JobStatus, whose
// Result holds the run's closing numbers. A subscriber first gets a
// "state" event and the latest interval event, so subscribing to a
// finished job yields its last interval event and then "done" at once.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	job, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	streamFeed(s, w, r, &job.progress, "progress", func(last sim.DecisionEvent) []sseFrame {
		frames := []sseFrame{{"state", job.Status()}}
		if last.Interval > 0 {
			frames = append(frames, sseFrame{"progress", last})
		}
		return frames
	}, job.Done(), func() any { return job.Status() })
}

// handleTrace serves a terminal job's FDP decision trace: JSONL by
// default, or the Chrome trace_event document (loadable in Perfetto /
// chrome://tracing) with ?format=chrome.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	job, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	if !job.Status().State.Terminal() {
		writeError(w, http.StatusConflict,
			"job %s has not finished; the trace is available once the job is terminal", job.ID())
		return
	}
	jsonl, ok := job.Trace()
	if !ok {
		writeError(w, http.StatusNotFound,
			"job %s has no decision trace; submit with \"trace\": true", job.ID())
		return
	}
	switch format := r.URL.Query().Get("format"); format {
	case "", "jsonl":
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.Header().Set("Content-Disposition",
			fmt.Sprintf("attachment; filename=%q", job.ID()+".trace.jsonl"))
		w.WriteHeader(http.StatusOK)
		w.Write(jsonl) //nolint:errcheck // the client went away; nothing to do
	case "chrome":
		events, err := obs.ReadJSONL(bytes.NewReader(jsonl))
		if err != nil {
			writeError(w, http.StatusInternalServerError, "stored trace is unreadable: %v", err)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Content-Disposition",
			fmt.Sprintf("attachment; filename=%q", job.ID()+".trace.json"))
		w.WriteHeader(http.StatusOK)
		obs.WriteChrome(w, events) //nolint:errcheck // ditto
	default:
		writeError(w, http.StatusBadRequest, "unknown trace format %q (want jsonl or chrome)", format)
	}
}

// handleJobSpans serves a job's fabric spans: JSON by default, or the
// Chrome trace_event document with ?format=chrome. Spans accumulate as
// the job progresses, so polling a running job shows the stages so far.
func (s *Server) handleJobSpans(w http.ResponseWriter, r *http.Request) {
	job, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	spans := job.Spans()
	switch format := r.URL.Query().Get("format"); format {
	case "", "json":
		writeJSON(w, http.StatusOK, map[string]any{
			"trace_id": job.TraceID(),
			"spans":    spans,
		})
	case "chrome":
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Content-Disposition",
			fmt.Sprintf("attachment; filename=%q", job.ID()+".spans.json"))
		w.WriteHeader(http.StatusOK)
		obs.WriteSpansChrome(w, spans) //nolint:errcheck // the client went away
	default:
		writeError(w, http.StatusBadRequest, "unknown spans format %q (want json or chrome)", format)
	}
}

// handleSweepTrace serves the sweep's whole fabric trace — the sweep
// root plus every job's spans — as a Chrome trace_event document by
// default (one Perfetto lane per worker, one row per tenant), or raw
// span JSON with ?format=json. A running sweep renders its partial
// trace.
func (s *Server) handleSweepTrace(w http.ResponseWriter, r *http.Request) {
	sw, ok := s.Sweep(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown sweep %q", r.PathValue("id"))
		return
	}
	spans := s.sweepSpans(sw)
	switch format := r.URL.Query().Get("format"); format {
	case "", "chrome":
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Content-Disposition",
			fmt.Sprintf("attachment; filename=%q", sw.ID()+".trace.json"))
		w.WriteHeader(http.StatusOK)
		obs.WriteSpansChrome(w, spans) //nolint:errcheck // ditto
	case "json":
		writeJSON(w, http.StatusOK, map[string]any{
			"trace_id": sw.TraceID(),
			"spans":    spans,
		})
	default:
		writeError(w, http.StatusBadRequest, "unknown trace format %q (want chrome or json)", format)
	}
}

// handleDebugEvents serves the fabric flight recorder: the last N spans
// across all jobs and sweeps, oldest first, with the eviction count —
// the "what just happened" endpoint for incident triage.
func (s *Server) handleDebugEvents(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"spans":   s.spans.Spans(),
		"held":    s.spans.Len(),
		"dropped": s.spans.Dropped(),
	})
}

// handleSweepSubmit admits a parameter grid: expansion and validation
// happen synchronously (400 on a bad grid), execution is asynchronous.
func (s *Server) handleSweepSubmit(w http.ResponseWriter, r *http.Request) {
	var req sweep.Request
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "invalid sweep request: %v", err)
		return
	}
	traceID, parent := parseTraceHeader(r.Header.Get(TraceHeader))
	sw, err := s.SubmitSweepTrace(req, traceID, parent)
	switch {
	case err == nil:
		w.Header().Set("Location", "/v1/sweeps/"+sw.ID())
		w.Header().Set(TraceHeader, sw.TraceID())
		writeJSON(w, http.StatusAccepted, sw.Status())
	case errors.Is(err, ErrShuttingDown):
		writeError(w, http.StatusServiceUnavailable, "%v", err)
	default: // sweep.ErrInvalid (incl. ErrUnknownTenant) or validation
		writeError(w, http.StatusBadRequest, "%v", err)
	}
}

func (s *Server) handleSweepList(w http.ResponseWriter, r *http.Request) {
	sweeps := s.Sweeps()
	statuses := make([]SweepStatus, 0, len(sweeps))
	for _, sw := range sweeps {
		statuses = append(statuses, sw.Status())
	}
	sort.Slice(statuses, func(i, k int) bool {
		return statuses[i].CreatedAt.Before(statuses[k].CreatedAt)
	})
	writeJSON(w, http.StatusOK, statuses)
}

func (s *Server) handleSweepGet(w http.ResponseWriter, r *http.Request) {
	sw, ok := s.Sweep(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown sweep %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, sw.Status())
}

func (s *Server) handleSweepCancel(w http.ResponseWriter, r *http.Request) {
	sw, err := s.CancelSweep(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, "unknown sweep %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, sw.Status())
}

// sweepResults is the JSON body of GET /v1/sweeps/{id}/results.
type sweepResults struct {
	SweepStatus
	Cells []sweep.Cell `json:"results"`
}

// handleSweepResults serves the merged results table: the full cell grid
// as JSON, or the harness-style aligned text tables with ?format=text.
// Partial sweeps render too — pending cells as "-", failed as "x".
func (s *Server) handleSweepResults(w http.ResponseWriter, r *http.Request) {
	sw, ok := s.Sweep(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown sweep %q", r.PathValue("id"))
		return
	}
	switch format := r.URL.Query().Get("format"); format {
	case "", "json":
		writeJSON(w, http.StatusOK, sweepResults{SweepStatus: sw.Status(), Cells: sw.Cells()})
	case "text":
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.WriteHeader(http.StatusOK)
		for _, t := range sw.Tables() {
			t.Render(w)
		}
	default:
		writeError(w, http.StatusBadRequest, "unknown results format %q (want json or text)", format)
	}
}

// handleSweepEvents streams the sweep's aggregate as SSE "summary"
// events — one frame per completed cell with counts, rolling IPC/BPKI
// means and an ETA — ending with one "done" event carrying the final
// status. A subscriber first gets the current summary, so subscribing to
// a finished sweep yields it and then "done" at once.
func (s *Server) handleSweepEvents(w http.ResponseWriter, r *http.Request) {
	sw, ok := s.Sweep(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown sweep %q", r.PathValue("id"))
		return
	}
	streamFeed(s, w, r, &sw.events, "summary", func(SweepEvent) []sseFrame {
		return []sseFrame{{"summary", sw.event()}}
	}, sw.Done(), func() any { return sw.Status() })
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.m.render(w, s.sched.depthUsed(), time.Since(s.started), s.dccDistribution(),
		s.sched.snapshot(), s.activeSweeps(), s.spans.Len(), s.spans.Dropped())
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if closed {
		writeError(w, http.StatusServiceUnavailable, "shutting down")
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}
