// Package service is the simulation job service: a bounded worker pool
// with a FIFO queue behind an HTTP JSON API (see http.go), turning the
// one-shot simulator into a shared daemon that sweeps of prefetcher
// configurations — Puppeteer-style managers, POWER7-style reconfiguration
// studies — can drive concurrently.
//
// Jobs are deduplicated by their configuration fingerprint
// (sim.Fingerprint): a store.Memo reads through to an optional
// content-addressed on-disk store (internal/store), so an identical
// submission — even across daemon restarts — completes immediately as a
// cache hit without re-simulating.
//
// Lifecycle: Submit validates and either answers from cache, enqueues, or
// reports backpressure (ErrQueueFull → HTTP 429). Cancel stops a queued
// job in place or cancels a running one at the next FDP interval boundary
// (PR 1's retire-boundary drain), preserving the partial result. Shutdown
// stops intake, cancels in-flight runs the same way, and waits for the
// workers to drain.
package service

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"fdpsim/internal/obs"
	"fdpsim/internal/series"
	"fdpsim/internal/sim"
	"fdpsim/internal/store"
)

// Sentinel errors; the HTTP layer maps them to status codes.
var (
	// ErrQueueFull reports that the FIFO queue is at capacity (HTTP 429).
	ErrQueueFull = errors.New("service: job queue full")
	// ErrShuttingDown reports a submission after Shutdown began (HTTP 503).
	ErrShuttingDown = errors.New("service: shutting down")
	// ErrUnknownJob reports a job ID that was never issued (HTTP 404).
	ErrUnknownJob = errors.New("service: unknown job")
)

// Config sizes the service.
type Config struct {
	// Workers is the worker-pool width: at most this many simulations run
	// concurrently. 0 means GOMAXPROCS.
	Workers int
	// QueueDepth bounds the FIFO queue of jobs waiting for a worker;
	// submissions beyond it are rejected with ErrQueueFull so load sheds
	// at the edge instead of accumulating unboundedly. 0 means 64.
	QueueDepth int
	// Store, when non-nil, persists completed results on disk and serves
	// identical submissions across restarts. The in-memory memo reads
	// through it either way.
	Store *store.Store
	// JobTimeout, when non-zero, bounds each simulation's wall-clock run
	// time; expiry cancels it at the next interval boundary and the job
	// completes as cancelled with its partial result.
	JobTimeout time.Duration
	// Logger receives structured job-lifecycle and HTTP request logs.
	// Nil discards them.
	Logger *slog.Logger

	// Tenants is the scheduler roster: per-tenant fair-share weights and
	// quotas. Tenants absent from the roster auto-register at weight 1
	// unless StrictTenants is set.
	Tenants map[string]TenantConfig
	// StrictTenants rejects submissions naming a tenant outside the
	// roster (sweep.ErrUnknownTenant → HTTP 400) instead of
	// auto-registering it. The default tenant always exists.
	StrictTenants bool

	// FleetWorker, when non-empty, names this process in a worker fleet:
	// multiple fdpserved processes sharing one Store coordinate through
	// atomic claim files so each fingerprint is simulated once fleet-wide.
	// Requires Store; ignored without one.
	FleetWorker string
	// LeaseTTL is the fleet claim lease. A worker renews its lease while
	// simulating; a claim past its lease is stolen by the next worker
	// (the crashed-worker path). 0 means 30s.
	LeaseTTL time.Duration
	// ClaimAttempts bounds how many times a worker re-checks a held claim
	// (with backoff) before falling back to executing locally — execution
	// is at-least-once, results are exactly-once via the store's atomic
	// writes. 0 means 32.
	ClaimAttempts int

	// SpanLimit caps the fabric-span flight recorder (GET /debug/events):
	// the last N spans across all jobs, oldest evicted. 0 means 4096.
	SpanLimit int
	// SSEKeepalive is the idle interval after which the SSE handlers emit
	// a ": keepalive" comment frame so intermediaries do not drop a quiet
	// stream. 0 means 15s; negative disables keepalives.
	SSEKeepalive time.Duration
}

// JobState is a job's lifecycle phase.
type JobState string

// Job lifecycle states. Queued and running are transient; done, failed
// and cancelled are terminal.
const (
	StateQueued    JobState = "queued"
	StateRunning   JobState = "running"
	StateDone      JobState = "done"
	StateFailed    JobState = "failed"
	StateCancelled JobState = "cancelled"
)

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// Job is one submitted simulation. All mutable fields are guarded by mu;
// done is closed exactly once, by finish, when the job reaches a terminal
// state.
type Job struct {
	id string
	fp string
	// run is what the job simulates: a configuration and, for a spec job,
	// the WorkloadSpec it runs.
	run sim.Job
	// tenant and priority place the job in the fair scheduler; sweepID
	// links it to the sweep that expanded it (empty for direct jobs).
	tenant   string
	priority int
	sweepID  string

	mu sync.Mutex
	// state leaves queued once: start moves it to running, or Cancel, or
	// start at shutdown, to cancelled; whichever does owns the job's finish.
	state       JobState
	cacheHit    bool
	submittedAt time.Time
	startedAt   time.Time
	finishedAt  time.Time
	result      *sim.Result
	errMsg      string
	cancel      context.CancelCauseFunc // set while running
	done        chan struct{}

	// progress carries the run's interval events to SSE subscribers; its
	// latest event (zero Interval until the first boundary closes) is
	// replayed to late subscribers and read by the dcc gauge.
	progress feed[sim.DecisionEvent]

	// trace, when non-nil, collects the run's FDP decision events (the
	// job was submitted with WithDecisionTrace). traceJSONL is the
	// rendered artifact, set when the job reaches a terminal state (or
	// immediately on a cache hit whose trace the store still has).
	trace      *obs.Collector
	traceJSONL []byte

	// series, when non-nil, records the run's interval timeseries (the
	// job was submitted with WithSeriesRecording). seriesBin is the
	// encoded sidecar document, set when the job reaches a terminal state
	// (or immediately on a cache hit whose sidecar the store still has).
	series    *series.Recorder
	seriesBin []byte

	// Fabric trace identity (immutable after Submit): traceID threads the
	// job's spans, rootSpan is its "job" span ID, parentSpan links it under
	// a submitter's span (sweep root, or an X-Fdp-Trace header). spans are
	// the completed fabric spans, guarded by mu.
	traceID    string
	rootSpan   string
	parentSpan string
	spans      []obs.Span
}

// ID returns the job's identifier.
func (j *Job) ID() string { return j.id }

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// Trace returns the job's rendered JSONL decision trace. ok is false when
// the job was not submitted with tracing, has not reached a terminal
// state yet, or completed as a cache hit whose trace the store no longer
// has.
func (j *Job) Trace() (jsonl []byte, ok bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.traceJSONL == nil {
		return nil, false
	}
	return j.traceJSONL, true
}

// SeriesData returns the job's encoded interval-timeseries sidecar
// (internal/series binary document). ok is false when the job was not
// submitted with series recording, has not reached a terminal state yet,
// or completed as a cache hit whose sidecar the store no longer has.
func (j *Job) SeriesData() (doc []byte, ok bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.seriesBin == nil {
		return nil, false
	}
	return j.seriesBin, true
}

// JobStatus is the JSON shape of a job, returned by poll and embedded in
// the SSE "done" event.
type JobStatus struct {
	ID          string      `json:"id"`
	State       JobState    `json:"state"`
	Workload    string      `json:"workload"`
	Prefetcher  string      `json:"prefetcher"`
	Fingerprint string      `json:"fingerprint"`
	Tenant      string      `json:"tenant"`
	Priority    int         `json:"priority,omitempty"`
	Sweep       string      `json:"sweep,omitempty"`
	CacheHit    bool        `json:"cache_hit"`
	SubmittedAt time.Time   `json:"submitted_at"`
	StartedAt   *time.Time  `json:"started_at,omitempty"`
	FinishedAt  *time.Time  `json:"finished_at,omitempty"`
	Error       string      `json:"error,omitempty"`
	Result      *sim.Result `json:"result,omitempty"`
	// Trace reports that a decision-trace artifact is downloadable at
	// GET /v1/jobs/{id}/trace.
	Trace bool `json:"trace,omitempty"`
	// Series reports that an interval-timeseries artifact is queryable at
	// GET /v1/jobs/{id}/series.
	Series bool `json:"series,omitempty"`
}

// Status snapshots the job for serialization.
func (j *Job) Status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID:          j.id,
		State:       j.state,
		Workload:    j.run.Workload(),
		Prefetcher:  string(j.run.Cfg.Prefetcher),
		Fingerprint: j.fp,
		Tenant:      j.tenant,
		Priority:    j.priority,
		Sweep:       j.sweepID,
		CacheHit:    j.cacheHit,
		SubmittedAt: j.submittedAt,
		Error:       j.errMsg,
		Result:      j.result,
		Trace:       j.traceJSONL != nil,
		Series:      j.seriesBin != nil,
	}
	if !j.startedAt.IsZero() {
		t := j.startedAt
		st.StartedAt = &t
	}
	if !j.finishedAt.IsZero() {
		t := j.finishedAt
		st.FinishedAt = &t
	}
	return st
}

// Server owns the job table, the worker pool and the result cache.
type Server struct {
	cfg Config
	log *slog.Logger

	baseCtx    context.Context
	baseCancel context.CancelCauseFunc
	sched      *fairQueue
	wg         sync.WaitGroup
	memo       *store.Memo

	mu        sync.Mutex
	jobs      map[string]*Job
	sweeps    map[string]*Sweep
	nextID    uint64
	nextSweep uint64
	closed    bool

	started time.Time
	reqSeq  atomic.Uint64 // HTTP request IDs for log correlation
	m       metrics
	// spans is the fabric-span flight recorder behind /debug/events: the
	// last Config.SpanLimit spans across all jobs, drop-oldest.
	spans *obs.SpanBuffer
}

// defaultTraceLimit caps the decision events retained per traced job
// (~5 MB of JSONL); later intervals are counted as truncated instead of
// growing the buffer without bound.
const defaultTraceLimit = 16384

// defaultSeriesLimit caps the intervals recorded per series-enabled job
// (~13 MB of columns in memory); later boundaries are counted as
// truncated in the sidecar's Meta.
const defaultSeriesLimit = 65536

// New builds a Server and starts its worker pool.
func New(cfg Config) *Server {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = 30 * time.Second
	}
	if cfg.ClaimAttempts <= 0 {
		cfg.ClaimAttempts = 32
	}
	if cfg.FleetWorker != "" && cfg.Store == nil {
		cfg.FleetWorker = "" // fleet coordination lives in the store
	}
	if cfg.SSEKeepalive == 0 {
		cfg.SSEKeepalive = 15 * time.Second
	}
	logger := cfg.Logger
	if logger == nil {
		logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	ctx, cancel := context.WithCancelCause(context.Background())
	s := &Server{
		cfg:        cfg,
		log:        logger,
		baseCtx:    ctx,
		baseCancel: cancel,
		sched:      newFairQueue(cfg.QueueDepth, cfg.StrictTenants, cfg.Tenants),
		memo:       store.NewMemo(cfg.Store),
		jobs:       make(map[string]*Job),
		sweeps:     make(map[string]*Sweep),
		started:    time.Now(),
		spans:      &obs.SpanBuffer{Limit: cfg.SpanLimit},
	}
	s.m.init()
	for w := 0; w < cfg.Workers; w++ {
		s.wg.Add(1)
		go s.worker()
	}
	s.log.Info("service started", "workers", cfg.Workers, "queue_depth", cfg.QueueDepth,
		"store", cfg.Store != nil, "job_timeout", cfg.JobTimeout,
		"fleet_worker", cfg.FleetWorker, "strict_tenants", cfg.StrictTenants)
	return s
}

// Job looks up a job by ID.
func (s *Server) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Jobs returns every job, newest last (insertion order is not preserved
// by the map; callers sort by SubmittedAt).
func (s *Server) Jobs() []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		out = append(out, j)
	}
	return out
}

// SubmitOption customizes one submission.
type SubmitOption func(*submitOptions)

type submitOptions struct {
	trace      bool
	series     bool
	tenant     string
	priority   int
	sweepID    string // set by SubmitSweep; sweep jobs bypass queued quotas
	traceID    string // fabric trace to join (WithTraceContext); "" = fresh
	parentSpan string
}

// WithDecisionTrace makes the job collect its FDP decision trace (one
// event per sampling interval, at most defaultTraceLimit), downloadable
// at GET /v1/jobs/{id}/trace once the job is terminal. Cache hits reuse
// the persisted trace when the store still has one.
func WithDecisionTrace() SubmitOption {
	return func(o *submitOptions) { o.trace = true }
}

// WithSeriesRecording makes the job record its interval timeseries (one
// catalog row per FDP sampling interval, at most defaultSeriesLimit),
// queryable at GET /v1/jobs/{id}/series and diffable at GET /v1/diff once
// the job is terminal. Cache hits reuse the persisted sidecar when the
// store still has one.
func WithSeriesRecording() SubmitOption {
	return func(o *submitOptions) { o.series = true }
}

// WithTenant attributes the job to a scheduler tenant for fair queueing
// and quotas. Empty (or omitted) means the default tenant. Under a
// strict roster, an unknown tenant fails the submission with
// sweep.ErrUnknownTenant.
func WithTenant(name string) SubmitOption {
	return func(o *submitOptions) { o.tenant = name }
}

// WithPriority orders the job against the tenant's other queued work;
// higher runs sooner (default 0). Priority is within-tenant only — it
// never lets one tenant jump another's share.
func WithPriority(p int) SubmitOption {
	return func(o *submitOptions) { o.priority = p }
}

// forSweep links the job to a sweep and lets it bypass queued quotas
// (sweep admission is bounded at expansion by sweep.MaxJobs).
func forSweep(id string) SubmitOption {
	return func(o *submitOptions) { o.sweepID = id }
}

// Submit validates a run and either completes it from cache, enqueues it,
// or rejects it (ErrQueueFull, ErrShuttingDown, or a validation error
// wrapping sim.ErrInvalidConfig, sim.ErrUnknownWorkload or
// spec.ErrInvalid). Jobs are deduplicated under the run's fingerprint,
// which for a spec run canonicalizes the spec so spelled-out defaults hit
// the same cache entry. A refused submission never becomes a visible job.
//
// Two identical submissions racing before either completes both simulate;
// the store's atomic Put makes the duplicate write harmless. Deduplication
// is an at-most-once-after-completion guarantee, not an in-flight one.
func (s *Server) Submit(run sim.Job, opts ...SubmitOption) (*Job, error) {
	var o submitOptions
	for _, opt := range opts {
		opt(&o)
	}
	if err := run.Validate(); err != nil {
		return nil, err
	}
	fp, _ := run.Fingerprint() // Validate rejects what cannot fingerprint
	run.Cfg.Tracer = nil       // the run stage installs its own sinks

	tenant := o.tenant
	if tenant == "" {
		tenant = defaultTenant
	}
	if err := s.sched.validateTenant(tenant); err != nil {
		return nil, err
	}

	traceID := o.traceID
	if traceID == "" {
		traceID = obs.NewTraceID()
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrShuttingDown
	}
	s.nextID++
	id := s.nextID
	s.mu.Unlock()
	job := &Job{
		id:          fmt.Sprintf("job-%06d", id),
		fp:          fp,
		run:         run,
		tenant:      tenant,
		priority:    o.priority,
		sweepID:     o.sweepID,
		traceID:     traceID,
		rootSpan:    obs.NewSpanID(),
		parentSpan:  o.parentSpan,
		state:       StateQueued,
		submittedAt: time.Now(),
		done:        make(chan struct{}),
	}
	if o.trace {
		job.trace = &obs.Collector{Limit: defaultTraceLimit}
	}
	if o.series {
		job.series = &series.Recorder{Limit: defaultSeriesLimit}
	}
	s.m.submitted.Add(1)
	s.log.Info("job submitted", "job", job.id, "fingerprint", shortFP(fp),
		"workload", run.Workload(), "prefetcher", run.Cfg.Prefetcher, "trace", o.trace, "series", o.series)

	if res, ok := s.memo.Get(fp); ok {
		s.m.cacheHits.Add(1)
		a := attempt{outcome: store.OutcomeCacheHit, res: &res, leaseGen: -1}
		if s.cfg.Store != nil {
			if o.trace {
				a.trace, _ = s.cfg.Store.GetTrace(fp)
			}
			if o.series {
				a.series, _ = s.cfg.Store.GetSeries(fp)
			}
		}
		s.finish(job, &a)
	} else {
		s.m.cacheMisses.Add(1)
		// Sweep jobs bypass the queued quotas: the sweep was admitted whole
		// at expansion and fairness, not admission, spreads its load.
		if err := s.sched.push(job, o.sweepID != ""); err != nil {
			if errors.Is(err, ErrQueueFull) {
				s.m.rejected.Add(1)
			}
			return nil, err
		}
	}
	s.mu.Lock()
	s.jobs[job.id] = job
	s.mu.Unlock()
	return job, nil
}

// shortFP abbreviates a fingerprint for log lines (the full 64 hex chars
// drown the rest of the record; 12 is plenty to correlate).
func shortFP(fp string) string {
	if len(fp) > 12 {
		return fp[:12]
	}
	return fp
}

// Cancel stops a job: a queued job is finished in place, a running one
// is cancelled at the next FDP interval boundary (its partial result is
// preserved when the worker finishes it). Cancelling a terminal job is a
// no-op. Returns ErrUnknownJob for an ID that was never issued.
func (s *Server) Cancel(id string) (*Job, error) {
	job, ok := s.Job(id)
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownJob, id)
	}
	job.mu.Lock()
	state := job.state
	switch state {
	case StateQueued:
		job.state = StateCancelled // the worker now skips it
	case StateRunning:
		// The worker observes the cause via the run's CancelError and
		// finishes the job with its partial result.
		job.cancel(errors.New("cancelled by client"))
	}
	job.mu.Unlock()
	if state == StateQueued {
		s.finish(job, &attempt{outcome: store.OutcomeCancelled, errMsg: "cancelled before start", leaseGen: -1})
	}
	s.log.Info("job cancel requested", "job", job.id, "state", string(state))
	return job, nil
}

// QueueDepth returns the configured queue bound.
func (s *Server) QueueDepth() int { return s.cfg.QueueDepth }

// worker pops from the fair scheduler until Shutdown closes it. The pop
// holds a running slot on the job's tenant; release returns it whatever
// runJob decides (including skipping an already-cancelled job).
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		job, ok := s.sched.pop()
		if !ok {
			return
		}
		s.runJob(job)
		s.sched.release(job.tenant)
	}
}

// attempt is one job's path through the stages. Each stage records its
// own span and leaves here what finish reports in the root span, the
// ledger line and the job's terminal state. It lives on the stack of the
// path that finishes the job.
type attempt struct {
	outcome          string        // store.Outcome*: the ledger vocabulary
	res              *sim.Result   // nil for failed and never-started jobs
	errMsg           string        // why the job failed or was cancelled
	wait, run, store time.Duration // the queue, run and store stages
	leaseGen         int           // the fleet lease this worker holds; -1 for none
	stolen           bool          // the lease was stolen from an expired holder
	trace, series    []byte        // the rendered decision trace and series sidecar
}

// runJob takes one queued job through its stages — start, claim, run,
// store — to finish.
func (s *Server) runJob(job *Job) {
	a := attempt{leaseGen: -1}
	ctx, stop := s.start(job, &a)
	if ctx == nil {
		return
	}
	defer stop()
	if !s.claim(ctx, job, &a) {
		if a.leaseGen >= 0 {
			// Released on every exit, so a failed run frees the fingerprint.
			defer s.cfg.Store.Release(job.fp, s.cfg.FleetWorker)
		}
		s.run(ctx, job, &a)
		s.store(job, &a)
	}
	s.finish(job, &a)
}

// start moves a queued job to running and records its queue span. It
// returns the run's context, ended by Cancel, Shutdown or the job
// timeout, and the function that releases it. A nil context means the
// job never starts: Cancel finished it while it waited, or the shutdown
// reached it first, which start finishes as cancelled.
func (s *Server) start(job *Job, a *attempt) (context.Context, func()) {
	job.mu.Lock()
	switch {
	case job.state != StateQueued:
		job.mu.Unlock()
		return nil, nil
	case s.baseCtx.Err() != nil:
		job.state = StateCancelled
		job.mu.Unlock()
		a.outcome, a.errMsg = store.OutcomeCancelled, "server shutting down"
		s.finish(job, a)
		return nil, nil
	}
	job.state = StateRunning
	job.startedAt = time.Now()
	a.wait = job.startedAt.Sub(job.submittedAt)
	ctx, cancel := context.WithCancelCause(s.baseCtx)
	job.cancel = cancel
	job.mu.Unlock()

	s.m.queueWait.observe(a.wait.Seconds())
	s.m.observeTenantWait(job.tenant, a.wait.Seconds())
	s.m.running.Add(1)
	s.log.Info("job started", "job", job.id, "queue_wait", a.wait)
	s.addSpan(job, obs.Span{Parent: job.rootSpan, Name: "queue",
		Start: job.submittedAt, End: job.startedAt,
		Attrs: map[string]string{"tenant": job.tenant}})

	stopTimer := context.CancelFunc(func() {})
	if s.cfg.JobTimeout > 0 {
		ctx, stopTimer = context.WithTimeout(ctx, s.cfg.JobTimeout)
	}
	return ctx, func() {
		stopTimer()
		cancel(nil)
		s.m.running.Add(-1)
	}
}

// claim negotiates the job's fingerprint with the rest of a worker fleet
// and records the claim span; outside a fleet it does nothing. Another
// worker may already have the result (claim adopts it and reports true,
// leaving the job only to finish), hold a live lease (claim waits with
// backoff and steals it past expiry), or have crashed mid-write (the
// claim machinery recovers). Otherwise this worker runs the job, holding
// the lease it won or none when the bounded retries run out or ctx ends:
// execution is at-least-once, results exactly-once through the store's
// atomic Put.
func (s *Server) claim(ctx context.Context, job *Job, a *attempt) (adopted bool) {
	if s.cfg.FleetWorker == "" {
		return false
	}
	sp := obs.Span{Parent: job.rootSpan, Name: "claim", Start: time.Now(),
		Attrs: map[string]string{"worker": s.cfg.FleetWorker, "outcome": "local_fallback"}}
	defer func() {
		sp.End = time.Now()
		s.addSpan(job, sp)
	}()
	st := s.cfg.Store
	backoff := 25 * time.Millisecond
	for range s.cfg.ClaimAttempts {
		state, cur, err := st.ClaimTrace(job.fp, s.cfg.FleetWorker, s.cfg.LeaseTTL, job.traceID)
		if err != nil {
			s.log.Warn("fleet claim error; executing locally", "job", job.id, "error", err)
			return false
		}
		switch state {
		case store.ClaimDone:
			res, ok := s.memo.Get(job.fp)
			if !ok {
				// The result was discarded as corrupt between Claim and
				// Get; recover by executing locally.
				return false
			}
			sp.Attrs["outcome"] = "adopted"
			if cur.Trace != "" {
				sp.Attrs["executor_trace"] = cur.Trace
			}
			s.m.fleetAdopted.Add(1)
			a.outcome, a.res = store.OutcomeAdopted, &res
			return true
		case store.ClaimAcquired:
			s.m.claimsAcquired.Add(1)
			a.leaseGen, a.stolen = cur.Gen(), cur.Stolen
			sp.Attrs["outcome"] = "acquired"
			sp.Attrs["lease_gen"] = strconv.Itoa(a.leaseGen)
			if cur.Stolen {
				s.m.claimsStolen.Add(1)
				sp.Attrs["stolen"] = "true"
				sp.Events = append(sp.Events, obs.SpanEvent{Name: "lease-steal", Time: time.Now(),
					Attrs: map[string]string{"lease_gen": sp.Attrs["lease_gen"]}})
				s.log.Info("fleet claim stolen from expired lease", "job", job.id,
					"fingerprint", shortFP(job.fp))
			}
			return false
		case store.ClaimHeld:
			s.m.claimsWaited.Add(1)
			wait := backoff
			// Never sleep far past the holder's lease: the moment it
			// expires this worker is eligible to steal.
			if until := time.Until(cur.Expires); until > 0 && until+5*time.Millisecond < wait {
				wait = until + 5*time.Millisecond
			}
			sp.Events = append(sp.Events, obs.SpanEvent{Name: "claim-wait", Time: time.Now(),
				Attrs: map[string]string{"holder": cur.Owner, "wait": wait.String()}})
			select {
			case <-ctx.Done():
				return false
			case <-time.After(wait):
			}
			if backoff < 2*time.Second {
				backoff *= 2
			}
		}
	}
	s.log.Warn("fleet claim attempts exhausted; executing locally",
		"job", job.id, "fingerprint", shortFP(job.fp), "attempts", s.cfg.ClaimAttempts)
	return false
}

// run executes the job under the sinks its submission asked for and
// records the run span, then renders the decision trace and the series
// sidecar, so both are complete the moment Done closes. A cancelled run
// keeps its partial artifacts, which match its partial result.
func (s *Server) run(ctx context.Context, job *Job, a *attempt) {
	// The tracer delivers each interval to the synchronous sinks the
	// submission asked for (decision-trace collector, series recorder),
	// then to the job's own sink; obs.Tee collapses the common one-sink
	// case to no wrapper at all.
	sink := &jobSink{s: s, job: job, renew: a.leaseGen >= 0, lastRenew: time.Now()}
	var sinks []sim.Tracer
	if job.trace != nil {
		sinks = append(sinks, job.trace)
	}
	if job.series != nil {
		sinks = append(sinks, job.series)
	}
	run := job.run
	run.Cfg.Tracer = obs.Tee(append(sinks, sink)...)
	s.m.executions.Add(1)
	start := time.Now()
	res, err := run.Run(ctx)
	a.run = time.Since(start)
	s.m.simCycles.Add(res.Counters.Cycles)
	s.m.simNanos.Add(uint64(res.Elapsed.Nanoseconds()))
	switch {
	case err == nil:
		a.outcome, a.res = store.OutcomeExecuted, &res
	case errors.Is(err, sim.ErrCancelled):
		a.outcome, a.res, a.errMsg = store.OutcomeCancelled, &res, err.Error()
	default:
		a.outcome, a.errMsg = store.OutcomeFailed, err.Error()
	}

	sp := obs.Span{Parent: job.rootSpan, Name: "run",
		Start: start, End: start.Add(a.run), Events: sink.events,
		Attrs: map[string]string{
			"workload":  run.Workload(),
			"intervals": strconv.FormatUint(res.Intervals, 10),
		}}
	if job.trace != nil {
		// Link the fabric span to the in-run DecisionEvent stream it wraps.
		sp.Attrs["decision_events"] = strconv.Itoa(len(job.trace.Events()))
	}
	s.addSpan(job, sp)

	if job.trace != nil {
		events := job.trace.Events()
		var buf bytes.Buffer
		if werr := obs.WriteJSONL(&buf, events); werr == nil {
			a.trace = buf.Bytes()
		}
		s.m.traces.Add(1)
		s.m.traceEvents.Add(uint64(len(events)))
		s.m.traceTruncated.Add(job.trace.Truncated())
		if truncated := job.trace.Truncated(); truncated > 0 {
			s.log.Warn("decision trace truncated", "job", job.id,
				"kept", len(events), "truncated", truncated)
		}
	}
	if job.series != nil {
		sr := job.series.Series()
		sr.Meta.Workload = run.Workload()
		sr.Meta.Prefetcher = string(run.Cfg.Prefetcher)
		if doc, serr := series.Encode(sr); serr == nil {
			a.series = doc
			s.m.seriesPoints.Add(uint64(sr.Len() * len(sr.Meta.Metrics)))
			s.m.seriesBytes.Add(uint64(len(doc)))
		}
		if truncated := job.series.Truncated(); truncated > 0 {
			s.log.Warn("interval series truncated", "job", job.id,
				"kept", job.series.Len(), "truncated", truncated)
		}
	}
}

// store writes a full run's sidecars and then its result under one store
// span — sidecars first, so whoever finds the result finds them too, and
// all before finish, so a client that sees "done" and resubmits at once
// gets the cache hit. Cancelled and failed runs store nothing.
func (s *Server) store(job *Job, a *attempt) {
	if a.outcome != store.OutcomeExecuted {
		return
	}
	start := time.Now()
	// Best-effort: a full disk or a lost sidecar costs future cache hits,
	// not this job.
	if st := s.cfg.Store; st != nil {
		if a.trace != nil {
			_ = st.PutTrace(job.fp, a.trace)
		}
		if a.series != nil {
			_ = st.PutSeries(job.fp, a.series)
		}
	}
	_ = s.memo.Put(job.fp, *a.res)
	a.store = time.Since(start)
	s.addSpan(job, obs.Span{Parent: job.rootSpan, Name: "store",
		Start: start, End: start.Add(a.store)})
}

// finish ends every terminal path a client can see — a cache hit, an
// adoption, an executed, failed or cancelled run, and a job cancelled or
// shut down before it started. It counts the outcome and records the
// root "job" span and the ledger line before the terminal state closes
// Done, so a reader woken by Done sees both. It runs without job.mu
// held, because addSpan takes it.
func (s *Server) finish(job *Job, a *attempt) {
	state := StateDone
	switch a.outcome {
	case store.OutcomeFailed:
		state = StateFailed
		s.m.failed.Add(1)
	case store.OutcomeCancelled:
		state = StateCancelled
		s.m.cancelled.Add(1)
	default:
		s.m.completed.Add(1)
	}
	finished := time.Now()
	s.addSpan(job, obs.Span{SpanID: job.rootSpan, Parent: job.parentSpan,
		Name: "job", Start: job.submittedAt, End: finished,
		Attrs: map[string]string{"outcome": a.outcome, "tenant": job.tenant}})
	s.writeProvenance(job, a, finished)
	job.mu.Lock()
	job.state = state // a never-started job already reads cancelled
	job.cacheHit = a.outcome == store.OutcomeCacheHit || a.outcome == store.OutcomeAdopted
	job.result, job.errMsg, job.finishedAt = a.res, a.errMsg, finished
	job.traceJSONL, job.seriesBin = a.trace, a.series
	close(job.done)
	job.mu.Unlock()
	// Attrs, not key-value pairs: boxing the strings would cost the
	// cache-hit path an allocation each.
	id, outcome := slog.String("job", job.id), slog.String("outcome", a.outcome)
	wall := slog.Duration("wall", finished.Sub(job.submittedAt))
	if a.errMsg != "" {
		s.log.LogAttrs(context.Background(), slog.LevelWarn, "job finished", id, outcome, wall,
			slog.String("error", a.errMsg))
		return
	}
	s.log.LogAttrs(context.Background(), slog.LevelInfo, "job finished", id, outcome, wall)
}

// Executions returns how many simulations this server actually ran
// (excluding cache hits and fleet-adopted results) — the fleet e2e's
// exactly-once bookkeeping.
func (s *Server) Executions() uint64 { return s.m.executions.Load() }

// Tenants exports the scheduler's per-tenant state.
func (s *Server) Tenants() []TenantSnapshot { return s.sched.snapshot() }

// SetTenant registers or reconfigures a scheduler tenant at runtime.
func (s *Server) SetTenant(name string, cfg TenantConfig) { s.sched.register(name, cfg) }

// dccDistribution samples, for the metrics endpoint, how many currently
// running jobs sit at each Dynamic Configuration Counter level (1..5,
// from their latest interval event), grouped by the job's decision
// policy. Inner index 0 is unused.
func (s *Server) dccDistribution() map[string][6]int {
	dist := make(map[string][6]int)
	for _, job := range s.Jobs() {
		job.mu.Lock()
		running := job.state == StateRunning
		job.mu.Unlock()
		if ev := job.progress.latest(); running && ev.DCCAfter >= 1 && ev.DCCAfter <= 5 {
			d := dist[ev.Controller]
			d[ev.DCCAfter]++
			dist[ev.Controller] = d
		}
	}
	return dist
}

// jobSink is a running job's own interval sink, teed after the trace
// collector and series recorder. It feeds the interval metrics, retains
// and fans out each event for SSE subscribers and the dcc gauge, and
// keeps a fleet worker's claim alive. It runs synchronously on the
// simulation goroutine, so its fields need no lock.
type jobSink struct {
	s   *Server
	job *Job
	// renew is set when the job holds a fleet claim; lastRenew is when the
	// lease was last extended.
	renew     bool
	lastRenew time.Time
	// events are the run span's lease renewals and losses.
	events []obs.SpanEvent
}

// TraceDecision implements sim.Tracer. Lease renewal piggybacks on the
// interval stream so a live simulation never loses its claim; a renewal
// that fails (lease stolen after a long stall) is logged but the run
// continues — the store's atomic Put keeps duplicate execution harmless.
func (k *jobSink) TraceDecision(ev sim.DecisionEvent) {
	s := k.s
	s.m.observeInterval(&ev)
	k.job.progress.publish(ev)
	if !k.renew || time.Since(k.lastRenew) < s.cfg.LeaseTTL/3 {
		return
	}
	k.lastRenew = time.Now()
	if s.cfg.Store.Renew(k.job.fp, s.cfg.FleetWorker, s.cfg.LeaseTTL) {
		k.events = append(k.events, obs.SpanEvent{Name: "lease-renew", Time: time.Now()})
		return
	}
	s.m.leaseLost.Add(1)
	k.events = append(k.events, obs.SpanEvent{Name: "lease-lost", Time: time.Now()})
	s.log.Warn("fleet lease lost mid-run", "job", k.job.id, "fingerprint", shortFP(k.job.fp))
}

// Shutdown stops intake (submissions fail with ErrShuttingDown), cancels
// queued and in-flight jobs — running simulations stop at their next FDP
// interval boundary and keep their partial results — and waits for the
// worker pool to drain, up to ctx's deadline.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		s.sched.close()
	}
	s.mu.Unlock()
	s.log.Info("shutdown: draining worker pool", "running", s.m.running.Load())
	s.baseCancel(ErrShuttingDown)

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
