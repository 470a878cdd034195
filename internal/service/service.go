// Package service is the simulation job service: a bounded worker pool
// with a FIFO queue behind an HTTP JSON API (see http.go), turning the
// one-shot simulator into a shared daemon that sweeps of prefetcher
// configurations — Puppeteer-style managers, POWER7-style reconfiguration
// studies — can drive concurrently.
//
// Jobs are deduplicated by their configuration fingerprint
// (sim.Fingerprint): the result memo is the content-addressed on-disk
// store (internal/store) when there is one, so an identical submission —
// even across daemon restarts — completes immediately as a cache hit,
// with the interval stream it asks for, without re-simulating.
//
// Lifecycle: Submit validates and either answers from cache, enqueues, or
// reports backpressure (ErrQueueFull → HTTP 429). Cancel stops a queued
// job in place or cancels a running one at the next FDP interval boundary
// (PR 1's retire-boundary drain), preserving the partial result. Shutdown
// stops intake, cancels in-flight runs the same way, and waits for the
// workers to drain.
package service

import (
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
	// identical submissions across restarts; it is then the result memo,
	// which is otherwise an in-memory map.
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

	// wantSeries is set when the job was submitted for its interval
	// stream (Submission.Series); a cached answer must carry it.
	// seriesBin is the encoded stream, the one sidecar, from which the
	// decision trace and the series are rendered; it is set when the job
	// reaches a terminal state.
	wantSeries bool
	seriesBin  []byte

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

// SeriesData returns the job's encoded interval stream (internal/series
// binary document), from which its decision trace and series are
// rendered. ok is false when the job was submitted with neither a trace
// nor a series, or has not run: it is not terminal yet, or it was
// cancelled before it started.
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
	// Trace and Series both report the job's interval stream: its
	// decision trace is downloadable at GET /v1/jobs/{id}/trace and its
	// series queryable at GET /v1/jobs/{id}/series.
	Trace  bool `json:"trace,omitempty"`
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
		Trace:       j.seriesBin != nil,
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
}

// defaultSeriesLimit caps the decision events recorded per job (about
// 25 MB of events in memory during the run); later boundaries are
// counted as truncated in the sidecar's Meta.
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

// Submission is how one run is submitted: whether it records its
// interval stream, where it queues and which fabric trace it joins. The
// zero value records no stream and queues on the default tenant at
// priority 0 under a fresh trace.
type Submission struct {
	// Series makes the job record its interval stream (one DecisionEvent
	// per FDP sampling interval, at most defaultSeriesLimit). Once the job
	// is terminal the stream is downloadable as a decision trace at
	// GET /v1/jobs/{id}/trace, queryable as a series at
	// GET /v1/jobs/{id}/series and diffable at GET /v1/diff.
	Series bool
	// Tenant attributes the job to a scheduler tenant for fair queueing
	// and quotas; empty means the default tenant. Under a strict roster,
	// an unknown tenant fails the submission with sweep.ErrUnknownTenant.
	Tenant string
	// Priority orders the job against the tenant's other queued work;
	// higher runs sooner. It is within-tenant only: it never lets one
	// tenant jump another's share.
	Priority int
	// TraceID joins the job to an existing fabric trace (from the
	// X-Fdp-Trace submission header, or a sweep's expansion) under
	// ParentSpan; empty starts a fresh trace.
	TraceID    string
	ParentSpan string

	// sweepID links the job to the sweep that expanded it; sweep jobs
	// bypass queued quotas (sweep admission is bounded at expansion by
	// sweep.MaxJobs).
	sweepID string
}

// Submit validates a run and either completes it from cache, enqueues it,
// or rejects it (ErrQueueFull, ErrShuttingDown, or a validation error
// wrapping sim.ErrInvalidConfig, sim.ErrUnknownWorkload or
// spec.ErrInvalid). Jobs are deduplicated under the run's fingerprint,
// which for a spec run canonicalizes the spec so spelled-out defaults hit
// the same cache entry, and a cached answer lacking a requested sidecar is
// a miss. A refused submission never becomes a visible job.
//
// Two identical submissions racing before either completes both simulate;
// the store's atomic Put makes the duplicate write harmless. Deduplication
// is an at-most-once-after-completion guarantee, not an in-flight one.
func (s *Server) Submit(run sim.Job, sub Submission) (*Job, error) {
	if err := run.Validate(); err != nil {
		return nil, err
	}
	fp, _ := run.Fingerprint() // Validate rejects what cannot fingerprint
	run.Cfg.Tracer = nil       // the run stage installs its own sinks

	tenant := sub.Tenant
	if tenant == "" {
		tenant = defaultTenant
	}
	if err := s.sched.validateTenant(tenant); err != nil {
		return nil, err
	}

	traceID := sub.TraceID
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
		priority:    sub.Priority,
		sweepID:     sub.sweepID,
		traceID:     traceID,
		rootSpan:    obs.NewSpanID(),
		parentSpan:  sub.ParentSpan,
		state:       StateQueued,
		submittedAt: time.Now(),
		done:        make(chan struct{}),
		wantSeries:  sub.Series,
	}
	s.m.submitted.Add(1)
	s.log.Info("job submitted", "job", job.id, "fingerprint", shortFP(fp),
		"workload", run.Workload(), "prefetcher", run.Cfg.Prefetcher, "series", sub.Series)

	a := attempt{outcome: store.OutcomeCacheHit, leaseGen: -1}
	if s.cached(job, &a) {
		s.m.cacheHits.Add(1)
		s.finish(job, &a)
	} else {
		s.m.cacheMisses.Add(1)
		// Sweep jobs bypass the queued quotas: the sweep was admitted whole
		// at expansion and fairness, not admission, spreads its load.
		if err := s.sched.push(job, sub.sweepID != ""); err != nil {
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
	series           []byte        // the encoded interval stream
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

// claimAttempts bounds a fleet worker's tries for a claim before it runs
// the job without one: execution is at-least-once, results exactly-once
// through the store's atomic Put.
const claimAttempts = 32

// claim negotiates the job's fingerprint with the rest of a worker fleet
// and records the claim span; outside a fleet it does nothing. Before
// each try for the claim, and once more after winning it (Put precedes
// Release, so a holder that finished in between left its result), cached
// decides whether the fingerprint is answered; on a hit claim adopts the
// result and reports true, leaving the job only to finish. A live holder
// is waited on with backoff, and its claim stolen past its lease.
// Otherwise this worker runs the job, holding the lease it won, or none
// when the bounded tries run out or ctx ends.
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
	executor := "" // the trace of the last live holder waited on
	for tries := 0; !s.cached(job, a); tries++ {
		if tries == claimAttempts {
			s.log.Warn("fleet claim attempts exhausted; executing locally",
				"job", job.id, "fingerprint", shortFP(job.fp), "attempts", claimAttempts)
			return false
		}
		acquired, cur, err := st.Claim(job.fp, s.cfg.FleetWorker, s.cfg.LeaseTTL, job.traceID)
		if err != nil {
			s.log.Warn("fleet claim error; executing locally", "job", job.id, "error", err)
			return false
		}
		if acquired && s.cached(job, a) {
			st.Release(job.fp, s.cfg.FleetWorker)
			break
		}
		if acquired {
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
		}
		s.m.claimsWaited.Add(1)
		executor = cur.Trace
		wait := backoff
		// Never sleep far past the holder's lease: the moment it expires
		// this worker is eligible to steal.
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
	sp.Attrs["outcome"] = "adopted"
	if executor != "" {
		sp.Attrs["executor_trace"] = executor
	}
	s.m.fleetAdopted.Add(1)
	a.outcome = store.OutcomeAdopted
	return true
}

// cached decides whether the job is answered, the one place that does,
// for a submit and a fleet adoption alike: the memo's Result and, from
// the store, the interval stream when the job asked for it. A missing
// piece is a miss, as is a stream on a storeless server. It fills a only
// on a hit.
func (s *Server) cached(job *Job, a *attempt) bool {
	res, ok := s.memo.Get(job.fp)
	st := s.cfg.Store
	if !ok || st == nil && job.wantSeries {
		return false
	}
	var doc []byte
	if job.wantSeries {
		doc, ok = st.GetSeries(job.fp)
	}
	if ok {
		a.res, a.series = &res, doc
	}
	return ok
}

// run executes the job under its sinks and records the run span, then
// encodes the interval stream, so it is complete the moment Done closes.
// A cancelled run keeps its partial stream, which matches its partial
// result.
func (s *Server) run(ctx context.Context, job *Job, a *attempt) {
	// The recorder, when the submission asked for the stream, sees each
	// interval before the job's own sink. A nil *series.Recorder in a Tee
	// is a non-nil sim.Tracer, so the tracer is built only with one.
	sink := &jobSink{s: s, job: job, renew: a.leaseGen >= 0, lastRenew: time.Now()}
	run := job.run
	run.Cfg.Tracer = sink
	var rec *series.Recorder
	if job.wantSeries {
		rec = &series.Recorder{Limit: defaultSeriesLimit}
		run.Cfg.Tracer = obs.Tee(rec, sink)
	}
	s.m.executions.Add(1)
	start := time.Now()
	res, err := run.Run(ctx)
	a.run = time.Since(start)
	s.m.simCycles.Add(res.Counters.Cycles)
	s.m.simNanos.Add(uint64(a.run.Nanoseconds()))
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
	if rec != nil {
		// Link the fabric span to the in-run DecisionEvent stream it wraps.
		sp.Attrs["decision_events"] = strconv.Itoa(rec.Len())
	}
	s.addSpan(job, sp)

	if rec == nil {
		return
	}
	sr := rec.Series()
	sr.Meta.Workload = run.Workload()
	sr.Meta.Prefetcher = string(run.Cfg.Prefetcher)
	if doc, serr := series.Encode(sr); serr == nil {
		a.series = doc
		s.m.traces.Add(1)
		s.m.traceEvents.Add(uint64(sr.Len()))
		s.m.seriesBytes.Add(uint64(len(doc)))
	}
	if truncated := rec.Truncated(); truncated > 0 {
		s.m.traceTruncated.Add(truncated)
		s.log.Warn("interval stream truncated", "job", job.id,
			"kept", sr.Len(), "truncated", truncated)
	}
}

// store writes a full run's sidecar and then its result under one store
// span — the sidecar first, so whoever finds the result finds it too, and
// both before finish, so a client that sees "done" and resubmits at once
// gets the cache hit. Cancelled and failed runs store nothing.
func (s *Server) store(job *Job, a *attempt) {
	if a.outcome != store.OutcomeExecuted {
		return
	}
	start := time.Now()
	// Best-effort: a full disk or a lost sidecar costs a later job a re-run,
	// not this job its answer.
	if st := s.cfg.Store; st != nil && a.series != nil {
		_ = st.PutSeries(job.fp, a.series)
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
	job.seriesBin = a.series
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

// jobSink is a running job's own interval sink, teed after the series
// recorder. It feeds the interval metrics, retains
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
