package service

import (
	"fmt"
	"strconv"
	"sync"
	"time"

	"fdpsim/internal/harness"
	"fdpsim/internal/obs"
	"fdpsim/internal/sweep"
)

// Sweep is one admitted parameter grid: the expanded units plus the jobs
// executing them. Units with the same fingerprint share one job, so a
// sweep over overlapping axes costs one simulation per distinct
// configuration, not one per cell.
type Sweep struct {
	id      string
	name    string
	tenant  string
	created time.Time

	// traceID threads every job the sweep expands (and, via claim files,
	// every fleet worker that touches them) into one fabric trace;
	// rootSpan is the sweep's own span, the parent of each job span, and
	// parentSpan links it under a submitter's span (X-Fdp-Trace header).
	traceID    string
	rootSpan   string
	parentSpan string

	units []sweep.Unit

	mu         sync.Mutex
	jobs       []*Job // parallel to units; shared jobs repeat
	distinct   []*Job // each job once, in order of first appearance
	state      string // running, done, cancelled
	finishedAt time.Time
	done       chan struct{}

	// events carries the aggregate SSE frames, one per finished job.
	events feed[SweepEvent]
}

// ID returns the sweep's identifier.
func (sw *Sweep) ID() string { return sw.id }

// TraceID returns the fabric trace threading the sweep's jobs.
func (sw *Sweep) TraceID() string { return sw.traceID }

// Done returns a channel closed when every cell is terminal.
func (sw *Sweep) Done() <-chan struct{} { return sw.done }

// SweepEvent is one frame of a sweep's aggregate SSE feed.
type SweepEvent struct {
	ID             string        `json:"id"`
	State          string        `json:"state"`
	Summary        sweep.Summary `json:"summary"`
	ElapsedSeconds float64       `json:"elapsed_seconds"`
	// ETASeconds extrapolates the remaining cells from the completed
	// ones' pace; 0 until the first cell completes or once terminal.
	ETASeconds float64 `json:"eta_seconds,omitempty"`
}

// SweepStatus is the JSON shape of a sweep.
type SweepStatus struct {
	ID         string        `json:"id"`
	Name       string        `json:"name,omitempty"`
	Tenant     string        `json:"tenant"`
	State      string        `json:"state"`
	CreatedAt  time.Time     `json:"created_at"`
	FinishedAt *time.Time    `json:"finished_at,omitempty"`
	Cells      int           `json:"cells"`
	Jobs       int           `json:"jobs"` // distinct simulations
	Summary    sweep.Summary `json:"summary"`
	ETASeconds float64       `json:"eta_seconds,omitempty"`
}

// SubmitSweep expands, validates and admits a sweep: every distinct
// fingerprint in the grid becomes one job on the sweep's tenant (bypassing
// queued quotas — the grid is bounded by sweep.MaxJobs at expansion).
// Expansion failures wrap sweep.ErrInvalid (HTTP 400, exit code 2).
func (s *Server) SubmitSweep(req sweep.Request) (*Sweep, error) {
	return s.SubmitSweepTrace(req, "", "")
}

// SubmitSweepTrace is SubmitSweep joining an existing fabric trace (from
// the X-Fdp-Trace submission header). Empty traceID starts a fresh one.
func (s *Server) SubmitSweepTrace(req sweep.Request, traceID, parentSpan string) (*Sweep, error) {
	units, err := req.Expand()
	if err != nil {
		return nil, err
	}
	tenant := req.Tenant
	if tenant == "" {
		tenant = defaultTenant
	}
	if err := s.sched.validateTenant(tenant); err != nil {
		return nil, err
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrShuttingDown
	}
	if traceID == "" {
		traceID = obs.NewTraceID()
	}
	s.nextSweep++
	sw := &Sweep{
		id:       fmt.Sprintf("sweep-%04d", s.nextSweep),
		name:     req.Name,
		tenant:   tenant,
		created:  time.Now(),
		traceID:  traceID,
		rootSpan: obs.NewSpanID(),
		units:    units,
		state:    "running",
		done:     make(chan struct{}),
	}
	sw.parentSpan = parentSpan
	s.sweeps[sw.id] = sw
	s.mu.Unlock()

	byFP := make(map[string]*Job, len(units))
	jobs := make([]*Job, len(units))
	var distinct []*Job
	for i, u := range units {
		fp, _ := u.Fingerprint()
		if j, ok := byFP[fp]; ok {
			jobs[i] = j
			continue
		}
		opts := []SubmitOption{WithTenant(tenant), WithPriority(req.Priority), forSweep(sw.id),
			WithTraceContext(sw.traceID, sw.rootSpan)}
		if req.Series {
			opts = append(opts, WithSeriesRecording())
		}
		j, err := s.Submit(u.Job, opts...)
		if err != nil {
			// Unreachable except for a shutdown racing the admission:
			// validation happened at Expand and sweep jobs bypass quotas.
			// Leave already-submitted jobs to the shutdown drain and hand
			// back a partially-submitted, cancelled sweep.
			sw.mu.Lock()
			sw.jobs, sw.distinct = jobs[:i], distinct
			sw.finishLocked("cancelled")
			sw.mu.Unlock()
			return nil, err
		}
		byFP[fp] = j
		jobs[i] = j
		distinct = append(distinct, j)
	}
	sw.mu.Lock()
	sw.jobs, sw.distinct = jobs, distinct
	sw.mu.Unlock()

	s.m.sweepsSubmitted.Add(1)
	s.m.sweepCells.Add(uint64(len(units)))
	s.log.Info("sweep submitted", "sweep", sw.id, "name", req.Name, "tenant", tenant,
		"cells", len(units), "jobs", len(distinct))

	for _, j := range distinct {
		go func(j *Job) {
			<-j.Done()
			s.sweepTick(sw)
		}(j)
	}
	if len(distinct) == 0 {
		s.sweepTick(sw)
	}
	return sw, nil
}

// Sweep looks up a sweep by ID.
func (s *Server) Sweep(id string) (*Sweep, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sw, ok := s.sweeps[id]
	return sw, ok
}

// Sweeps returns every sweep (callers sort by CreatedAt).
func (s *Server) Sweeps() []*Sweep {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Sweep, 0, len(s.sweeps))
	for _, sw := range s.sweeps {
		out = append(out, sw)
	}
	return out
}

// activeSweeps counts sweeps not yet terminal, for the metrics gauge.
func (s *Server) activeSweeps() int {
	n := 0
	for _, sw := range s.Sweeps() {
		sw.mu.Lock()
		if sw.state == "running" {
			n++
		}
		sw.mu.Unlock()
	}
	return n
}

// CancelSweep cancels every non-terminal job the sweep owns. Cells
// already done keep their results; the merged table renders the rest
// as "x".
func (s *Server) CancelSweep(id string) (*Sweep, error) {
	sw, ok := s.Sweep(id)
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownJob, id)
	}
	sw.mu.Lock()
	jobs := sw.distinct
	sw.mu.Unlock()
	for _, j := range jobs {
		_, _ = s.Cancel(j.id)
	}
	s.log.Info("sweep cancel requested", "sweep", sw.id)
	return sw, nil
}

// Cells snapshots the sweep's grid for aggregation and rendering.
func (sw *Sweep) Cells() []sweep.Cell {
	sw.mu.Lock()
	jobs := sw.jobs
	sw.mu.Unlock()
	cells := make([]sweep.Cell, len(sw.units))
	for i, u := range sw.units {
		c := sweep.Cell{Workload: u.Workload, Config: u.Config, Seed: u.Seed, State: string(StateQueued)}
		if i < len(jobs) && jobs[i] != nil {
			st := jobs[i].Status()
			c.JobID = st.ID
			c.Fingerprint = st.Fingerprint
			c.State = string(st.State)
			c.CacheHit = st.CacheHit
			c.Error = st.Error
			if st.State == StateDone && st.Result != nil {
				c.IPC = st.Result.IPC
				c.BPKI = st.Result.BPKI
				if st.Result.Attribution != nil {
					c.BusUtil = st.Result.Attribution.BusUtilization()
				}
			}
		}
		cells[i] = c
	}
	return cells
}

// Tables renders the sweep's merged results the way the harness renders
// an experiment grid.
func (sw *Sweep) Tables() []harness.Table {
	title := sw.name
	if title == "" {
		title = sw.id
	}
	return sweep.Tables(title, sw.Cells())
}

// Status snapshots the sweep for serialization.
func (sw *Sweep) Status() SweepStatus {
	cells := sw.Cells()
	sum := sweep.Summarize(cells)
	sw.mu.Lock()
	defer sw.mu.Unlock()
	st := SweepStatus{
		ID:        sw.id,
		Name:      sw.name,
		Tenant:    sw.tenant,
		State:     sw.state,
		CreatedAt: sw.created,
		Cells:     len(cells),
		Jobs:      len(sw.distinct),
		Summary:   sum,
	}
	if !sw.finishedAt.IsZero() {
		t := sw.finishedAt
		st.FinishedAt = &t
	}
	if sw.state == "running" {
		st.ETASeconds = etaSeconds(sum, time.Since(sw.created))
	}
	return st
}

// etaSeconds extrapolates remaining work from the completed cells' pace.
func etaSeconds(sum sweep.Summary, elapsed time.Duration) float64 {
	finished := sum.Done + sum.Failed + sum.Cancelled
	if finished == 0 || finished >= sum.Total {
		return 0
	}
	perCell := elapsed.Seconds() / float64(finished)
	return perCell * float64(sum.Total-finished)
}

// event builds the SSE frame for the sweep's current state.
func (sw *Sweep) event() SweepEvent {
	sum := sweep.Summarize(sw.Cells())
	sw.mu.Lock()
	defer sw.mu.Unlock()
	return sw.eventLocked(sum)
}

// eventLocked builds the SSE frame for a summary of the sweep's cells.
// Caller holds sw.mu.
func (sw *Sweep) eventLocked(sum sweep.Summary) SweepEvent {
	elapsed := time.Since(sw.created)
	ev := SweepEvent{ID: sw.id, State: sw.state, Summary: sum, ElapsedSeconds: elapsed.Seconds()}
	if sw.state == "running" {
		ev.ETASeconds = etaSeconds(sum, elapsed)
	}
	return ev
}

// finishLocked moves the sweep to a terminal state. Caller holds sw.mu.
func (sw *Sweep) finishLocked(state string) {
	if sw.state != "running" {
		return
	}
	sw.state = state
	sw.finishedAt = time.Now()
	close(sw.done)
}

// sweepTick recomputes the aggregate after a job completes, publishes the
// frame to SSE subscribers, and finalizes the sweep when the last cell
// lands.
func (s *Server) sweepTick(sw *Sweep) {
	sum := sweep.Summarize(sw.Cells())

	sw.mu.Lock()
	if sum.Terminal() && sw.state == "running" {
		state := "done"
		if sum.Done == 0 && sum.Cancelled > 0 {
			state = "cancelled"
		}
		sw.finishLocked(state)
	}
	sw.events.publish(sw.eventLocked(sum))
	state := sw.state
	created, finished := sw.created, sw.finishedAt
	sw.mu.Unlock()

	if state != "running" {
		// The sweep's root span completes when its last cell lands; every
		// job span already parents onto it via WithTraceContext.
		s.spans.RecordSpan(obs.Span{
			TraceID: sw.traceID, SpanID: sw.rootSpan, Parent: sw.parentSpan,
			Name: "sweep", Actor: s.actor(), Lane: sw.tenant,
			Start: created, End: finished,
			Attrs: map[string]string{
				"sweep": sw.id, "outcome": state,
				"cells": strconv.Itoa(sum.Total), "done": strconv.Itoa(sum.Done),
			}})
		s.m.spansRecorded.Add(1)
		s.log.Info("sweep finished", "sweep", sw.id, "state", state,
			"done", sum.Done, "failed", sum.Failed, "cancelled", sum.Cancelled,
			"cache_hits", sum.CacheHits)
	}
}

// Spans gathers the sweep's fabric spans: the sweep root (once terminal)
// plus every distinct job's spans, for GET /v1/sweeps/{id}/trace. The
// root span is synthesized live for a still-running sweep so a partial
// trace still renders.
func (s *Server) sweepSpans(sw *Sweep) []obs.Span {
	sw.mu.Lock()
	jobs := sw.distinct
	state := sw.state
	created, finished := sw.created, sw.finishedAt
	sw.mu.Unlock()
	if finished.IsZero() {
		finished = time.Now()
	}
	out := []obs.Span{{
		TraceID: sw.traceID, SpanID: sw.rootSpan, Parent: sw.parentSpan,
		Name: "sweep", Actor: s.actor(), Lane: sw.tenant,
		Start: created, End: finished,
		Attrs: map[string]string{"sweep": sw.id, "outcome": state},
	}}
	for _, j := range jobs {
		out = append(out, j.Spans()...)
	}
	return out
}
