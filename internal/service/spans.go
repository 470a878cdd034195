package service

import (
	"runtime/debug"
	"strings"
	"sync"
	"time"

	"fdpsim/internal/obs"
	"fdpsim/internal/store"
)

// Fabric tracing: every job carries one trace ID through its whole life
// — submit → tenant queue → fair-queue dispatch → fleet claim → sim run
// → store write — and each stage lands as an obs.Span in two places: the
// job itself (served by GET /v1/jobs/{id}/spans) and the server's
// flight recorder (GET /debug/events). A sweep stamps its trace ID onto
// every job it expands, and claim files carry it across fleet workers,
// so a grid fanned out over several processes stays one coherent trace.

// TraceHeader is the HTTP header that propagates trace context on
// submissions: "<trace-id>" or "<trace-id>/<parent-span-id>". Responses
// to traced submissions echo the job's trace ID back in the same header.
const TraceHeader = "X-Fdp-Trace"

// parseTraceHeader splits a TraceHeader value into its parts. Empty
// values yield empty strings (the job then starts a fresh trace).
func parseTraceHeader(v string) (traceID, parentSpan string) {
	v = strings.TrimSpace(v)
	if v == "" {
		return "", ""
	}
	if i := strings.IndexByte(v, '/'); i >= 0 {
		return v[:i], v[i+1:]
	}
	return v, ""
}

// WithTraceContext joins the job to an existing fabric trace (from the
// X-Fdp-Trace submission header, or a sweep's expansion). Empty traceID
// means "start a fresh trace", which every job gets anyway.
func WithTraceContext(traceID, parentSpan string) SubmitOption {
	return func(o *submitOptions) { o.traceID, o.parentSpan = traceID, parentSpan }
}

// actor names this process in span lanes and provenance entries.
func (s *Server) actor() string {
	if s.cfg.FleetWorker != "" {
		return s.cfg.FleetWorker
	}
	return "local"
}

// addSpan completes one span of the job's trace: it lands on the job
// (for /spans) and in the server flight recorder (for /debug/events),
// both bounded, neither blocking.
func (s *Server) addSpan(j *Job, sp obs.Span) {
	sp.TraceID = j.traceID
	if sp.SpanID == "" {
		sp.SpanID = obs.NewSpanID()
	}
	sp.Actor = s.actor()
	sp.Lane = j.tenant
	if sp.Attrs == nil {
		sp.Attrs = map[string]string{}
	}
	sp.Attrs["job"] = j.id
	sp.Attrs["fingerprint"] = shortFP(j.fp)
	j.mu.Lock()
	j.spans = append(j.spans, sp)
	j.mu.Unlock()
	s.m.spansRecorded.Add(1)
	s.spans.RecordSpan(sp)
}

// Spans returns the job's completed fabric spans so far (all of them
// once the job is terminal).
func (j *Job) Spans() []obs.Span {
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make([]obs.Span, len(j.spans))
	copy(out, j.spans)
	return out
}

// TraceID returns the job's fabric trace identifier.
func (j *Job) TraceID() string { return j.traceID }

// buildVersion reports the module version and Go toolchain baked into
// this binary, for build_info metrics and provenance entries. The build
// info is read once per process: every finished job writes a ledger line.
var buildVersion = sync.OnceValues(func() (version, goVersion string) {
	version, goVersion = "devel", "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		goVersion = bi.GoVersion
		if bi.Main.Version != "" && bi.Main.Version != "(devel)" {
			version = bi.Main.Version
		}
		for _, kv := range bi.Settings {
			if kv.Key == "vcs.revision" && len(kv.Value) >= 12 {
				version = kv.Value[:12]
			}
		}
	}
	return version, goVersion
})

// writeProvenance appends the job's ledger line, finished at finished,
// from its attempt — best-effort, like storeResult: observability never
// fails a job. finish appends it before the job's Done closes.
func (s *Server) writeProvenance(j *Job, a *attempt, finished time.Time) {
	if s.cfg.Store == nil {
		return
	}
	version, goVersion := buildVersion()
	p := store.Provenance{
		Fingerprint: j.fp,
		TraceID:     j.traceID,
		JobID:       j.id,
		SweepID:     j.sweepID,
		Tenant:      j.tenant,
		Worker:      s.actor(),
		LeaseGen:    a.leaseGen,
		Stolen:      a.stolen,
		Outcome:     a.outcome,
		Error:       a.errMsg,
		GoVersion:   goVersion,
		Build:       version,
		Submitted:   j.submittedAt,
		Finished:    finished,
		QueueWaitMS: float64(a.wait.Microseconds()) / 1e3,
		RunMS:       float64(a.run.Microseconds()) / 1e3,
		StoreMS:     float64(a.store.Microseconds()) / 1e3,
		WallMS:      float64(finished.Sub(j.submittedAt).Microseconds()) / 1e3,
	}
	if err := s.cfg.Store.AppendProvenance(p); err != nil {
		s.log.Warn("provenance append failed", "job", j.id, "error", err)
	}
}
