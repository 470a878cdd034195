package service

import (
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"time"

	"fdpsim/internal/obs"
	"fdpsim/internal/store"
)

// Fabric tracing: every job carries one trace ID through its whole life
// — submit → tenant queue → fair-queue dispatch → fleet claim → sim run
// → store write — and each stage lands as an obs.Span on the job itself
// (served by GET /v1/jobs/{id}/spans). A sweep stamps its trace ID onto
// every job it expands, and claim files carry it across fleet workers,
// so a grid fanned out over several processes stays one coherent trace.
// The flight recorder (GET /debug/events) is a view of the jobs' spans
// and the finished sweeps' root spans, not a copy of them.

// TraceHeader is the HTTP header that propagates trace context on
// submissions: "<trace-id>" or "<trace-id>/<parent-span-id>". Responses
// to traced submissions echo the job's trace ID back in the same header.
const TraceHeader = "X-Fdp-Trace"

// parseTraceHeader splits a TraceHeader value into its parts. A value
// without a trace ID yields empty strings (the submission then starts a
// fresh trace).
func parseTraceHeader(v string) (traceID, parentSpan string) {
	traceID, parentSpan, _ = strings.Cut(strings.TrimSpace(v), "/")
	if traceID == "" {
		return "", ""
	}
	return traceID, parentSpan
}

// actor names this process in span lanes and provenance entries.
func (s *Server) actor() string {
	if s.cfg.FleetWorker != "" {
		return s.cfg.FleetWorker
	}
	return "local"
}

// addSpan completes one span of the job's trace; it lands on the job,
// where /spans, the sweep's trace and /debug/events read it.
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
}

// flightRecorderSpans is how many spans GET /debug/events returns: the
// newest by end time.
const flightRecorderSpans = 4096

// recordedSpans gathers every span the server has recorded, ordered by
// end time: each job's spans, and the root span of each terminal sweep.
// Ties keep job-ID order, then each job's recording order, with the sweep
// roots last in sweep-ID order.
func (s *Server) recordedSpans() []obs.Span {
	jobs := s.Jobs()
	sort.Slice(jobs, func(i, k int) bool { return idLess(jobs[i].id, jobs[k].id) })
	var spans []obs.Span
	for _, j := range jobs {
		j.mu.Lock()
		spans = append(spans, j.spans...)
		j.mu.Unlock()
	}
	sweeps := s.Sweeps()
	sort.Slice(sweeps, func(i, k int) bool { return idLess(sweeps[i].id, sweeps[k].id) })
	for _, sw := range sweeps {
		// A running sweep's root span is not recorded yet.
		if root := s.sweepRoot(sw); root.Attrs["outcome"] != "running" {
			spans = append(spans, root)
		}
	}
	sort.SliceStable(spans, func(i, k int) bool { return spans[i].End.Before(spans[k].End) })
	return spans
}

// idLess orders job and sweep IDs by their sequence numbers, which are
// zero-padded until they outgrow the padding.
func idLess(a, b string) bool {
	return len(a) < len(b) || len(a) == len(b) && a < b
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
// from its attempt — best-effort, like the store stage: observability
// never fails a job. finish appends it before the job's Done closes.
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
