package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"reflect"
	"testing"
	"time"

	"fdpsim/internal/series"
	"fdpsim/internal/sim"
	"fdpsim/internal/store"
)

// waitJob waits for a job to reach a terminal state and returns its status.
func waitJob(t *testing.T, j *Job) JobStatus {
	t.Helper()
	select {
	case <-j.Done():
	case <-time.After(60 * time.Second):
		t.Fatalf("job %s never finished", j.ID())
	}
	return j.Status()
}

// sidecars returns a terminal job's interval stream, encoded and decoded,
// failing the test when the job lacks it or it does not decode.
func sidecars(t *testing.T, j *Job) (doc []byte, events []sim.DecisionEvent) {
	t.Helper()
	doc, ok := j.SeriesData()
	if !ok {
		t.Fatalf("job %s lacks the interval stream it asked for", j.ID())
	}
	sr, err := series.Decode(doc)
	if err != nil {
		t.Fatalf("job %s: %v", j.ID(), err)
	}
	return doc, sr.Events
}

// withoutElapsed zeroes the one Result field that differs between two runs
// of one configuration.
func withoutElapsed(r *sim.Result) sim.Result {
	out := *r
	out.Elapsed = 0
	return out
}

// TestAdoptionCarriesSidecars: a fleet worker that adopts another worker's
// result answers with the interval stream its job asked for, byte-equal
// to the one the executing worker stored, and executes nothing for it.
func TestAdoptionCarriesSidecars(t *testing.T) {
	dir := t.TempDir()
	mk := func(name string) *Server {
		st, err := store.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		srv, _ := newTestServer(t, Config{Workers: 1, Store: st, FleetWorker: name, LeaseTTL: time.Second})
		return srv
	}
	a, b := mk("worker-a"), mk("worker-b")

	// b's only worker is busy, so b's job waits in its queue while a runs
	// the same fingerprint and stores the result and its sidecar.
	hold, err := b.Submit(sim.Job{Cfg: slowConfig(99)}, Submission{})
	if err != nil {
		t.Fatal(err)
	}
	run := sim.Job{Cfg: fastConfig(150_000, 31)}
	jb, err := b.Submit(run, Submission{Series: true})
	if err != nil {
		t.Fatal(err)
	}
	ja, err := a.Submit(run, Submission{Series: true})
	if err != nil {
		t.Fatal(err)
	}
	if st := waitJob(t, ja); st.State != StateDone || st.CacheHit {
		t.Fatalf("worker a's job = %s, cache_hit %v; want it executed", st.State, st.CacheHit)
	}
	if _, err := b.Cancel(hold.ID()); err != nil {
		t.Fatal(err)
	}

	st := waitJob(t, jb)
	if st.State != StateDone || !st.CacheHit || !st.Trace || !st.Series {
		t.Fatalf("adopted job = %s, cache_hit %v, trace %v, series %v; want done with its stream",
			st.State, st.CacheHit, st.Trace, st.Series)
	}
	wantDoc, events := sidecars(t, ja)
	gotDoc, _ := sidecars(t, jb)
	if !bytes.Equal(gotDoc, wantDoc) {
		t.Fatal("adopted stream differs from the executing worker's")
	}
	if uint64(len(events)) != st.Result.Intervals {
		t.Fatalf("stream holds %d events for %d intervals", len(events), st.Result.Intervals)
	}
	if n := b.Executions(); n != 1 {
		t.Fatalf("worker b executed %d simulations; want 1 (the held job), the other adopted", n)
	}
}

// TestStorelessSeriesRerun: a storeless server keeps no sidecars, so an
// identical series job runs again and still carries its series.
func TestStorelessSeriesRerun(t *testing.T) {
	srv, _ := newTestServer(t, Config{Workers: 1})
	run := sim.Job{Cfg: fastConfig(150_000, 13)}
	first, err := srv.Submit(run, Submission{Series: true})
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, first)
	want, _ := first.SeriesData()

	second, err := srv.Submit(run, Submission{Series: true})
	if err != nil {
		t.Fatal(err)
	}
	st := waitJob(t, second)
	got, ok := second.SeriesData()
	if st.State != StateDone || st.CacheHit || !ok {
		t.Fatalf("second series job = %s, cache_hit %v, series %v; want a run with its series", st.State, st.CacheHit, ok)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("re-run series differs from the first run's")
	}
}

// TestSidecarsRederived: an entry stored without sidecars does not answer
// a job that asks for them. That job runs (202, no cache hit), its series
// equals a fresh series-recorded run's, its Result equals the stored one
// but for Elapsed, and what it stored answers the next identical job.
func TestSidecarsRederived(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv, ts := newTestServer(t, Config{Workers: 1, Store: st})
	cfg := fastConfig(150_000, 17)

	bare, err := srv.Submit(sim.Job{Cfg: cfg}, Submission{})
	if err != nil {
		t.Fatal(err)
	}
	stored := waitJob(t, bare)

	var js JobStatus
	body := traceBody(t, JobRequest{Config: &cfg, Trace: true, Series: true})
	if code := doJSON(t, ts.Client(), http.MethodPost, ts.URL+"/v1/jobs", body, &js); code != http.StatusAccepted || js.CacheHit {
		t.Fatalf("sidecar request over a bare entry = %d, cache_hit %v; want 202 and a run", code, js.CacheHit)
	}
	job, _ := srv.Job(js.ID)
	again := waitJob(t, job)
	if again.State != StateDone || again.CacheHit {
		t.Fatalf("re-derivation = %s, cache_hit %v", again.State, again.CacheHit)
	}
	if !reflect.DeepEqual(withoutElapsed(again.Result), withoutElapsed(stored.Result)) {
		t.Fatal("re-derived Result differs from the stored one beyond Elapsed")
	}
	if n := srv.Executions(); n != 2 {
		t.Fatalf("server executed %d simulations; want 2", n)
	}
	doc, events := sidecars(t, job)
	if uint64(len(events)) != again.Result.Intervals {
		t.Fatalf("re-derived stream holds %d events for %d intervals", len(events), again.Result.Intervals)
	}

	fresh, _ := newTestServer(t, Config{Workers: 1})
	fj, err := fresh.Submit(sim.Job{Cfg: cfg}, Submission{Series: true})
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, fj)
	if want, _ := fj.SeriesData(); !bytes.Equal(doc, want) {
		t.Fatal("re-derived series differs from a fresh series-recorded run's")
	}

	third, err := srv.Submit(sim.Job{Cfg: cfg}, Submission{Series: true})
	if err != nil {
		t.Fatal(err)
	}
	if st := waitJob(t, third); !st.CacheHit {
		t.Fatal("third identical submission was not a cache hit")
	}
	if gotDoc, _ := sidecars(t, third); !bytes.Equal(gotDoc, doc) {
		t.Fatal("cache hit's stream differs from the re-derivation's")
	}
}

// TestZeroIntervalTrace: a traced run that closes no FDP interval still
// has its (empty) decision trace. GET /trace serves it, the chrome format
// renders an empty document, and the store keeps it, so an identical
// traced job is a cache hit.
func TestZeroIntervalTrace(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv, ts := newTestServer(t, Config{Workers: 1, Store: st})
	cfg := sim.WithFDP(sim.PrefStream)
	cfg.Workload = "seqstream"
	cfg.MaxInsts = 200_000
	run := sim.Job{Cfg: cfg}

	job, err := srv.Submit(run, Submission{Series: true})
	if err != nil {
		t.Fatal(err)
	}
	js := waitJob(t, job)
	if js.State != StateDone || js.Result.Intervals != 0 {
		t.Fatalf("job = %s with %d intervals; want done with none", js.State, js.Result.Intervals)
	}
	if !js.Trace || !js.Series {
		t.Fatalf("zero-interval job: trace %v, series %v; want both", js.Trace, js.Series)
	}
	code, raw, _ := getBody(t, ts.URL+"/v1/jobs/"+job.ID()+"/trace")
	if code != http.StatusOK || len(raw) != 0 {
		t.Fatalf("GET trace = %d with %d bytes; want 200 and an empty body", code, len(raw))
	}
	code, raw, _ = getBody(t, ts.URL+"/v1/jobs/"+job.ID()+"/trace?format=chrome")
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if code != http.StatusOK || json.Unmarshal(raw, &doc) != nil || len(doc.TraceEvents) != 0 {
		t.Fatalf("GET trace?format=chrome = %d, %q; want an empty trace_event document", code, raw)
	}

	hit, err := srv.Submit(run, Submission{Series: true})
	if err != nil {
		t.Fatal(err)
	}
	if hs := waitJob(t, hit); !hs.CacheHit || !hs.Trace {
		t.Fatalf("identical traced job: cache_hit %v, trace %v; want a hit with the trace", hs.CacheHit, hs.Trace)
	}
}
