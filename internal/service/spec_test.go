package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"testing"

	"fdpsim/internal/sim"
	"fdpsim/internal/workload/spec"
)

// serviceSpec is a small single-lane WorkloadSpec that finishes fast
// under fastConfig's sizing.
func serviceSpec(name string) *spec.Spec {
	return &spec.Spec{
		Name: name,
		Phases: []spec.Phase{
			{Ops: 6000, Clients: []spec.Client{
				{Name: "scan", Pattern: spec.Pattern{Kind: spec.KindStride, FootprintKB: 2048, Gap: 1}},
				{Name: "serve", Weight: 2, Pattern: spec.Pattern{Kind: spec.KindChase, FootprintKB: 512}},
			}},
		},
	}
}

func TestSubmitSpecJob(t *testing.T) {
	srv, _ := newTestServer(t, Config{Workers: 2, QueueDepth: 8})
	sp := serviceSpec("svc.spec")
	cfg := fastConfig(60_000, 7)

	job, err := srv.Submit(sim.Job{Cfg: cfg, Spec: sp}, Submission{})
	if err != nil {
		t.Fatal(err)
	}
	<-job.Done()
	st := job.Status()
	if st.State != StateDone || st.Result == nil {
		t.Fatalf("spec job finished as %+v", st)
	}
	if st.Workload != "svc.spec" || st.Result.Workload != "svc.spec" {
		t.Fatalf("spec job workload = %q / %q, want the spec name", st.Workload, st.Result.Workload)
	}

	// An identical resubmission is a cache hit with the same result.
	again, err := srv.Submit(sim.Job{Cfg: cfg, Spec: sp}, Submission{})
	if err != nil {
		t.Fatal(err)
	}
	<-again.Done()
	st2 := again.Status()
	if !st2.CacheHit || st2.Fingerprint != st.Fingerprint {
		t.Fatalf("resubmission: cache_hit=%v fp=%s vs %s", st2.CacheHit, st2.Fingerprint, st.Fingerprint)
	}
	if st2.Result.Counters != st.Result.Counters {
		t.Fatal("cached spec result differs")
	}

	// A named job for the same workload string must not alias the spec
	// job's cache entry.
	named := cfg
	named.Workload = "seqstream"
	nj, err := srv.Submit(sim.Job{Cfg: named}, Submission{})
	if err != nil {
		t.Fatal(err)
	}
	<-nj.Done()
	if nj.Status().Fingerprint == st.Fingerprint {
		t.Fatal("named and spec fingerprints alias")
	}
}

func TestSubmitSpecJobRejections(t *testing.T) {
	srv, _ := newTestServer(t, Config{Workers: 1, QueueDepth: 2})
	cfg := fastConfig(10_000, 1)

	if _, err := srv.Submit(sim.Job{Cfg: cfg, Spec: &spec.Spec{Name: "x"}}, Submission{}); !errors.Is(err, spec.ErrInvalid) {
		t.Fatalf("invalid spec: %v", err)
	}
	multi := serviceSpec("svc.multi")
	multi.Phases[0].Clients[1].Lane = 1
	if _, err := srv.Submit(sim.Job{Cfg: cfg, Spec: multi}, Submission{}); !errors.Is(err, sim.ErrInvalidConfig) {
		t.Fatalf("multi-lane spec: %v", err)
	}
}

func TestHTTPSpecJob(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, QueueDepth: 8})
	cfg := fastConfig(60_000, 3)
	body := func() *bytes.Reader {
		raw, err := json.Marshal(JobRequest{Config: &cfg, Spec: serviceSpec("http.spec")})
		if err != nil {
			t.Fatal(err)
		}
		return bytes.NewReader(raw)
	}

	var st JobStatus
	if code := doJSON(t, ts.Client(), http.MethodPost, ts.URL+"/v1/jobs", body(), &st); code != http.StatusAccepted {
		t.Fatalf("spec submit = %d, want 202", code)
	}
	final := pollUntil(t, ts.Client(), ts.URL+"/v1/jobs/"+st.ID, func(s JobStatus) bool {
		return s.State.Terminal()
	})
	if final.State != StateDone || final.Workload != "http.spec" {
		t.Fatalf("spec job over HTTP: %+v", final)
	}

	// Identical spec body → 200 cache hit.
	if code := doJSON(t, ts.Client(), http.MethodPost, ts.URL+"/v1/jobs", body(), &st); code != http.StatusOK {
		t.Fatalf("spec resubmit = %d, want 200 (cache hit)", code)
	}

	// An invalid spec is bad usage: 400, not 500.
	raw, _ := json.Marshal(JobRequest{Config: &cfg, Spec: &spec.Spec{Name: "Bad Name"}})
	var apiErr apiError
	if code := doJSON(t, ts.Client(), http.MethodPost, ts.URL+"/v1/jobs", bytes.NewReader(raw), &apiErr); code != http.StatusBadRequest {
		t.Fatalf("invalid spec submit = %d, want 400", code)
	}
	if apiErr.Error == "" {
		t.Fatal("400 body carries no error message")
	}
}
