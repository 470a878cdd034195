package service

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"fdpsim/internal/store"
	"fdpsim/internal/sweep"
)

// sweepBody marshals a sweep request for POST /v1/sweeps.
func sweepBody(t *testing.T, req sweep.Request) *bytes.Reader {
	t.Helper()
	raw, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return bytes.NewReader(raw)
}

// testSweep is the acceptance grid: 3 axes, 2×3×3 = 18 cells, all
// distinct fingerprints.
func testSweep(name string) sweep.Request {
	return sweep.Request{
		Name:      name,
		Workloads: []string{"seqstream", "chaserand"},
		Configs: []sweep.ConfigAxis{
			{Prefetcher: "stream", Level: 5},
			{Prefetcher: "stream", FDP: true},
			{Prefetcher: "none"},
		},
		Seeds: []uint64{1, 2, 3},
		Insts: 20_000,
	}
}

// TestSweepEndToEnd drives the acceptance scenario over HTTP: a 3-axis
// 18-job sweep completes with a merged results table, the aggregate SSE
// feed reaches a terminal frame, and resubmitting the identical sweep is
// answered ≥90% from cache.
func TestSweepEndToEnd(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv, ts := newTestServer(t, Config{Workers: 4, QueueDepth: 8, Store: st})
	client := ts.Client()

	var sws SweepStatus
	code := doJSON(t, client, http.MethodPost, ts.URL+"/v1/sweeps",
		sweepBody(t, testSweep("acceptance")), &sws)
	if code != http.StatusAccepted {
		t.Fatalf("sweep submit = %d, want 202", code)
	}
	if sws.Cells != 18 || sws.Jobs != 18 {
		t.Fatalf("sweep expanded to %d cells / %d jobs, want 18/18", sws.Cells, sws.Jobs)
	}
	if sws.Tenant != "default" || sws.State != "running" {
		t.Fatalf("sweep status = %+v", sws)
	}

	// The aggregate SSE feed ends with a "done" frame whose counts add up.
	msgs := readSSE(t, client, ts.URL+"/v1/sweeps/"+sws.ID+"/events")
	last := msgs[len(msgs)-1]
	if last.Event != "done" {
		t.Fatalf("sweep SSE ended with %q", last.Event)
	}
	var final SweepStatus
	if err := json.Unmarshal([]byte(last.Data), &final); err != nil {
		t.Fatal(err)
	}
	if final.State != "done" || final.Summary.Done != 18 || final.Summary.Failed != 0 {
		t.Fatalf("final sweep frame: %+v", final)
	}
	// Intermediate summary frames carry consistent aggregate counts.
	for _, m := range msgs[:len(msgs)-1] {
		if m.Event != "summary" {
			t.Fatalf("unexpected sweep SSE event %q", m.Event)
		}
		var ev SweepStatus
		if err := json.Unmarshal([]byte(m.Data), &ev); err != nil {
			t.Fatal(err)
		}
		if ev.Summary.Total != 18 {
			t.Fatalf("summary frame total = %d", ev.Summary.Total)
		}
	}

	// Merged results: JSON cells all done with real metrics...
	var res sweepResults
	if code := doJSON(t, client, http.MethodGet, ts.URL+"/v1/sweeps/"+sws.ID+"/results", nil, &res); code != http.StatusOK {
		t.Fatalf("results = %d", code)
	}
	if len(res.Cells) != 18 {
		t.Fatalf("results cells = %d", len(res.Cells))
	}
	fps := map[string]bool{}
	for _, c := range res.Cells {
		if c.State != "done" || c.JobID == "" || c.Fingerprint == "" {
			t.Fatalf("cell not done: %+v", c)
		}
		if c.IPC <= 0 {
			t.Fatalf("cell without IPC: %+v", c)
		}
		fps[c.Fingerprint] = true
	}
	if len(fps) != 18 {
		t.Fatalf("distinct fingerprints = %d, want 18", len(fps))
	}

	// ...and the text rendering is the harness-style merged table.
	resp, err := client.Get(ts.URL + "/v1/sweeps/" + sws.ID + "/results?format=text")
	if err != nil {
		t.Fatal(err)
	}
	text, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{"acceptance — IPC", "acceptance — BPKI",
		"stream-L5", "stream-fdp", "none", "seqstream/s2", "chaserand/s3"} {
		if !strings.Contains(string(text), want) {
			t.Fatalf("text results lack %q:\n%s", want, text)
		}
	}

	// The listing surfaces the sweep's jobs with sweep ID and state filter.
	var jobs []JobStatus
	if code := doJSON(t, client, http.MethodGet, ts.URL+"/v1/jobs?sweep="+sws.ID+"&state=done", nil, &jobs); code != http.StatusOK {
		t.Fatalf("job listing = %d", code)
	}
	if len(jobs) != 18 {
		t.Fatalf("sweep job listing = %d jobs, want 18", len(jobs))
	}
	for _, j := range jobs {
		if j.Sweep != sws.ID || j.Tenant != "default" || j.State != StateDone {
			t.Fatalf("listed job: %+v", j)
		}
	}

	// Resubmission: the identical grid answers ≥90% from cache (here 100%:
	// every fingerprint is memoized and on disk).
	var again SweepStatus
	if code := doJSON(t, client, http.MethodPost, ts.URL+"/v1/sweeps",
		sweepBody(t, testSweep("acceptance")), &again); code != http.StatusAccepted {
		t.Fatalf("resubmit = %d", code)
	}
	fin := pollSweep(t, client, ts.URL+"/v1/sweeps/"+again.ID, func(s SweepStatus) bool {
		return s.State != "running"
	})
	if fin.Summary.CacheHits < 17 { // ≥90% of 18
		t.Fatalf("resubmitted sweep cache hits = %d/18, want ≥17", fin.Summary.CacheHits)
	}

	if got := srv.Executions(); got != 18 {
		t.Fatalf("server executed %d simulations for 36 cells, want 18", got)
	}
	if v := metricValue(t, client, ts.URL, "sim_sweep_submitted_total"); v != 2 {
		t.Fatalf("sim_sweep_submitted_total = %v, want 2", v)
	}
	if v := metricValue(t, client, ts.URL, "sim_sweep_cells_total"); v != 36 {
		t.Fatalf("sim_sweep_cells_total = %v, want 36", v)
	}
}

// TestSweepControllerAxis drives the controller head-to-head over HTTP:
// one sweep, three workloads, every registered decision policy as its own
// config axis, attribution on. The merged text tables gain one column per
// controller and a bus-util table, and /metrics labels the insertion and
// DCC-level series by controller.
func TestSweepControllerAxis(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 4, QueueDepth: 8})
	client := ts.Client()

	req := sweep.Request{
		Name:      "controllers",
		Workloads: []string{"seqstream", "chaserand", "mixedphase"},
		Configs: []sweep.ConfigAxis{
			{FDP: true, Controller: "fdp"},
			{FDP: true, Controller: "static-1"},
			{FDP: true, Controller: "static-2"},
			{FDP: true, Controller: "static-3"},
			{FDP: true, Controller: "static-4"},
			{FDP: true, Controller: "static-5"},
			{FDP: true, Controller: "dspatch-dual"},
			{FDP: true, Controller: "tree"},
		},
		Insts: 20_000, TInterval: 64, Attribution: true,
	}
	var sws SweepStatus
	if code := doJSON(t, client, http.MethodPost, ts.URL+"/v1/sweeps", sweepBody(t, req), &sws); code != http.StatusAccepted {
		t.Fatalf("controller sweep submit = %d, want 202", code)
	}
	if sws.Cells != 24 {
		t.Fatalf("controller sweep expanded to %d cells, want 24 (3 workloads x 8 controllers)", sws.Cells)
	}
	fin := pollSweep(t, client, ts.URL+"/v1/sweeps/"+sws.ID, func(s SweepStatus) bool {
		return s.Summary.Terminal()
	})
	if fin.Summary.Done != 24 || fin.Summary.Failed != 0 {
		t.Fatalf("controller sweep finished %+v", fin.Summary)
	}

	// The merged tables carry one column per controller, and attribution
	// adds the bus-util table alongside IPC and BPKI.
	resp, err := client.Get(ts.URL + "/v1/sweeps/" + sws.ID + "/results?format=text")
	if err != nil {
		t.Fatal(err)
	}
	text, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"controllers — IPC", "controllers — BPKI", "controllers — bus-util",
		"stream-fdp", "stream-static-1", "stream-static-2", "stream-static-3",
		"stream-static-4", "stream-static-5", "stream-dspatch-dual", "stream-tree",
	} {
		if !strings.Contains(string(text), want) {
			t.Fatalf("controller sweep text results lack %q:\n%s", want, text)
		}
	}

	// The scrape labels the decision-policy series by controller.
	resp, err = client.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	scrape, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		`fdpserved_insertion_policy_total{controller="fdp",position=`,
		`fdpserved_dcc_level_jobs{controller=`,
	} {
		if !strings.Contains(string(scrape), want) {
			t.Fatalf("metrics scrape lacks %q", want)
		}
	}
}

// pollSweep polls a sweep until pred accepts its status.
func pollSweep(t *testing.T, client *http.Client, url string, pred func(SweepStatus) bool) SweepStatus {
	t.Helper()
	for i := 0; i < 6000; i++ {
		var s SweepStatus
		if code := doJSON(t, client, http.MethodGet, url, nil, &s); code != http.StatusOK {
			t.Fatalf("GET %s = %d", url, code)
		}
		if pred(s) {
			return s
		}
		sleepMillis(5)
	}
	t.Fatalf("poll deadline passed for %s", url)
	return SweepStatus{}
}

// TestSweepValidationAndTenancy checks the admission errors: invalid
// grids are 400s with no sweep created, and a strict roster rejects
// sweeps from unknown tenants.
func TestSweepValidationAndTenancy(t *testing.T) {
	_, ts := newTestServer(t, Config{
		Workers: 1, QueueDepth: 4,
		Tenants:       map[string]TenantConfig{"alice": {Weight: 2}},
		StrictTenants: true,
	})
	client := ts.Client()

	bad := []sweep.Request{
		{Configs: []sweep.ConfigAxis{{}}},  // no workloads
		{Workloads: []string{"seqstream"}}, // no configs
		{Workloads: []string{"no-such"}, Configs: []sweep.ConfigAxis{{}}},
		{Workloads: []string{"seqstream"}, Configs: []sweep.ConfigAxis{{Prefetcher: "warp"}}},
		{Workloads: []string{"seqstream"}, Configs: []sweep.ConfigAxis{{FDP: true, Level: 3}}},
		{Workloads: []string{"seqstream"}, Configs: []sweep.ConfigAxis{{}}, Tenant: "mallory"},
	}
	for i, req := range bad {
		var e struct {
			Error string `json:"error"`
		}
		if code := doJSON(t, client, http.MethodPost, ts.URL+"/v1/sweeps", sweepBody(t, req), &e); code != http.StatusBadRequest {
			t.Fatalf("bad sweep %d = %d (%s), want 400", i, code, e.Error)
		}
	}
	var list []SweepStatus
	doJSON(t, client, http.MethodGet, ts.URL+"/v1/sweeps", nil, &list)
	if len(list) != 0 {
		t.Fatalf("rejected sweeps left %d entries", len(list))
	}

	// A rostered tenant's sweep is admitted and attributed.
	req := sweep.Request{Name: "ok", Tenant: "alice", Workloads: []string{"seqstream"},
		Configs: []sweep.ConfigAxis{{Prefetcher: "stream", FDP: true}}, Insts: 20_000}
	var sws SweepStatus
	if code := doJSON(t, client, http.MethodPost, ts.URL+"/v1/sweeps", sweepBody(t, req), &sws); code != http.StatusAccepted {
		t.Fatalf("rostered sweep = %d", code)
	}
	if sws.Tenant != "alice" {
		t.Fatalf("sweep tenant = %q", sws.Tenant)
	}
	pollSweep(t, client, ts.URL+"/v1/sweeps/"+sws.ID, func(s SweepStatus) bool { return s.State == "done" })
}

// TestListStateFilterAndIdempotency covers the satellite listing and
// idempotency-key semantics on the single-job API.
func TestListStateFilterAndIdempotency(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, QueueDepth: 8})
	client := ts.Client()

	var st JobStatus
	if code := doJSON(t, client, http.MethodPost, ts.URL+"/v1/jobs",
		submitBody(t, fastConfig(30_000, 7)), &st); code != http.StatusAccepted {
		t.Fatalf("submit = %d", code)
	}
	done := pollUntil(t, client, ts.URL+"/v1/jobs/"+st.ID, func(s JobStatus) bool {
		return s.State.Terminal()
	})
	if done.Tenant != "default" {
		t.Fatalf("job tenant = %q, want default", done.Tenant)
	}

	// ?state= filtering: done lists the job, queued does not, junk is 400.
	var listed []JobStatus
	if code := doJSON(t, client, http.MethodGet, ts.URL+"/v1/jobs?state=done", nil, &listed); code != http.StatusOK || len(listed) != 1 {
		t.Fatalf("state=done listing = %d (%d jobs)", code, len(listed))
	}
	if code := doJSON(t, client, http.MethodGet, ts.URL+"/v1/jobs?state=queued", nil, &listed); code != http.StatusOK || len(listed) != 0 {
		t.Fatalf("state=queued listing = %d (%d jobs)", code, len(listed))
	}
	if code := doJSON(t, client, http.MethodGet, ts.URL+"/v1/jobs?state=bogus", nil, nil); code != http.StatusBadRequest {
		t.Fatalf("state=bogus = %d, want 400", code)
	}

	// A retry echoing the fingerprint is answered with the existing job.
	cfg := fastConfig(30_000, 7)
	raw, _ := json.Marshal(JobRequest{Config: &cfg, IdempotencyKey: done.Fingerprint})
	var retry JobStatus
	if code := doJSON(t, client, http.MethodPost, ts.URL+"/v1/jobs", bytes.NewReader(raw), &retry); code != http.StatusOK {
		t.Fatalf("idempotent retry = %d, want 200", code)
	}
	if retry.ID != done.ID {
		t.Fatalf("idempotent retry created a new job: %s vs %s", retry.ID, done.ID)
	}

	// A key that does not match the request's fingerprint is a conflict.
	other := fastConfig(30_000, 8)
	raw, _ = json.Marshal(JobRequest{Config: &other, IdempotencyKey: done.Fingerprint})
	if code := doJSON(t, client, http.MethodPost, ts.URL+"/v1/jobs", bytes.NewReader(raw), nil); code != http.StatusConflict {
		t.Fatalf("mismatched idempotency key = %d, want 409", code)
	}
}

// TestRetryAfterJitter checks the 429 hint is within the documented
// 1–3s jitter window.
func TestRetryAfterJitter(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
	client := ts.Client()
	defer drainServer(t, srv)

	// One running + one queued fills the service; the next submission
	// sheds with a jittered Retry-After.
	for i := 0; i < 2; i++ {
		if code := doJSON(t, client, http.MethodPost, ts.URL+"/v1/jobs",
			submitBody(t, slowConfig(uint64(100+i))), nil); code != http.StatusAccepted {
			t.Fatalf("fill submit %d = %d", i, code)
		}
	}
	sawJitter := false
	for i := 0; i < 20; i++ {
		cfg := slowConfig(uint64(200 + i))
		resp, err := client.Post(ts.URL+"/v1/jobs", "application/json",
			bytes.NewReader(mustJSON(t, JobRequest{Config: &cfg})))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("overload submit = %d (%s)", resp.StatusCode, body)
		}
		ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
		if err != nil || ra < 1 || ra > 3 {
			t.Fatalf("Retry-After = %q, want 1..3", resp.Header.Get("Retry-After"))
		}
		if ra > 1 {
			sawJitter = true
		}
	}
	if !sawJitter {
		t.Fatal("20 rejections all answered Retry-After: 1; jitter missing")
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// drainServer cancels everything so slow jobs do not hold shutdown.
func drainServer(t *testing.T, srv *Server) {
	t.Helper()
	for _, j := range srv.Jobs() {
		srv.Cancel(j.ID()) //nolint:errcheck
	}
}

func sleepMillis(ms int) { time.Sleep(time.Duration(ms) * time.Millisecond) }
