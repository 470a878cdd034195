package service

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"fdpsim/internal/obs"
	"fdpsim/internal/sim"
	"fdpsim/internal/store"
	"fdpsim/internal/sweep"
)

// TestFabricTraceTwoWorkers is the tracing acceptance e2e: two fleet
// workers share a store, one fingerprint is submitted to both under a
// single injected trace ID, and a ghost's expired lease forces a steal.
// The single trace must cover submit → queue → claim → run → store from
// both workers, export as a valid Chrome trace, and leave provenance
// ledger entries whose duration breakdown fits inside the wall clock —
// while the fleet still executes the simulation exactly once.
func TestFabricTraceTwoWorkers(t *testing.T) {
	dir := t.TempDir()
	stA, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	stB, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(st *store.Store, name string) *Server {
		srv := New(Config{
			Workers: 2, QueueDepth: 16, Store: st,
			FleetWorker: name, LeaseTTL: time.Second,
		})
		t.Cleanup(func() {
			ctx, cancel := testContext(30 * time.Second)
			defer cancel()
			srv.Shutdown(ctx) //nolint:errcheck
		})
		return srv
	}
	srvA := mk(stA, "worker-a")
	srvB := mk(stB, "worker-b")

	cfg := fastConfig(20_000, 4242)
	fp, ok := sim.Fingerprint(cfg)
	if !ok {
		t.Fatal("config not fingerprintable")
	}
	// Injected lease steal: a ghost worker claimed the fingerprint and
	// died; whoever executes must wait out and steal this lease.
	if acquired, _, err := stA.Claim(fp, "ghost", 400*time.Millisecond, ""); err != nil || !acquired {
		t.Fatalf("seeding ghost claim: %v, %v", acquired, err)
	}

	trace := obs.NewTraceID()
	jA, err := srvA.Submit(sim.Job{Cfg: cfg}, Submission{TraceID: trace})
	if err != nil {
		t.Fatal(err)
	}
	jB, err := srvB.Submit(sim.Job{Cfg: cfg}, Submission{TraceID: trace})
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range []*Job{jA, jB} {
		select {
		case <-j.Done():
		case <-time.After(60 * time.Second):
			t.Fatalf("job %s never finished", j.ID())
		}
		if st := j.Status(); st.State != StateDone || st.Result == nil {
			t.Fatalf("job %s = %s (%s)", st.ID, st.State, st.Error)
		}
	}

	// Exactly-once execution and bit-identical results despite tracing.
	if n := srvA.Executions() + srvB.Executions(); n != 1 {
		t.Fatalf("fleet executed %d times for one fingerprint, want 1", n)
	}
	ra, rb := jA.Status().Result, jB.Status().Result
	if ra.IPC != rb.IPC || ra.BPKI != rb.BPKI {
		t.Fatalf("results diverge across workers: %+v vs %+v", ra, rb)
	}

	// One trace ID spans both workers' span sets.
	spans := append(jA.Spans(), jB.Spans()...)
	actors := map[string]bool{}
	names := map[string]bool{}
	sawSteal := false
	for _, sp := range spans {
		if sp.TraceID != trace {
			t.Fatalf("span %s/%s carries trace %s, want %s", sp.Actor, sp.Name, sp.TraceID, trace)
		}
		actors[sp.Actor] = true
		names[sp.Name] = true
		for _, ev := range sp.Events {
			if ev.Name == "lease-steal" {
				sawSteal = true
			}
		}
	}
	if !actors["worker-a"] || !actors["worker-b"] {
		t.Fatalf("trace actors = %v, want both workers", actors)
	}
	for _, want := range []string{"job", "queue", "claim", "run", "store"} {
		if !names[want] {
			t.Fatalf("trace lacks a %q span (have %v)", want, names)
		}
	}
	if !sawSteal {
		t.Fatal("no lease-steal event on any claim span despite the ghost lease")
	}

	// The merged trace exports as a valid Chrome trace_event document
	// with one complete event per span.
	var buf bytes.Buffer
	if err := obs.WriteSpansChrome(&buf, spans); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph   string            `json:"ph"`
			Name string            `json:"name"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("Chrome export is not valid JSON: %v", err)
	}
	complete := 0
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		complete++
		if ev.Args["trace_id"] != trace {
			t.Fatalf("complete event %q carries trace %q", ev.Name, ev.Args["trace_id"])
		}
	}
	if complete != len(spans) {
		t.Fatalf("Chrome export has %d complete events for %d spans", complete, len(spans))
	}

	// Provenance: the ledger records both the execution and the adoption
	// under the same trace, and each entry's duration breakdown fits
	// inside its wall clock. Each worker appends its line before its job's
	// Done closes, so one read after both are done sees both.
	entries, err := stA.ReadProvenance(fp)
	if err != nil {
		t.Fatal(err)
	}
	outcomes := map[string]int{}
	for _, p := range entries {
		outcomes[p.Outcome]++
		if p.TraceID != trace {
			t.Fatalf("ledger entry %s carries trace %q, want %s", p.Outcome, p.TraceID, trace)
		}
		if parts := p.QueueWaitMS + p.RunMS + p.StoreMS; parts > p.WallMS+1 {
			t.Fatalf("%s entry: queue %.1f + run %.1f + store %.1f ms exceeds wall %.1f ms",
				p.Outcome, p.QueueWaitMS, p.RunMS, p.StoreMS, p.WallMS)
		}
	}
	if outcomes[store.OutcomeExecuted] != 1 || outcomes[store.OutcomeAdopted] != 1 {
		t.Fatalf("ledger outcomes = %v, want one executed and one adopted", outcomes)
	}
	executed := entries[0]
	for _, p := range entries {
		if p.Outcome == store.OutcomeExecuted {
			executed = p
		}
	}
	if executed.LeaseGen < 1 || !executed.Stolen {
		t.Fatalf("executed entry gen=%d stolen=%v, want a stolen gen>=1 lease", executed.LeaseGen, executed.Stolen)
	}
	if executed.RunMS <= 0 {
		t.Fatalf("executed entry run time = %.3f ms, want > 0", executed.RunMS)
	}
}

// sseCapture reads a raw SSE stream for roughly d and returns what
// arrived — keepalive comment frames included, which scanSSE-style
// event parsers would hide.
func sseCapture(t *testing.T, client *http.Client, url string, d time.Duration) string {
	t.Helper()
	resp, err := client.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		t.Fatalf("GET %s = %d", url, resp.StatusCode)
	}
	var mu sync.Mutex
	var buf bytes.Buffer
	go func() {
		chunk := make([]byte, 4096)
		for {
			n, err := resp.Body.Read(chunk)
			mu.Lock()
			buf.Write(chunk[:n])
			mu.Unlock()
			if err != nil {
				return
			}
		}
	}()
	time.Sleep(d)
	resp.Body.Close()
	mu.Lock()
	defer mu.Unlock()
	return buf.String()
}

// TestSSEKeepalive pins the idle keepalive on both SSE surfaces: a
// queued job's event stream and a sweep's aggregate stream emit
// ": keepalive" comment frames while nothing real is flowing, so
// proxies with idle timeouts keep long-lived subscriptions open.
func TestSSEKeepalive(t *testing.T) {
	srv, ts := newTestServer(t, Config{
		Workers: 1, QueueDepth: 8,
		SSEKeepalive: 25 * time.Millisecond,
	})
	defer drainServer(t, srv)
	client := ts.Client()

	// A slow job pins the single worker; everything behind it is idle.
	if _, err := srv.Submit(sim.Job{Cfg: slowConfig(900)}, Submission{}); err != nil {
		t.Fatal(err)
	}
	queued, err := srv.Submit(sim.Job{Cfg: fastConfig(20_000, 901)}, Submission{})
	if err != nil {
		t.Fatal(err)
	}
	sw, err := srv.SubmitSweep(sweep.Request{
		Workloads: []string{"seqstream"},
		Configs:   []sweep.ConfigAxis{{FDP: true}},
		Insts:     20_000,
	}, "", "")
	if err != nil {
		t.Fatal(err)
	}

	jobStream := sseCapture(t, client, ts.URL+"/v1/jobs/"+queued.ID()+"/events", 200*time.Millisecond)
	if n := strings.Count(jobStream, ": keepalive"); n < 2 {
		t.Fatalf("queued job stream carried %d keepalives in 200ms at a 25ms interval:\n%q", n, jobStream)
	}

	sweepStream := sseCapture(t, client, ts.URL+"/v1/sweeps/"+sw.ID()+"/events", 200*time.Millisecond)
	if !strings.Contains(sweepStream, "event: summary") {
		t.Fatalf("sweep stream missing the opening summary:\n%q", sweepStream)
	}
	if n := strings.Count(sweepStream, ": keepalive"); n < 2 {
		t.Fatalf("sweep stream carried %d keepalives in 200ms at a 25ms interval:\n%q", n, sweepStream)
	}
}

// TestSSEKeepaliveDisabled pins the off switch: a negative
// Config.SSEKeepalive must emit no comment frames at all.
func TestSSEKeepaliveDisabled(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 8, SSEKeepalive: -1})
	defer drainServer(t, srv)

	if _, err := srv.Submit(sim.Job{Cfg: slowConfig(910)}, Submission{}); err != nil {
		t.Fatal(err)
	}
	queued, err := srv.Submit(sim.Job{Cfg: fastConfig(20_000, 911)}, Submission{})
	if err != nil {
		t.Fatal(err)
	}
	stream := sseCapture(t, ts.Client(), ts.URL+"/v1/jobs/"+queued.ID()+"/events", 150*time.Millisecond)
	if strings.Contains(stream, ": keepalive") {
		t.Fatalf("keepalives emitted with SSEKeepalive disabled:\n%q", stream)
	}
}

// TestRetryAfterSecondsBounds pins the jitter window as a pure-function
// property: every sample lands in [1, 3] and the spread is exercised.
func TestRetryAfterSecondsBounds(t *testing.T) {
	seen := map[int]bool{}
	for i := 0; i < 1000; i++ {
		v := retryAfterSeconds()
		if v < 1 || v > 3 {
			t.Fatalf("retryAfterSeconds() = %d, want 1..3", v)
		}
		seen[v] = true
	}
	if len(seen) != 3 {
		t.Fatalf("1000 samples hit %d distinct values %v, want all of 1..3", len(seen), seen)
	}
}

// TestIdempotentRetryInFlight covers the idempotency edge the terminal-
// state test misses: a retry against a job that is still queued or
// running is answered 200 with the live job, not a duplicate.
func TestIdempotentRetryInFlight(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 8})
	defer drainServer(t, srv)
	client := ts.Client()

	cfg := slowConfig(920)
	var first JobStatus
	if code := doJSON(t, client, http.MethodPost, ts.URL+"/v1/jobs",
		submitBody(t, cfg), &first); code != http.StatusAccepted {
		t.Fatalf("submit = %d, want 202", code)
	}

	raw, err := json.Marshal(JobRequest{Config: &cfg, IdempotencyKey: first.Fingerprint})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("in-flight idempotent retry = %d (%s), want 200", resp.StatusCode, body)
	}
	var retry JobStatus
	if err := json.Unmarshal(body, &retry); err != nil {
		t.Fatal(err)
	}
	if retry.ID != first.ID {
		t.Fatalf("retry minted a new job %s (original %s)", retry.ID, first.ID)
	}
	if retry.State.Terminal() {
		t.Fatalf("retry against an in-flight job reported terminal state %s", retry.State)
	}

	// The mismatch conflict holds for in-flight jobs too.
	other := slowConfig(921)
	raw, err = json.Marshal(JobRequest{Config: &other, IdempotencyKey: first.Fingerprint})
	if err != nil {
		t.Fatal(err)
	}
	if code := doJSON(t, client, http.MethodPost, ts.URL+"/v1/jobs", bytes.NewReader(raw), nil); code != http.StatusConflict {
		t.Fatalf("mismatched in-flight key = %d, want 409", code)
	}
}
