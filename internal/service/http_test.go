package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"fdpsim/internal/obs"
	"fdpsim/internal/sim"
	"fdpsim/internal/store"
)

// fastConfig is an interval-rich simulation that finishes in tens of
// milliseconds: a small L2 makes the stream workload close FDP sampling
// intervals every ~3k instructions.
func fastConfig(insts, seed uint64) sim.Config {
	cfg := sim.WithFDP(sim.PrefStream)
	cfg.Workload = "seqstream"
	cfg.MaxInsts = insts
	cfg.WarmupInsts = 0
	cfg.Seed = seed
	cfg.FDP.TInterval = 64
	cfg.L2Blocks = 512
	cfg.L2Ways = 8
	return cfg
}

// slowConfig runs for ~10s of wall clock — long enough to observe and
// cancel deterministically.
func slowConfig(seed uint64) sim.Config {
	return fastConfig(50_000_000, seed)
}

func submitBody(t *testing.T, cfg sim.Config) *bytes.Reader {
	t.Helper()
	raw, err := json.Marshal(JobRequest{Config: &cfg})
	if err != nil {
		t.Fatal(err)
	}
	return bytes.NewReader(raw)
}

// doJSON performs a request and decodes the JSON response into out.
func doJSON(t *testing.T, client *http.Client, method, url string, body *bytes.Reader, out any) int {
	t.Helper()
	var req *http.Request
	var err error
	if body != nil {
		req, err = http.NewRequest(method, url, body)
	} else {
		req, err = http.NewRequest(method, url, nil)
	}
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("%s %s: decoding response: %v", method, url, err)
		}
	}
	return resp.StatusCode
}

// pollUntil polls a job until pred accepts its status (or the deadline
// passes, failing the test).
func pollUntil(t *testing.T, client *http.Client, url string, pred func(JobStatus) bool) JobStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		var st JobStatus
		if code := doJSON(t, client, http.MethodGet, url, nil, &st); code != http.StatusOK {
			t.Fatalf("GET %s = %d", url, code)
		}
		if pred(st) {
			return st
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("poll deadline passed for %s", url)
	return JobStatus{}
}

type sseMsg struct {
	Event string
	Data  string
}

// readSSE consumes an SSE stream until the "done" event (or maxEvents).
func readSSE(t *testing.T, client *http.Client, url string) []sseMsg {
	t.Helper()
	resp, err := client.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d", url, resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/event-stream") {
		t.Fatalf("SSE Content-Type = %q", ct)
	}
	var msgs []sseMsg
	var cur sseMsg
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			cur.Event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			cur.Data = strings.TrimPrefix(line, "data: ")
		case line == "":
			if cur.Event != "" {
				msgs = append(msgs, cur)
				if cur.Event == "done" {
					return msgs
				}
				cur = sseMsg{}
			}
		}
		if len(msgs) > 10_000 {
			t.Fatal("SSE stream never ended")
		}
	}
	t.Fatalf("SSE stream closed without a done event (err=%v, got %d events)", sc.Err(), len(msgs))
	return nil
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	srv := New(cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ctx, cancel := testContext(30 * time.Second)
		defer cancel()
		srv.Shutdown(ctx) //nolint:errcheck // double-shutdown in tests is fine
		ts.Close()
	})
	return srv, ts
}

func TestSubmitPollResult(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, QueueDepth: 8})

	var st JobStatus
	code := doJSON(t, ts.Client(), http.MethodPost, ts.URL+"/v1/jobs", submitBody(t, fastConfig(60_000, 1)), &st)
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d, want 202", code)
	}
	if st.ID == "" || st.State == "" {
		t.Fatalf("submit response incomplete: %+v", st)
	}

	final := pollUntil(t, ts.Client(), ts.URL+"/v1/jobs/"+st.ID, func(s JobStatus) bool {
		return s.State.Terminal()
	})
	if final.State != StateDone {
		t.Fatalf("job ended %s (%s), want done", final.State, final.Error)
	}
	if final.Result == nil || final.Result.IPC <= 0 {
		t.Fatalf("done job has no result: %+v", final.Result)
	}
	if final.Result.Partial {
		t.Fatal("completed job marked partial")
	}
	if final.CacheHit {
		t.Fatal("first submission reported as cache hit")
	}
}

func TestSSEStream(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, QueueDepth: 8})

	var st JobStatus
	if code := doJSON(t, ts.Client(), http.MethodPost, ts.URL+"/v1/jobs", submitBody(t, fastConfig(400_000, 2)), &st); code != http.StatusAccepted {
		t.Fatalf("submit = %d", code)
	}
	msgs := readSSE(t, ts.Client(), ts.URL+"/v1/jobs/"+st.ID+"/events")

	progress := 0
	var doneMsg *sseMsg
	for i := range msgs {
		switch msgs[i].Event {
		case "progress":
			progress++
			var ev sim.DecisionEvent
			if err := json.Unmarshal([]byte(msgs[i].Data), &ev); err != nil {
				t.Fatalf("progress payload: %v", err)
			}
		case "done":
			doneMsg = &msgs[i]
		}
	}
	if progress < 1 {
		t.Fatalf("saw %d progress events, want >= 1 (events: %+v)", progress, msgs)
	}
	if doneMsg == nil {
		t.Fatal("no done event")
	}
	var final JobStatus
	if err := json.Unmarshal([]byte(doneMsg.Data), &final); err != nil {
		t.Fatal(err)
	}
	if final.State != StateDone || final.Result == nil {
		t.Fatalf("done event carries %+v", final)
	}

	// A subscriber joining after completion gets the done event immediately.
	late := readSSE(t, ts.Client(), ts.URL+"/v1/jobs/"+st.ID+"/events")
	if last := late[len(late)-1]; last.Event != "done" {
		t.Fatalf("late subscription ended with %q, want done", last.Event)
	}
}

// TestSSEProgressMatchesTrace pins the one per-interval wire format:
// every SSE "progress" payload decodes strictly into a sim.DecisionEvent
// and is, byte for byte, the JSONL trace line of the same interval. Frames
// are matched by Interval because slow subscribers may drop some.
func TestSSEProgressMatchesTrace(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, QueueDepth: 8})

	cfg := fastConfig(400_000, 3)
	var st JobStatus
	if code := doJSON(t, ts.Client(), http.MethodPost, ts.URL+"/v1/jobs",
		traceBody(t, JobRequest{Config: &cfg, Trace: true}), &st); code != http.StatusAccepted {
		t.Fatalf("submit = %d", code)
	}
	msgs := readSSE(t, ts.Client(), ts.URL+"/v1/jobs/"+st.ID+"/events")
	code, raw, _ := getBody(t, ts.URL+"/v1/jobs/"+st.ID+"/trace")
	if code != http.StatusOK {
		t.Fatalf("GET trace = %d (%s)", code, raw)
	}
	events, err := obs.ReadJSONL(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	if len(lines) != len(events) {
		t.Fatalf("%d trace lines for %d events", len(lines), len(events))
	}

	frames := 0
	for _, m := range msgs {
		if m.Event != "progress" {
			continue
		}
		frames++
		dec := json.NewDecoder(strings.NewReader(m.Data))
		dec.DisallowUnknownFields()
		var ev sim.DecisionEvent
		if err := dec.Decode(&ev); err != nil {
			t.Fatalf("progress payload is not a DecisionEvent: %v\n%s", err, m.Data)
		}
		if ev.Interval < 1 || ev.Interval > uint64(len(events)) {
			t.Fatalf("progress frame for interval %d; the trace has %d", ev.Interval, len(events))
		}
		if want := events[ev.Interval-1]; !reflect.DeepEqual(ev, want) {
			t.Errorf("interval %d: SSE frame %+v, trace event %+v", ev.Interval, ev, want)
		}
		if want := lines[ev.Interval-1]; m.Data != want {
			t.Errorf("interval %d: SSE payload differs from the JSONL line:\n%s\n%s", ev.Interval, m.Data, want)
		}
	}
	if frames == 0 {
		t.Fatal("no progress frames")
	}
}

func TestCancelRunningJob(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4})

	var st JobStatus
	if code := doJSON(t, ts.Client(), http.MethodPost, ts.URL+"/v1/jobs", submitBody(t, slowConfig(3)), &st); code != http.StatusAccepted {
		t.Fatalf("submit = %d", code)
	}
	url := ts.URL + "/v1/jobs/" + st.ID
	pollUntil(t, ts.Client(), url, func(s JobStatus) bool { return s.State == StateRunning })

	if code := doJSON(t, ts.Client(), http.MethodDelete, url, nil, nil); code != http.StatusOK {
		t.Fatalf("cancel = %d", code)
	}
	final := pollUntil(t, ts.Client(), url, func(s JobStatus) bool { return s.State.Terminal() })
	if final.State != StateCancelled {
		t.Fatalf("state = %s, want cancelled", final.State)
	}
	if final.Result == nil || !final.Result.Partial {
		t.Fatalf("cancelled job should carry a partial result, got %+v", final.Result)
	}
	if final.Result.Counters.Retired == 0 {
		t.Fatal("partial result retired nothing; cancellation did not drain")
	}
}

func TestCancelQueuedJob(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4})

	var running JobStatus
	if code := doJSON(t, ts.Client(), http.MethodPost, ts.URL+"/v1/jobs", submitBody(t, slowConfig(4)), &running); code != http.StatusAccepted {
		t.Fatalf("submit = %d", code)
	}
	pollUntil(t, ts.Client(), ts.URL+"/v1/jobs/"+running.ID, func(s JobStatus) bool { return s.State == StateRunning })

	var queued JobStatus
	if code := doJSON(t, ts.Client(), http.MethodPost, ts.URL+"/v1/jobs", submitBody(t, slowConfig(5)), &queued); code != http.StatusAccepted {
		t.Fatalf("submit = %d", code)
	}
	var cancelled JobStatus
	if code := doJSON(t, ts.Client(), http.MethodDelete, ts.URL+"/v1/jobs/"+queued.ID, nil, &cancelled); code != http.StatusOK {
		t.Fatalf("cancel = %d", code)
	}
	if cancelled.State != StateCancelled {
		t.Fatalf("queued job cancel → %s, want cancelled immediately", cancelled.State)
	}
	// Unblock the worker.
	doJSON(t, ts.Client(), http.MethodDelete, ts.URL+"/v1/jobs/"+running.ID, nil, nil)
}

// TestNeverStartedJobsRecorded pins finish for jobs that never start: a
// job cancelled while queued, and one the shutdown reaches before it
// starts, each leave a root "job" span and one cancelled ledger line by
// the time Done closes.
func TestNeverStartedJobsRecorded(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv := New(Config{Workers: 1, QueueDepth: 4, Store: st})
	running, err := srv.Submit(sim.Job{Cfg: slowConfig(930)}, Submission{})
	if err != nil {
		t.Fatal(err)
	}
	for running.Status().State != StateRunning {
		time.Sleep(time.Millisecond)
	}
	queued, err := srv.Submit(sim.Job{Cfg: slowConfig(931)}, Submission{})
	if err != nil {
		t.Fatal(err)
	}
	behind, err := srv.Submit(sim.Job{Cfg: slowConfig(932)}, Submission{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Cancel(queued.ID()); err != nil {
		t.Fatal(err)
	}
	// Shutdown cancels the running job; the worker then reaches behind and
	// finishes it without starting it.
	ctx, cancel := testContext(30 * time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		job    *Job
		errMsg string
	}{{queued, "cancelled before start"}, {behind, "server shutting down"}} {
		<-tc.job.Done()
		if got := tc.job.Status(); got.State != StateCancelled || got.Error != tc.errMsg {
			t.Fatalf("%s: state %s (%q), want cancelled (%q)", tc.job.ID(), got.State, got.Error, tc.errMsg)
		}
		roots := 0
		for _, sp := range tc.job.Spans() {
			if sp.Name == "job" && sp.Attrs["outcome"] == store.OutcomeCancelled {
				roots++
			}
		}
		if roots != 1 {
			t.Fatalf("%s: %d cancelled root spans, want 1 (spans %+v)", tc.job.ID(), roots, tc.job.Spans())
		}
		lines, err := st.ReadProvenance(tc.job.Status().Fingerprint)
		if err != nil {
			t.Fatal(err)
		}
		if len(lines) != 1 || lines[0].Outcome != store.OutcomeCancelled || lines[0].Error != tc.errMsg ||
			lines[0].JobID != tc.job.ID() {
			t.Fatalf("%s: ledger = %+v, want one cancelled line", tc.job.ID(), lines)
		}
	}
}

// TestCancelRaceFinishesOnce races Cancel against the workers picking
// jobs up: whichever path moves a job out of queued must finish it alone,
// so every job ends with exactly one root span and one ledger line.
func TestCancelRaceFinishesOnce(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv, _ := newTestServer(t, Config{Workers: 2, QueueDepth: 64, Store: st})
	jobs := make(chan *Job, 32)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for j := range jobs {
			srv.Cancel(j.ID()) //nolint:errcheck // the job exists
		}
	}()
	var all []*Job
	for seed := uint64(950); seed < 982; seed++ {
		j, err := srv.Submit(sim.Job{Cfg: fastConfig(2_000, seed)}, Submission{})
		if err != nil {
			t.Fatal(err)
		}
		jobs <- j
		all = append(all, j)
	}
	close(jobs)
	<-done
	for _, j := range all {
		<-j.Done()
		roots := 0
		for _, sp := range j.Spans() {
			if sp.Name == "job" {
				roots++
			}
		}
		lines, err := st.ReadProvenance(j.Status().Fingerprint)
		if err != nil {
			t.Fatal(err)
		}
		if roots != 1 || len(lines) != 1 {
			t.Fatalf("%s (%s): %d root spans and %d ledger lines, want 1 and 1",
				j.ID(), j.Status().State, roots, len(lines))
		}
	}
}

// TestSubmitRejectsPanickingConfig: a "config" the simulator's
// constructors would panic on, or one over the job size caps, is bad
// input (400) that never reaches a worker, so the daemon keeps serving.
func TestSubmitRejectsPanickingConfig(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4})
	for i, mutate := range []func(*sim.Config){
		func(c *sim.Config) { c.L2Blocks = 1000 },
		func(c *sim.Config) { c.L1Ways = 3 },
		func(c *sim.Config) { c.MSHRs = -1 },
		func(c *sim.Config) { c.DRAM.Banks = 3 },
		func(c *sim.Config) { c.DRAM.QueueCap = -1 },
		func(c *sim.Config) { c.FDP.FilterBits = 32 },
		func(c *sim.Config) { c.CPU.ROB = 1 << 40 },
		func(c *sim.Config) { c.L1Latency = 1<<64 - 2 },
		func(c *sim.Config) { c.DRAM.Transfer = 1<<32 + 1 },
	} {
		cfg := fastConfig(20_000, 940)
		mutate(&cfg)
		var apiErr apiError
		if code := doJSON(t, ts.Client(), http.MethodPost, ts.URL+"/v1/jobs", submitBody(t, cfg), &apiErr); code != http.StatusBadRequest {
			t.Fatalf("case %d: submit = %d (%s), want 400", i, code, apiErr.Error)
		}
	}
	var st JobStatus
	if code := doJSON(t, ts.Client(), http.MethodPost, ts.URL+"/v1/jobs", submitBody(t, fastConfig(20_000, 941)), &st); code != http.StatusAccepted {
		t.Fatalf("valid submit after the rejections = %d, want 202", code)
	}
	final := pollUntil(t, ts.Client(), ts.URL+"/v1/jobs/"+st.ID, func(s JobStatus) bool { return s.State.Terminal() })
	if final.State != StateDone {
		t.Fatalf("valid job after the rejections ended %s (%s)", final.State, final.Error)
	}
}

func TestBackpressure429(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1})

	var first JobStatus
	if code := doJSON(t, ts.Client(), http.MethodPost, ts.URL+"/v1/jobs", submitBody(t, slowConfig(10)), &first); code != http.StatusAccepted {
		t.Fatalf("first submit = %d", code)
	}
	// Wait until the worker holds the first job so the queue slot is free.
	pollUntil(t, ts.Client(), ts.URL+"/v1/jobs/"+first.ID, func(s JobStatus) bool { return s.State == StateRunning })

	var second JobStatus
	if code := doJSON(t, ts.Client(), http.MethodPost, ts.URL+"/v1/jobs", submitBody(t, slowConfig(11)), &second); code != http.StatusAccepted {
		t.Fatalf("second submit = %d", code)
	}

	// Worker busy + queue full: the third submission must shed.
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs", submitBody(t, slowConfig(12)))
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("third submit = %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("429 without Retry-After")
	}
	var apiErr apiError
	if err := json.NewDecoder(resp.Body).Decode(&apiErr); err != nil || apiErr.Error == "" {
		t.Fatalf("429 body: %v %+v", err, apiErr)
	}

	// The rejected job must not linger in the job table.
	var listing []JobStatus
	if code := doJSON(t, ts.Client(), http.MethodGet, ts.URL+"/v1/jobs", nil, &listing); code != http.StatusOK {
		t.Fatalf("list = %d", code)
	}
	if len(listing) != 2 {
		t.Fatalf("job table holds %d entries after a 429, want 2", len(listing))
	}

	for _, id := range []string{first.ID, second.ID} {
		doJSON(t, ts.Client(), http.MethodDelete, ts.URL+"/v1/jobs/"+id, nil, nil)
	}
}

func TestValidationAndNotFound(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4})
	client := ts.Client()

	post := func(body string) (int, apiError) {
		resp, err := client.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var e apiError
		json.NewDecoder(resp.Body).Decode(&e) //nolint:errcheck
		return resp.StatusCode, e
	}

	if code, e := post(`{"workload":"no-such-workload"}`); code != http.StatusBadRequest || !strings.Contains(e.Error, "no-such-workload") {
		t.Fatalf("unknown workload: %d %q", code, e.Error)
	}
	if code, e := post(`{"prefetcher":"warp-drive"}`); code != http.StatusBadRequest || !strings.Contains(e.Error, "warp-drive") {
		t.Fatalf("unknown prefetcher: %d %q", code, e.Error)
	}
	if code, _ := post(`{not json`); code != http.StatusBadRequest {
		t.Fatalf("malformed JSON: %d", code)
	}
	if code, _ := post(`{"bogus_field":1}`); code != http.StatusBadRequest {
		t.Fatalf("unknown field: %d", code)
	}

	if code := doJSON(t, client, http.MethodGet, ts.URL+"/v1/jobs/job-999999", nil, nil); code != http.StatusNotFound {
		t.Fatalf("unknown job poll = %d", code)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/job-999999", nil)
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job cancel = %d", resp.StatusCode)
	}

	resp, err = client.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", resp.StatusCode)
	}
}

// TestJobRequestMatchesSweepAxis pins the one mapping from a job's simple
// fields to a configuration: bodies a sweep config axis rejects answer 400
// on POST /v1/jobs too, instead of running with a field dropped or a
// controller that never steers, and a valid body still completes.
func TestJobRequestMatchesSweepAxis(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4})
	client := ts.Client()
	for _, body := range []string{
		`{"workload":"seqstream","fdp":true,"level":3}`,
		`{"workload":"seqstream","prefetcher":"none","level":3}`,
		`{"workload":"seqstream","controller":"tree"}`,
	} {
		var e apiError
		if code := doJSON(t, client, http.MethodPost, ts.URL+"/v1/jobs", bytes.NewReader([]byte(body)), &e); code != http.StatusBadRequest {
			t.Errorf("%s: status %d (%q), want 400", body, code, e.Error)
		}
	}

	var st JobStatus
	body := `{"workload":"seqstream","fdp":true,"controller":"tree","insts":20000}`
	if code := doJSON(t, client, http.MethodPost, ts.URL+"/v1/jobs", bytes.NewReader([]byte(body)), &st); code != http.StatusAccepted {
		t.Fatalf("valid body: status %d, want 202", code)
	}
	final := pollUntil(t, client, ts.URL+"/v1/jobs/"+st.ID, func(s JobStatus) bool { return s.State.Terminal() })
	if final.State != StateDone || final.Result == nil || final.Result.Controller != "tree" {
		t.Fatalf("valid body ended %s (%s), result %+v", final.State, final.Error, final.Result)
	}
}

// metricValue extracts one series' value from /metrics.
func metricValue(t *testing.T, client *http.Client, url, name string) float64 {
	t.Helper()
	resp, err := client.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, name+" ") {
			var v float64
			if _, err := fmt.Sscanf(line[len(name)+1:], "%g", &v); err != nil {
				t.Fatalf("parsing %q: %v", line, err)
			}
			return v
		}
	}
	t.Fatalf("metric %s not found", name)
	return 0
}
