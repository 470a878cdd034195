package service

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"path/filepath"
	"testing"

	"fdpsim/internal/obs"
	"fdpsim/internal/store"
)

// traceBody builds a submit body with the trace flag set.
func traceBody(t *testing.T, cfg JobRequest) *bytes.Reader {
	t.Helper()
	raw, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return bytes.NewReader(raw)
}

// getBody fetches a URL and returns status code plus body bytes.
func getBody(t *testing.T, url string) (int, []byte, http.Header) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, raw, resp.Header
}

// TestTraceEndpoint covers the decision-trace artifact end to end: a
// traced job serves JSONL whose event count matches the run's interval
// count, the chrome format renders a loadable trace_event document, an
// untraced job 404s, and an unknown format 400s.
func TestTraceEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, QueueDepth: 8})

	cfg := fastConfig(200_000, 7)
	var st JobStatus
	code := doJSON(t, ts.Client(), http.MethodPost, ts.URL+"/v1/jobs",
		traceBody(t, JobRequest{Config: &cfg, Trace: true}), &st)
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d", code)
	}
	jobURL := ts.URL + "/v1/jobs/" + st.ID

	// While queued/running the artifact is not ready: 409, not 404.
	if c, _, _ := getBody(t, jobURL+"/trace"); c != http.StatusConflict && c != http.StatusOK {
		// The run may already be done on a fast machine; both are legal.
		t.Fatalf("trace before terminal = %d, want 409 (or 200 if already done)", c)
	}

	final := pollUntil(t, ts.Client(), jobURL, func(s JobStatus) bool { return s.State.Terminal() })
	if final.State != StateDone {
		t.Fatalf("job finished %s (%s)", final.State, final.Error)
	}
	if !final.Trace {
		t.Fatal("terminal status does not advertise the trace artifact")
	}

	code, raw, hdr := getBody(t, jobURL+"/trace")
	if code != http.StatusOK {
		t.Fatalf("GET trace = %d (%s)", code, raw)
	}
	if ct := hdr.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("trace Content-Type = %q", ct)
	}
	events, err := obs.ReadJSONL(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("served trace is not valid JSONL: %v", err)
	}
	if final.Result == nil || uint64(len(events)) != final.Result.Intervals {
		t.Fatalf("trace has %d events, result closed %d intervals", len(events), final.Result.Intervals)
	}
	if last := events[len(events)-1]; last.DCCAfter != final.Result.FinalLevel {
		t.Fatalf("trace ends at DCC %d, result FinalLevel %d", last.DCCAfter, final.Result.FinalLevel)
	}

	// Chrome export: one valid JSON document.
	code, raw, hdr = getBody(t, jobURL+"/trace?format=chrome")
	if code != http.StatusOK {
		t.Fatalf("GET trace?format=chrome = %d", code)
	}
	if ct := hdr.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("chrome Content-Type = %q", ct)
	}
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("chrome trace has no events")
	}

	if code, _, _ := getBody(t, jobURL+"/trace?format=protobuf"); code != http.StatusBadRequest {
		t.Fatalf("unknown format = %d, want 400", code)
	}

	// A job submitted without tracing has no artifact.
	code = doJSON(t, ts.Client(), http.MethodPost, ts.URL+"/v1/jobs",
		traceBody(t, JobRequest{Config: &cfg}), &st)
	if code != http.StatusOK && code != http.StatusAccepted {
		t.Fatalf("untraced submit = %d", code)
	}
	untracedURL := ts.URL + "/v1/jobs/" + st.ID
	pollUntil(t, ts.Client(), untracedURL, func(s JobStatus) bool { return s.State.Terminal() })
	if code, _, _ := getBody(t, untracedURL+"/trace"); code != http.StatusNotFound {
		t.Fatalf("trace of untraced job = %d, want 404", code)
	}
}

// TestTraceCacheHit checks the persisted-trace path: with a store, a
// second identical traced submission is a cache hit that still serves the
// first run's trace.
func TestTraceCacheHit(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{Workers: 1, Store: st})

	cfg := fastConfig(150_000, 11)
	var first JobStatus
	doJSON(t, ts.Client(), http.MethodPost, ts.URL+"/v1/jobs",
		traceBody(t, JobRequest{Config: &cfg, Trace: true}), &first)
	final := pollUntil(t, ts.Client(), ts.URL+"/v1/jobs/"+first.ID,
		func(s JobStatus) bool { return s.State.Terminal() })
	if final.State != StateDone {
		t.Fatalf("first run finished %s (%s)", final.State, final.Error)
	}
	_, want, _ := getBody(t, ts.URL+"/v1/jobs/"+first.ID+"/trace")

	var second JobStatus
	code := doJSON(t, ts.Client(), http.MethodPost, ts.URL+"/v1/jobs",
		traceBody(t, JobRequest{Config: &cfg, Trace: true}), &second)
	if code != http.StatusOK {
		t.Fatalf("identical resubmission = %d, want 200 (cache hit)", code)
	}
	if !second.CacheHit || !second.Trace {
		t.Fatalf("cache hit did not carry the trace (cache_hit=%v trace=%v)", second.CacheHit, second.Trace)
	}
	code, got, _ := getBody(t, ts.URL+"/v1/jobs/"+second.ID+"/trace")
	if code != http.StatusOK {
		t.Fatalf("cache-hit trace = %d", code)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("cache-hit trace differs from the original run's trace")
	}
}

// TestOneStreamTwoViews: a job submitted with "series" alone serves its
// decision trace too, one JSONL line per interval, and a "trace"
// submission of the same configuration is a cache hit on the stored
// stream, with a byte-identical trace. The store holds no trace file.
func TestOneStreamTwoViews(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{Workers: 1, Store: st})

	cfg := fastConfig(150_000, 23)
	var first JobStatus
	doJSON(t, ts.Client(), http.MethodPost, ts.URL+"/v1/jobs",
		traceBody(t, JobRequest{Config: &cfg, Series: true}), &first)
	final := pollUntil(t, ts.Client(), ts.URL+"/v1/jobs/"+first.ID,
		func(s JobStatus) bool { return s.State.Terminal() })
	if final.State != StateDone || !final.Trace || !final.Series {
		t.Fatalf("series job = %s, trace %v, series %v; want done with both views", final.State, final.Trace, final.Series)
	}
	code, want, _ := getBody(t, ts.URL+"/v1/jobs/"+first.ID+"/trace")
	if lines := bytes.Count(want, []byte{'\n'}); code != http.StatusOK || lines == 0 || uint64(lines) != final.Result.Intervals {
		t.Fatalf("series job's trace = %d with %d lines; want 200 and one line per interval (%d)",
			code, lines, final.Result.Intervals)
	}

	var second JobStatus
	code = doJSON(t, ts.Client(), http.MethodPost, ts.URL+"/v1/jobs",
		traceBody(t, JobRequest{Config: &cfg, Trace: true}), &second)
	if code != http.StatusOK || !second.CacheHit || !second.Trace || !second.Series {
		t.Fatalf("trace submission over a stored series = %d, cache_hit %v, trace %v, series %v; want a 200 hit",
			code, second.CacheHit, second.Trace, second.Series)
	}
	if _, got, _ := getBody(t, ts.URL+"/v1/jobs/"+second.ID+"/trace"); !bytes.Equal(got, want) {
		t.Fatal("cache hit's trace differs from the series job's")
	}
	if files, _ := filepath.Glob(filepath.Join(dir, "*", "*.trace.jsonl")); len(files) != 0 {
		t.Fatalf("store holds trace files %v", files)
	}
}
