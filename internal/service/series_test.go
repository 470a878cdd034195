package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"fdpsim/internal/series"
	"fdpsim/internal/store"
	"fdpsim/internal/sweep"
)

// TestSeriesEndpoint covers the per-job series artifact: a recorded job
// serves the full catalog with one value per interval, metric selection
// and downsampling work, CSV renders, and the error surface (unknown
// metric, bad step, unknown format, unrecorded job) is precise.
func TestSeriesEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, QueueDepth: 8})

	cfg := fastConfig(200_000, 7)
	var st JobStatus
	code := doJSON(t, ts.Client(), http.MethodPost, ts.URL+"/v1/jobs",
		traceBody(t, JobRequest{Config: &cfg, Series: true}), &st)
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d", code)
	}
	jobURL := ts.URL + "/v1/jobs/" + st.ID

	final := pollUntil(t, ts.Client(), jobURL, func(s JobStatus) bool { return s.State.Terminal() })
	if final.State != StateDone {
		t.Fatalf("job finished %s (%s)", final.State, final.Error)
	}
	if !final.Series {
		t.Fatal("terminal status does not advertise the series artifact")
	}

	code, raw, _ := getBody(t, jobURL+"/series")
	if code != http.StatusOK {
		t.Fatalf("GET series = %d (%s)", code, raw)
	}
	var resp struct {
		Meta    series.Meta `json:"meta"`
		Step    int         `json:"step"`
		Metrics []struct {
			Name    string          `json:"name"`
			Values  []float64       `json:"values"`
			Buckets []series.Bucket `json:"buckets"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal(raw, &resp); err != nil {
		t.Fatalf("series response is not JSON: %v", err)
	}
	if final.Result == nil || uint64(resp.Meta.Intervals) != final.Result.Intervals {
		t.Fatalf("series spans %d intervals, result closed %d", resp.Meta.Intervals, final.Result.Intervals)
	}
	if len(resp.Metrics) != series.NumMetrics {
		t.Fatalf("series has %d metrics, catalog has %d", len(resp.Metrics), series.NumMetrics)
	}
	for _, m := range resp.Metrics {
		if len(m.Values) != resp.Meta.Intervals {
			t.Fatalf("metric %s has %d values over %d intervals", m.Name, len(m.Values), resp.Meta.Intervals)
		}
	}

	// Metric selection + downsampling.
	code, raw, _ = getBody(t, jobURL+"/series?metrics=ipc,dcc_level&step=8")
	if code != http.StatusOK {
		t.Fatalf("GET selected series = %d (%s)", code, raw)
	}
	resp.Metrics = nil
	if err := json.Unmarshal(raw, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Metrics) != 2 || resp.Metrics[0].Name != "ipc" || resp.Metrics[1].Name != "dcc_level" {
		t.Fatalf("metric selection returned %+v", resp.Metrics)
	}
	if resp.Step != 8 || len(resp.Metrics[0].Buckets) == 0 || len(resp.Metrics[0].Values) != 0 {
		t.Fatalf("step=8 did not downsample (step=%d buckets=%d values=%d)",
			resp.Step, len(resp.Metrics[0].Buckets), len(resp.Metrics[0].Values))
	}

	// CSV: header row names the selected columns; one row per interval.
	code, raw, hdr := getBody(t, jobURL+"/series?metrics=ipc,bpki&format=csv")
	if code != http.StatusOK {
		t.Fatalf("GET csv series = %d", code)
	}
	if ct := hdr.Get("Content-Type"); !strings.HasPrefix(ct, "text/csv") {
		t.Fatalf("csv Content-Type = %q", ct)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if lines[0] != "interval,ipc,bpki" {
		t.Fatalf("csv header = %q", lines[0])
	}
	if len(lines)-1 != resp.Meta.Intervals {
		t.Fatalf("csv has %d rows over %d intervals", len(lines)-1, resp.Meta.Intervals)
	}

	// Windowed CSV carries min/mean/max/p95 columns.
	_, raw, _ = getBody(t, jobURL+"/series?metrics=ipc&step=16&format=csv")
	head := strings.SplitN(string(raw), "\n", 2)[0]
	if head != "start,n,ipc_min,ipc_mean,ipc_max,ipc_p95" {
		t.Fatalf("windowed csv header = %q", head)
	}

	for _, bad := range []string{"?metrics=nope", "?step=0", "?step=x", "?format=parquet"} {
		if code, _, _ := getBody(t, jobURL+"/series"+bad); code != http.StatusBadRequest {
			t.Fatalf("GET series%s = %d, want 400", bad, code)
		}
	}

	// A job submitted without series recording has no artifact.
	code = doJSON(t, ts.Client(), http.MethodPost, ts.URL+"/v1/jobs",
		traceBody(t, JobRequest{Config: &cfg}), &st)
	if code != http.StatusOK && code != http.StatusAccepted {
		t.Fatalf("bare submit = %d", code)
	}
	bareURL := ts.URL + "/v1/jobs/" + st.ID
	pollUntil(t, ts.Client(), bareURL, func(s JobStatus) bool { return s.State.Terminal() })
	if code, _, _ := getBody(t, bareURL+"/series"); code != http.StatusNotFound {
		t.Fatalf("series of unrecorded job = %d, want 404", code)
	}
}

// TestSeriesCacheHitAndDiff drives the acceptance scenario: with a store,
// an identical resubmission is a cache hit served from the sidecar, and a
// self-diff of the two fingerprints reports zero residual on every
// catalog metric with a pass verdict. The diff counter on /metrics moves.
func TestSeriesCacheHitAndDiff(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{Workers: 1, Store: st})

	cfg := fastConfig(150_000, 11)
	var first JobStatus
	doJSON(t, ts.Client(), http.MethodPost, ts.URL+"/v1/jobs",
		traceBody(t, JobRequest{Config: &cfg, Series: true}), &first)
	fin := pollUntil(t, ts.Client(), ts.URL+"/v1/jobs/"+first.ID,
		func(s JobStatus) bool { return s.State.Terminal() })
	if fin.State != StateDone {
		t.Fatalf("first run finished %s (%s)", fin.State, fin.Error)
	}
	_, want, _ := getBody(t, ts.URL+"/v1/jobs/"+first.ID+"/series")

	var second JobStatus
	code := doJSON(t, ts.Client(), http.MethodPost, ts.URL+"/v1/jobs",
		traceBody(t, JobRequest{Config: &cfg, Series: true}), &second)
	if code != http.StatusOK {
		t.Fatalf("identical resubmission = %d, want 200 (cache hit)", code)
	}
	if !second.CacheHit || !second.Series {
		t.Fatalf("cache hit did not carry the series (cache_hit=%v series=%v)", second.CacheHit, second.Series)
	}
	code, got, _ := getBody(t, ts.URL+"/v1/jobs/"+second.ID+"/series")
	if code != http.StatusOK {
		t.Fatalf("cache-hit series = %d", code)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("cache-hit series differs from the original run's series")
	}

	// Self-diff: identical fingerprints must have zero residual everywhere.
	code, raw, _ := getBody(t, ts.URL+"/v1/diff?a="+fin.Fingerprint+"&b="+second.Fingerprint)
	if code != http.StatusOK {
		t.Fatalf("GET diff = %d (%s)", code, raw)
	}
	var rep series.Report
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Verdict != series.VerdictPass || len(rep.Failed) != 0 {
		t.Fatalf("self-diff verdict = %s (failed %v)", rep.Verdict, rep.Failed)
	}
	if len(rep.Metrics) != series.NumMetrics {
		t.Fatalf("diff covers %d metrics, catalog has %d", len(rep.Metrics), series.NumMetrics)
	}
	for _, m := range rep.Metrics {
		if m.MaxAbs != 0 || m.RMS != 0 || m.FirstDivergence != 0 {
			t.Fatalf("self-diff metric %s has residual (max=%g rms=%g first=%d)",
				m.Metric, m.MaxAbs, m.RMS, m.FirstDivergence)
		}
	}

	if code, _, _ := getBody(t, ts.URL+"/v1/diff?a="+fin.Fingerprint); code != http.StatusBadRequest {
		t.Fatalf("diff without b = %d, want 400", code)
	}
	if code, _, _ := getBody(t, ts.URL+"/v1/diff?a="+fin.Fingerprint+"&b="+strings.Repeat("0", 64)); code != http.StatusNotFound {
		t.Fatalf("diff of unknown fingerprint = %d, want 404", code)
	}

	// The telemetry families moved: one pass verdict, two error counts,
	// and a nonzero points/bytes total from the recorded run.
	_, metrics, _ := getBody(t, ts.URL+"/metrics")
	for _, want := range []string{
		`fdpserved_diff_requests_total{verdict="pass"} 1`,
		`fdpserved_diff_requests_total{verdict="error"} 2`,
	} {
		if !strings.Contains(string(metrics), want) {
			t.Fatalf("/metrics missing %q", want)
		}
	}
	for _, family := range []string{"sim_series_points_total", "sim_series_bytes_total"} {
		if strings.Contains(string(metrics), family+" 0\n") || !strings.Contains(string(metrics), family) {
			t.Fatalf("/metrics %s absent or zero after a recorded run:\n%s", family, metrics)
		}
	}
}

// TestSweepSeries checks the sweep-level merged series: every recorded
// cell contributes, and the merged document spans the catalog at the
// shortest common interval count.
func TestSweepSeries(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 4, QueueDepth: 8})
	client := ts.Client()

	req := sweep.Request{
		Name:      "series",
		Workloads: []string{"seqstream"},
		Configs: []sweep.ConfigAxis{
			{Prefetcher: "stream", FDP: true},
			{Prefetcher: "stream", Level: 3},
		},
		Seeds:     []uint64{1, 2},
		Insts:     2_000_000,
		TInterval: 64,
		Series:    true,
	}
	var sws SweepStatus
	if code := doJSON(t, client, http.MethodPost, ts.URL+"/v1/sweeps", sweepBody(t, req), &sws); code != http.StatusAccepted {
		t.Fatalf("sweep submit = %d", code)
	}
	pollSweep(t, client, ts.URL+"/v1/sweeps/"+sws.ID, func(s SweepStatus) bool {
		return s.State != "running"
	})

	code, raw, _ := getBody(t, ts.URL+"/v1/sweeps/"+sws.ID+"/series?metrics=ipc,accuracy")
	if code != http.StatusOK {
		t.Fatalf("GET sweep series = %d (%s)", code, raw)
	}
	var resp struct {
		Meta    series.Meta `json:"meta"`
		Metrics []struct {
			Name   string    `json:"name"`
			Values []float64 `json:"values"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal(raw, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Meta.Controller != "merged" || resp.Meta.Intervals == 0 {
		t.Fatalf("merged meta = %+v", resp.Meta)
	}
	if len(resp.Metrics) != 2 || len(resp.Metrics[0].Values) != resp.Meta.Intervals {
		t.Fatalf("merged series shape: %d metrics, %d values over %d intervals",
			len(resp.Metrics), len(resp.Metrics[0].Values), resp.Meta.Intervals)
	}

	// A sweep submitted without series recording has nothing to merge.
	req.Series = false
	req.Name = "bare"
	var bare SweepStatus
	doJSON(t, client, http.MethodPost, ts.URL+"/v1/sweeps", sweepBody(t, req), &bare)
	pollSweep(t, client, ts.URL+"/v1/sweeps/"+bare.ID, func(s SweepStatus) bool {
		return s.State != "running"
	})
	if code, _, _ := getBody(t, ts.URL+"/v1/sweeps/"+bare.ID+"/series"); code != http.StatusNotFound {
		t.Fatalf("series of unrecorded sweep = %d, want 404", code)
	}
}

// TestStreamEndpointStatus: /trace and /series resolve a job to its
// interval stream through one path, so they answer each failure alike —
// unknown job 404, running job 409, no stream 404, and 500 for a stream
// that does not decode.
func TestStreamEndpointStatus(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 2, QueueDepth: 8})
	submit := func(req JobRequest) string {
		var st JobStatus
		if code := doJSON(t, ts.Client(), http.MethodPost, ts.URL+"/v1/jobs", traceBody(t, req), &st); code != http.StatusAccepted {
			t.Fatalf("submit = %d", code)
		}
		return st.ID
	}
	slow, fast := slowConfig(940), fastConfig(60_000, 941)
	running := submit(JobRequest{Config: &slow, Series: true})
	defer doJSON(t, ts.Client(), http.MethodDelete, ts.URL+"/v1/jobs/"+running, nil, nil)
	pollUntil(t, ts.Client(), ts.URL+"/v1/jobs/"+running, func(s JobStatus) bool { return s.State == StateRunning })
	bare := submit(JobRequest{Config: &fast})
	pollUntil(t, ts.Client(), ts.URL+"/v1/jobs/"+bare, func(s JobStatus) bool { return s.State.Terminal() })

	check := func(name, id string, want int) {
		t.Helper()
		for _, endpoint := range []string{"trace", "series"} {
			if code, body, _ := getBody(t, ts.URL+"/v1/jobs/"+id+"/"+endpoint); code != want {
				t.Errorf("/%s of %s = %d (%s), want %d", endpoint, name, code, body, want)
			}
		}
	}
	for _, tc := range []struct {
		name, id string
		want     int
	}{
		{"an unknown job", "no-such-job", http.StatusNotFound},
		{"a running job", running, http.StatusConflict},
		{"a job that recorded no stream", bare, http.StatusNotFound},
	} {
		check(tc.name, tc.id, tc.want)
	}

	job, _ := srv.Job(bare)
	job.mu.Lock()
	job.seriesBin = []byte("not a series document")
	job.mu.Unlock()
	check("a stream that does not decode", bare, http.StatusInternalServerError)
}
