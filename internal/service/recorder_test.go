package service

import (
	"bytes"
	"log/slog"
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

// syncBuffer is a log sink a test reads while the server writes to it.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// debugEvents is the GET /debug/events body.
type debugEvents struct {
	Spans   []obs.Span `json:"spans"`
	Held    int        `json:"held"`
	Dropped int        `json:"dropped"`
}

func getDebugEvents(t *testing.T, client *http.Client, url string) debugEvents {
	t.Helper()
	var ev debugEvents
	if code := doJSON(t, client, http.MethodGet, url+"/debug/events", nil, &ev); code != http.StatusOK {
		t.Fatalf("GET /debug/events = %d", code)
	}
	return ev
}

// sweepRoots returns the root spans of sweep id among spans.
func sweepRoots(spans []obs.Span, id string) []obs.Span {
	var roots []obs.Span
	for _, sp := range spans {
		if sp.Name == "sweep" && sp.Attrs["sweep"] == id {
			roots = append(roots, sp)
		}
	}
	return roots
}

// waitSweep waits for a sweep to end.
func waitSweep(t *testing.T, sw *Sweep) {
	t.Helper()
	select {
	case <-sw.Done():
	case <-time.After(60 * time.Second):
		t.Fatalf("sweep %s never finished", sw.ID())
	}
}

// TestDebugEvents checks the flight recorder, a view of the spans the
// jobs hold. One executed job records four spans (queue, run, store,
// job) and each of 4,100 cache hits one, so /debug/events returns the
// 4,096 that end last, in end order, leaves out 8, and /metrics agrees.
// A running sweep's root span joins the view only once the sweep ends.
func TestDebugEvents(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 1})
	client := ts.Client()
	run := sim.Job{Cfg: fastConfig(2_000, 1)}
	first, err := srv.Submit(run, Submission{})
	if err != nil {
		t.Fatal(err)
	}
	if st := waitJob(t, first); st.State != StateDone {
		t.Fatalf("first job ended %s (%s)", st.State, st.Error)
	}
	for i := 0; i < 4100; i++ {
		j, err := srv.Submit(run, Submission{})
		if err != nil {
			t.Fatal(err)
		}
		if !j.Status().CacheHit {
			t.Fatalf("submission %d missed the memo", i)
		}
	}

	ev := getDebugEvents(t, client, ts.URL)
	if ev.Held != 4096 || ev.Dropped != 8 || len(ev.Spans) != 4096 {
		t.Fatalf("/debug/events held %d (%d spans), dropped %d; want 4096 and 8", ev.Held, len(ev.Spans), ev.Dropped)
	}
	held := make(map[string]bool, len(ev.Spans))
	for i, sp := range ev.Spans {
		if i > 0 && sp.End.Before(ev.Spans[i-1].End) {
			t.Fatalf("span %d ends at %v, before span %d at %v", i, sp.End, i-1, ev.Spans[i-1].End)
		}
		held[sp.SpanID] = true
	}
	// The window is the newest spans: each one it leaves out ends no
	// later than the oldest it holds.
	var left []obs.Span
	for _, j := range srv.Jobs() {
		for _, sp := range j.Spans() {
			if !held[sp.SpanID] {
				left = append(left, sp)
			}
		}
	}
	if len(left) != 8 {
		t.Fatalf("%d job spans are outside the window, want 8", len(left))
	}
	for _, sp := range left {
		if sp.End.After(ev.Spans[0].End) {
			t.Fatalf("left out a %s span ending %v, after the window's first at %v", sp.Name, sp.End, ev.Spans[0].End)
		}
	}
	for name, want := range map[string]float64{
		"fdpserved_spans_held":           4096,
		"fdpserved_spans_dropped_total":  8,
		"fdpserved_spans_recorded_total": 4104,
	} {
		if got := metricValue(t, client, ts.URL, name); got != want {
			t.Errorf("%s = %g, want %g", name, got, want)
		}
	}

	sw, err := srv.SubmitSweep(sweep.Request{Workloads: []string{"seqstream"},
		Configs: []sweep.ConfigAxis{{FDP: true}}, Insts: 50_000_000}, "", "")
	if err != nil {
		t.Fatal(err)
	}
	if roots := sweepRoots(getDebugEvents(t, client, ts.URL).Spans, sw.ID()); len(roots) != 0 {
		t.Fatalf("running sweep already has root spans %+v", roots)
	}
	if _, err := srv.CancelSweep(sw.ID()); err != nil {
		t.Fatal(err)
	}
	waitSweep(t, sw)
	ev = getDebugEvents(t, client, ts.URL)
	roots := sweepRoots(ev.Spans, sw.ID())
	if len(roots) != 1 || roots[0].Attrs["outcome"] != "cancelled" || roots[0].Attrs["cells"] != "1" {
		t.Fatalf("cancelled sweep's root spans = %+v, want one cancelled over 1 cell", roots)
	}
	if recorded := metricValue(t, client, ts.URL, "fdpserved_spans_recorded_total"); recorded != float64(ev.Held+ev.Dropped) {
		t.Fatalf("spans_recorded_total %g, but /debug/events holds %d and drops %d", recorded, ev.Held, ev.Dropped)
	}
}

// TestCachedSweepFinishesOnce: a sweep answered wholly from the store
// ends once. Every cell is a cache hit at admission, so all twelve
// cells' watchers tick the sweep at once; only the tick that ends it
// may record its root span and log "sweep finished".
func TestCachedSweepFinishesOnce(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	logs := &syncBuffer{}
	srv, ts := newTestServer(t, Config{Workers: 2, Store: st, Logger: slog.New(slog.NewTextHandler(logs, nil))})
	client := ts.Client()
	req := sweep.Request{
		Workloads: []string{"seqstream", "chaserand"},
		Configs:   []sweep.ConfigAxis{{Prefetcher: "stream", Level: 5}, {Prefetcher: "stream", FDP: true}, {Prefetcher: "none"}},
		Seeds:     []uint64{1, 2},
		Insts:     20_000,
	}
	fresh, err := srv.SubmitSweep(req, "", "")
	if err != nil {
		t.Fatal(err)
	}
	waitSweep(t, fresh)
	cached, err := srv.SubmitSweep(req, "", "")
	if err != nil {
		t.Fatal(err)
	}
	waitSweep(t, cached)
	if sum := cached.Status().Summary; sum.Total != 12 || sum.CacheHits != 12 {
		t.Fatalf("resubmitted sweep: %d cells, %d cache hits; want 12 and 12", sum.Total, sum.CacheHits)
	}

	// The other cells' watchers tick right after the one that ended the
	// sweep; watch for a while that none of them ends it again.
	finishedLine := `msg="sweep finished" sweep=` + cached.ID() + " "
	for deadline := time.Now().Add(200 * time.Millisecond); time.Now().Before(deadline); time.Sleep(20 * time.Millisecond) {
		ev := getDebugEvents(t, client, ts.URL)
		if roots := sweepRoots(ev.Spans, cached.ID()); len(roots) != 1 {
			t.Fatalf("/debug/events holds %d root spans of the cached sweep, want 1", len(roots))
		}
		if n := strings.Count(logs.String(), finishedLine); n != 1 {
			t.Fatalf("%q logged %d times, want once", finishedLine, n)
		}
		if recorded := metricValue(t, client, ts.URL, "fdpserved_spans_recorded_total"); recorded != float64(ev.Held+ev.Dropped) {
			t.Fatalf("spans_recorded_total %g, but /debug/events holds %d and drops %d", recorded, ev.Held, ev.Dropped)
		}
	}
}
