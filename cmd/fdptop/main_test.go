package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"fdpsim"
	"fdpsim/internal/obs"
	"fdpsim/internal/stats"
)

const golden = "testdata/attr_trace.jsonl"

func goldenEvents(t *testing.T) []fdpsim.DecisionEvent {
	t.Helper()
	f, err := os.Open(golden)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	events, err := obs.ReadJSONL(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("golden trace has no events")
	}
	return events
}

// The checked-in golden must carry attribution samples whose stall
// buckets sum to the interval's cycle count — the dashboard's 100%
// guarantee rests on it. An interval boundary fires mid-Tick, before the
// firing cycle's bucket is recorded, so each boundary's stamp may sit one
// cycle past the classified count; the skew never accumulates.
func TestGoldenSamplesSumToCycles(t *testing.T) {
	events := goldenEvents(t)
	var prevCycle, sumTotals uint64
	for _, ev := range events {
		total := ev.Sample.Cycles.Total()
		if total == 0 {
			t.Fatalf("interval %d: no attribution sample", ev.Interval)
		}
		sumTotals += total
		if ev.Cycle > prevCycle {
			delta := ev.Cycle - prevCycle
			if diff := int64(total) - int64(delta); diff < -1 || diff > 1 {
				t.Errorf("interval %d: sample cycles %d != interval delta %d",
					ev.Interval, total, delta)
			}
		}
		prevCycle = ev.Cycle
	}
	last := events[len(events)-1].Cycle
	if diff := int64(sumTotals) - int64(last); diff < -1 || diff > 1 {
		t.Errorf("samples sum to %d cycles, last boundary at %d — skew accumulated", sumTotals, last)
	}
}

func TestReplayOnce(t *testing.T) {
	var buf strings.Builder
	if err := replayTrace(&buf, golden, true, 0); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	// One frame, not one per event.
	if n := strings.Count(out, "fdptop —"); n != 1 {
		t.Fatalf("-once rendered %d frames, want 1\n%s", n, out)
	}
	for _, want := range []string{
		"[done]", "interval", "IPC", "ipc ", "stall breakdown",
		"retire full", "rob full", "frontend",
		"bus ", "util", "row-hit", "mshr mean", "fdp ", "insert",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("frame missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "no attribution samples") {
		t.Errorf("golden replay fell into the no-attribution path:\n%s", out)
	}
}

func TestReplayEveryFrame(t *testing.T) {
	events := goldenEvents(t)
	var buf strings.Builder
	if err := replayTrace(&buf, golden, false, 0); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(buf.String(), "fdptop —"); n != len(events) {
		t.Fatalf("rendered %d frames, want one per event (%d)", n, len(events))
	}
}

func TestReplayErrors(t *testing.T) {
	if err := replayTrace(&strings.Builder{}, "testdata/absent.jsonl", true, 0); err == nil {
		t.Error("missing trace: want error")
	}
	empty := t.TempDir() + "/empty.jsonl"
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := replayTrace(&strings.Builder{}, empty, true, 0); err == nil {
		t.Error("empty trace: want error")
	}
}

// TestStallSharesSumTo100 renders every golden event and checks the
// stall pane's percentages add up to 100 within rounding slack.
func TestStallSharesSumTo100(t *testing.T) {
	for _, ev := range goldenEvents(t) {
		d := newDash("test")
		d.observe(frameFromEvent(ev))
		var buf strings.Builder
		d.render(&buf)
		var sum float64
		n := 0
		for _, line := range strings.Split(buf.String(), "\n") {
			if !strings.ContainsAny(line, "█░") { // only the stall bars use block chars
				continue
			}
			var pct float64
			if _, err := fmt.Sscanf(line[strings.LastIndexByte(line, ' ')+1:], "%f%%", &pct); err == nil {
				sum += pct
				n++
			}
		}
		if n != 7 {
			t.Fatalf("interval %d: found %d stall rows, want 7\n%s", ev.Interval, n, buf.String())
		}
		if sum < 99.5 || sum > 100.5 {
			t.Errorf("interval %d: stall shares sum to %.2f%%, want 100%%", ev.Interval, sum)
		}
	}
}

func TestFrameFromEvent(t *testing.T) {
	ev := fdpsim.DecisionEvent{
		Interval: 7, Cycle: 2000, Retired: 1000,
		Accuracy: 0.5, DCCAfter: 4, Insertion: "MRU",
		Sample: stats.IntervalSample{Cycles: stats.CycleBuckets{RetireFull: 10}},
	}
	f := frameFromEvent(ev)
	if f.IPC != 0.5 {
		t.Errorf("IPC = %v, want 0.5", f.IPC)
	}
	if f.Level != 4 || f.Insertion != "MRU" || f.Sample.Cycles.RetireFull != 10 {
		t.Errorf("mapping lost fields: %+v", f)
	}
	if z := frameFromEvent(fdpsim.DecisionEvent{Retired: 5}); z.IPC != 0 {
		t.Errorf("zero-cycle event: IPC = %v, want 0", z.IPC)
	}
}

func TestScanSSE(t *testing.T) {
	stream := "event: state\ndata: {\"a\":1}\n\n" +
		": comment\n" +
		"event: progress\ndata: {\"b\":2}\n\n" +
		"event: done\ndata: {}\n\n"
	var got []string
	err := scanSSE(strings.NewReader(stream), func(event string, data []byte) error {
		got = append(got, event+"|"+string(data))
		if event == "done" {
			return errDone
		}
		return nil
	})
	if err != errDone {
		t.Fatalf("err = %v, want errDone", err)
	}
	want := []string{"state|{\"a\":1}", "progress|{\"b\":2}", "done|{}"}
	if len(got) != len(want) {
		t.Fatalf("events = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("event %d = %q, want %q", i, got[i], want[i])
		}
	}
}

// TestAttachSSE drives attach against a fake fdpserved event stream and
// checks the dashboard renders the live interval events, attribution
// included, and closes on the done event's Result — the only source of
// BPKI. A cache hit streams no interval and renders from the Result alone.
func TestAttachSSE(t *testing.T) {
	events := []fdpsim.DecisionEvent{
		{Interval: 1, Cycle: 1000, Retired: 600, DCCAfter: 3, Insertion: "MID",
			Sample: stats.IntervalSample{
				Cycles:          stats.CycleBuckets{RetireFull: 700, StallLoadMiss: 300},
				BusDemandCycles: 400, BusUtilization: 0.4,
				RowHits: 30, RowMisses: 10, MSHRMean: 2.5, QueueMean: 1.25,
			}},
		{Interval: 2, Cycle: 2000, Retired: 1300, DCCAfter: 4, Insertion: "MRU",
			Sample: stats.IntervalSample{Cycles: stats.CycleBuckets{RetireFull: 1000}}},
	}
	done := `{"id":"j1","state":"done","result":{"IPC":0.6,"BPKI":11.5,"Intervals":2,"FinalLevel":4}}`
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/event-stream")
		switch r.URL.Path {
		case "/v1/jobs/j1/events":
			fmt.Fprintf(w, "event: state\ndata: {\"id\":\"j1\"}\n\n")
			for _, ev := range events {
				data, err := json.Marshal(ev)
				if err != nil {
					t.Error(err)
					return
				}
				fmt.Fprintf(w, "event: progress\ndata: %s\n\n", data)
			}
			fmt.Fprintf(w, "event: done\ndata: %s\n\n", done)
		case "/v1/jobs/hit/events":
			fmt.Fprintf(w, "event: state\ndata: {\"id\":\"hit\"}\n\nevent: done\ndata: %s\n\n", done)
		default:
			http.NotFound(w, r)
		}
	}))
	defer srv.Close()
	addr := strings.TrimPrefix(srv.URL, "http://")

	var buf strings.Builder
	if err := attach(&buf, addr, "j1", false); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	// Two progress frames plus the closing frame.
	frames := strings.Split(out, "fdptop —")[1:]
	if len(frames) != 3 {
		t.Fatalf("rendered %d frames, want 3\n%s", len(frames), out)
	}
	for i, want := range []string{"BPKI     -", "BPKI     -", "[done]"} {
		if !strings.Contains(frames[i], want) {
			t.Errorf("frame %d missing %q:\n%s", i, want, frames[i])
		}
	}
	for _, want := range []string{
		"job j1 @ " + addr, "IPC  0.600", "IPC  0.650", "BPKI  11.50",
		"stall breakdown", "util  40.0%", "row-hit  75.0%",
		"mshr mean  2.50", "queue mean  1.25", "insert MRU",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}

	// -once: only the closing frame.
	for _, job := range []string{"j1", "hit"} {
		buf.Reset()
		if err := attach(&buf, addr, job, true); err != nil {
			t.Fatalf("%s: %v", job, err)
		}
		if n := strings.Count(buf.String(), "fdptop —"); n != 1 {
			t.Fatalf("%s: -once rendered %d frames, want 1", job, n)
		}
		for _, want := range []string{"[done]", "interval 2 ", "BPKI  11.50", "level 4"} {
			if !strings.Contains(buf.String(), want) {
				t.Errorf("%s: -once frame missing %q:\n%s", job, want, buf.String())
			}
		}
	}

	// Unknown jobs surface the server's error.
	if err := attach(&strings.Builder{}, addr, "nope", true); err == nil {
		t.Error("unknown job: want error")
	}
}

func TestSparkline(t *testing.T) {
	if got := sparkline(nil); !strings.Contains(got, "no samples") {
		t.Errorf("empty sparkline = %q", got)
	}
	got := sparkline([]float64{0.1, 0.5, 1.0})
	if !strings.Contains(got, "min 0.100") || !strings.Contains(got, "max 1.000") {
		t.Errorf("sparkline range labels missing: %q", got)
	}
	if !strings.ContainsRune(got, '▁') || !strings.ContainsRune(got, '█') {
		t.Errorf("sparkline should span min..max ticks: %q", got)
	}
	// Flat history renders mid-height, not bottom.
	if flat := sparkline([]float64{0.5, 0.5}); strings.ContainsRune(flat, '▁') {
		t.Errorf("flat sparkline rendered bottom ticks: %q", flat)
	}
}

func TestBar(t *testing.T) {
	if got := bar(0, 10); got != strings.Repeat("░", 10) {
		t.Errorf("bar(0) = %q", got)
	}
	if got := bar(1, 10); got != strings.Repeat("█", 10) {
		t.Errorf("bar(1) = %q", got)
	}
	if got := bar(2, 4); got != "████" {
		t.Errorf("bar clamps above 1: %q", got)
	}
	if got := bar(-1, 4); got != "░░░░" {
		t.Errorf("bar clamps below 0: %q", got)
	}
}

// The replay path must stay fast enough for CI smoke use even with the
// pacing flag set, because non-TTY writers skip the sleep entirely.
func TestReplayNonTTYSkipsPacing(t *testing.T) {
	start := time.Now()
	var buf strings.Builder
	if err := replayTrace(&buf, golden, false, 200*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("non-TTY replay took %v; pacing sleep should not apply", elapsed)
	}
}
