package obs_test

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"fdpsim/internal/obs"
	"fdpsim/internal/sim"
)

var update = flag.Bool("update", false, "rewrite golden files from the current simulator output")

// hostileTraceConfig is the hostile-workload study (examples/hostile)
// shrunk for testing: a pointer chase that FDP throttles, with a small L2
// and TInterval=64 so sampling intervals close fast.
func hostileTraceConfig() sim.Config {
	cfg := sim.WithFDP(sim.PrefStream)
	cfg.Workload = "chaserand"
	cfg.MaxInsts = 150_000
	cfg.L2Blocks = 1024
	cfg.FDP.TInterval = 64
	return cfg
}

// runJSONL executes the config with a JSONL tracer and returns the trace
// bytes alongside the run's Result.
func runJSONL(t *testing.T, cfg sim.Config) ([]byte, sim.Result) {
	t.Helper()
	var buf bytes.Buffer
	j := obs.NewJSONL(&buf)
	cfg.Tracer = j
	res, err := sim.RunContext(context.Background(), cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if err := j.Close(); err != nil {
		t.Fatalf("jsonl close: %v", err)
	}
	return buf.Bytes(), res
}

// TestGoldenHostileTrace pins the decision trace of the hostile example:
// two runs must produce byte-identical JSONL (the trace is deterministic),
// and the Table 2 case sequence and DCC trajectory must match the
// committed golden file. Regenerate with: go test ./internal/obs -update
func TestGoldenHostileTrace(t *testing.T) {
	got1, res := runJSONL(t, hostileTraceConfig())
	got2, _ := runJSONL(t, hostileTraceConfig())
	if !bytes.Equal(got1, got2) {
		t.Fatal("two identical runs produced different decision traces; the trace is nondeterministic")
	}

	events, err := obs.ReadJSONL(bytes.NewReader(got1))
	if err != nil {
		t.Fatalf("re-reading trace: %v", err)
	}
	if uint64(len(events)) != res.Intervals || res.Intervals == 0 {
		t.Fatalf("trace has %d events, run closed %d intervals", len(events), res.Intervals)
	}
	if last := events[len(events)-1]; last.DCCAfter != res.FinalLevel {
		t.Errorf("trace ends at DCC %d, Result.FinalLevel is %d", last.DCCAfter, res.FinalLevel)
	}

	golden := filepath.Join("testdata", "hostile_decision_trace.golden.jsonl")
	if *update {
		if err := os.WriteFile(golden, got1, 0o644); err != nil {
			t.Fatalf("writing golden: %v", err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(got1, want) {
		// Diff on the decision sequence, which is what the golden pins.
		wantEvents, _ := obs.ReadJSONL(bytes.NewReader(want))
		for i := range events {
			if i >= len(wantEvents) {
				break
			}
			g, w := events[i], wantEvents[i]
			if g.Case != w.Case || g.DCCAfter != w.DCCAfter || g.Insertion != w.Insertion {
				t.Errorf("interval %d: got case=%d dcc=%d insert=%s, golden case=%d dcc=%d insert=%s",
					i+1, g.Case, g.DCCAfter, g.Insertion, w.Case, w.DCCAfter, w.Insertion)
			}
		}
		t.Fatalf("decision trace deviates from golden (%d vs %d events); run with -update if the change is intended",
			len(events), len(wantEvents))
	}
}

// TestJSONLRoundTrip checks Write/Read are inverses.
func TestJSONLRoundTrip(t *testing.T) {
	got, _ := runJSONL(t, hostileTraceConfig())
	events, err := obs.ReadJSONL(bytes.NewReader(got))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := obs.WriteJSONL(&buf, events); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, buf.Bytes()) {
		t.Fatal("JSONL round-trip is not byte-stable")
	}
}

// TestChromeTrace checks the exporter emits one valid trace_event
// document with the documented counter tracks, one point per interval.
func TestChromeTrace(t *testing.T) {
	raw, res := runJSONL(t, hostileTraceConfig())
	events, err := obs.ReadJSONL(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := obs.WriteChrome(&buf, events); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Pid  int            `json:"pid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	tracks := map[string]int{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "C" {
			tracks[ev.Name]++
		}
	}
	for _, want := range []string{"accuracy %", "lateness %", "pollution %", "DCC", "prefetch config", "insertion depth"} {
		if got := tracks[want]; got != int(res.Intervals) {
			t.Errorf("counter track %q has %d points, want one per interval (%d)", want, got, res.Intervals)
		}
	}
}

// TestCollectorLimit checks the in-memory sink's bound.
func TestCollectorLimit(t *testing.T) {
	c := &obs.Collector{Limit: 3}
	for i := 0; i < 10; i++ {
		c.TraceDecision(sim.DecisionEvent{Interval: uint64(i + 1)})
	}
	if got := len(c.Events()); got != 3 {
		t.Fatalf("collector kept %d events, want 3", got)
	}
	if got := c.Truncated(); got != 7 {
		t.Fatalf("truncated = %d, want 7", got)
	}
	if !reflect.DeepEqual(c.Events()[2].Interval, uint64(3)) {
		t.Fatal("collector did not keep the earliest events")
	}
}
