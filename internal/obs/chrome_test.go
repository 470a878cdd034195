package obs_test

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"time"

	"fdpsim/internal/obs"
	"fdpsim/internal/sim"
	"fdpsim/internal/stats"
)

// TestChromeExportBytes pins the exact bytes both Chrome trace_event
// exporters write for a small fixture: decision events from two cores,
// one carrying an attribution sample, and fabric spans from two workers
// with a parent link, attributes and a span event. Regenerate with:
// go test ./internal/obs -run TestChromeExportBytes -update
func TestChromeExportBytes(t *testing.T) {
	decisions := []sim.DecisionEvent{
		{Core: 0, Interval: 1, Cycle: 4000, Retired: 1500, Accuracy: 0.25, Lateness: 0.1, Pollution: 0.05,
			AccuracyClass: "low", Case: 7, Update: -1, Reason: "low accuracy, not late", DCCBefore: 3, DCCAfter: 2,
			Distance: 16, Degree: 2, Insertion: "LRU"},
		{Core: 1, Interval: 1, Cycle: 4200, Retired: 1800, Accuracy: 0.9, Lateness: 0.4, Late: true,
			AccuracyClass: "high", Case: 1, Update: 1, Reason: "high accuracy, late", DCCBefore: 3, DCCAfter: 4,
			Distance: 32, Degree: 4, Insertion: "MRU",
			Sample: stats.IntervalSample{
				Cycles:          stats.CycleBuckets{RetireFull: 1000, RetirePartial: 500, StallLoadMiss: 2000, StallDRAMBP: 700},
				BusDemandCycles: 900, BusPrefetchCycles: 600, BusWritebackCycles: 100, BusUtilization: 0.38,
				RowHits: 30, RowMisses: 10, MSHRMean: 12.5, QueueMean: 3.25,
			}},
		{Core: 0, Interval: 2, Cycle: 8000, Retired: 3100, Accuracy: 0.5, AccuracyClass: "medium",
			Polluting: true, Case: 12, Reason: "medium accuracy, polluting", DCCBefore: 2, DCCAfter: 2,
			Distance: 16, Degree: 2, Insertion: "LRU-4"},
	}
	var dec bytes.Buffer
	if err := obs.WriteChrome(&dec, decisions); err != nil {
		t.Fatal(err)
	}

	spans := []obs.Span{
		mkSpan("trace1", "s1", "", "job", "worker-a", "default", 0, 100),
		mkSpan("trace1", "s2", "s1", "run", "worker-a", "default", 10, 80),
		mkSpan("trace1", "s3", "", "job", "worker-b", "alice", 5, 50),
	}
	spans[1].Attrs = map[string]string{"fingerprint": "abc123"}
	spans[1].Events = []obs.SpanEvent{{Name: "lease-renew", Time: spans[1].Start.Add(20 * time.Millisecond),
		Attrs: map[string]string{"owner": "worker-a"}}}
	var sp bytes.Buffer
	if err := obs.WriteSpansChrome(&sp, spans); err != nil {
		t.Fatal(err)
	}

	for _, g := range []struct {
		file string
		got  []byte
	}{
		{"chrome_decisions.golden.json", dec.Bytes()},
		{"chrome_spans.golden.json", sp.Bytes()},
	} {
		path := filepath.Join("testdata", g.file)
		if *update {
			if err := os.WriteFile(path, g.got, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("reading golden (run with -update to create): %v", err)
		}
		if !bytes.Equal(g.got, want) {
			t.Errorf("%s: exporter output differs from the golden bytes:\ngot  %s\nwant %s", g.file, g.got, want)
		}
	}
}
