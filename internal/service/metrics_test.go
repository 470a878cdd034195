package service

import (
	"bytes"
	"fmt"
	"reflect"
	"regexp"
	"strconv"
	"testing"
	"time"

	"fdpsim/internal/series"
	"fdpsim/internal/sim"
)

// TestHistogramObserveSnapshot checks that observations land in the
// first bucket whose bound holds them, and that snapshots are cumulative.
func TestHistogramObserveSnapshot(t *testing.T) {
	var h histogram
	h.init([]float64{0.001, 0.1, 1, 10})
	if len(h.counts) != 5 {
		t.Fatalf("counts has %d slots, want 5 (bounds + +Inf)", len(h.counts))
	}
	h.observe(0.05) // ≤ 0.1
	h.observe(0.05)
	h.observe(5)   // ≤ 10
	h.observe(100) // +Inf
	cum, sum, count := h.snapshot()
	if count != 4 || sum != 105.1 {
		t.Fatalf("count=%d sum=%g, want 4 and 105.1", count, sum)
	}
	if got := []uint64{cum[0], cum[1], cum[2], cum[3], cum[4]}; !reflect.DeepEqual(got, []uint64{0, 2, 2, 3, 4}) {
		t.Fatalf("cumulative buckets = %v, want [0 2 2 3 4]", got)
	}
}

// TestBuildVersionReadOnce checks that the build info is read once per
// process: every finished job's ledger line asks for it again.
func TestBuildVersionReadOnce(t *testing.T) {
	version, goVersion := buildVersion()
	if version == "" || goVersion == "" {
		t.Fatalf("buildVersion() = %q, %q", version, goVersion)
	}
	if allocs := testing.AllocsPerRun(100, func() { buildVersion() }); allocs != 0 {
		t.Fatalf("buildVersion allocated %.1f objects per call after the first, want 0", allocs)
	}
}

// TestMetricsNewSeries checks the observability additions render: the
// interval counter and rate, the per-position insertion counters, the DCC
// distribution gauges, the trace counters, the series points and the
// flight-recorder window derived from other counters, and the HTTP
// histogram.
func TestMetricsNewSeries(t *testing.T) {
	var m metrics
	m.init()
	for i := 0; i < 7; i++ {
		m.observeInterval(&sim.DecisionEvent{Controller: "fdp", Insertion: "MID"})
	}
	m.observeInterval(&sim.DecisionEvent{Controller: "fdp", Insertion: "MRU"})
	m.observeInterval(&sim.DecisionEvent{Controller: "dspatch-dual", Insertion: "LRU"}) // own series
	m.httpDur.observe(0.002)
	m.traceEvents.Add(3)
	m.spansRecorded.Add(4100)

	var buf bytes.Buffer
	m.render(&buf, 0, 10*time.Second, map[string][6]int{
		"fdp":  {0, 0, 1, 0, 0, 2},
		"tree": {0, 1, 0, 0, 0, 0},
	}, nil, 0)
	out := buf.String()

	for _, want := range []string{
		"fdpserved_sim_intervals_total 9",
		"fdpserved_sim_intervals_per_second 0.9",
		`fdpserved_insertion_policy_total{controller="fdp",position="MID"} 7`,
		`fdpserved_insertion_policy_total{controller="fdp",position="MRU"} 1`,
		`fdpserved_insertion_policy_total{controller="fdp",position="LRU"} 0`,
		`fdpserved_insertion_policy_total{controller="dspatch-dual",position="LRU"} 1`,
		`fdpserved_dcc_level_jobs{controller="fdp",level="2"} 1`,
		`fdpserved_dcc_level_jobs{controller="fdp",level="5"} 2`,
		`fdpserved_dcc_level_jobs{controller="tree",level="1"} 1`,
		"fdpserved_traces_collected_total 0",
		fmt.Sprintf("fdpserved_sim_series_points_total %d\n", 3*series.NumMetrics),
		"fdpserved_spans_recorded_total 4100\n",
		"fdpserved_spans_held 4096\n",
		"fdpserved_spans_dropped_total 4\n",
		"fdpserved_http_request_duration_seconds_count 1",
	} {
		if !bytes.Contains(buf.Bytes(), []byte(want)) {
			t.Errorf("metrics output missing %q", want)
		}
	}

	// Histogram buckets must parse and be ascending for every family.
	re := regexp.MustCompile(`_bucket\{le="([^"]+)"\}`)
	prev := -1.0
	for _, match := range re.FindAllStringSubmatch(out, -1) {
		if match[1] == "+Inf" {
			prev = -1.0 // next family starts over
			continue
		}
		v, err := strconv.ParseFloat(match[1], 64)
		if err != nil {
			t.Fatalf("unparsable bucket bound %q", match[1])
		}
		if v <= prev {
			t.Fatalf("bucket bound %g not ascending (previous %g)", v, prev)
		}
		prev = v
	}
}
