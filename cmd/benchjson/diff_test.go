package main

import (
	"bytes"
	"strings"
	"testing"
)

// bench builds one report entry with measured time and alloc metrics.
func bench(pkg, name string, ns, allocs float64) Benchmark {
	return Benchmark{
		Name: name, Package: pkg, Iterations: 1000,
		NsPerOp: ns, AllocsPerOp: allocs,
		Metrics: map[string]float64{"ns/op": ns, "allocs/op": allocs},
	}
}

func TestDiffReports(t *testing.T) {
	old := Report{CPU: "cpu-a", Benchmarks: []Benchmark{
		bench("p", "Steady", 100, 0),
		bench("p", "Slower", 100, 0),
		bench("p", "Allocs", 100, 0),
		bench("p", "Removed", 100, 0),
	}}
	cur := Report{CPU: "cpu-a", Benchmarks: []Benchmark{
		bench("p", "Steady", 105, 0), // +5%: inside the 10% band
		bench("p", "Slower", 150, 0), // +50%: time regression
		bench("p", "Allocs", 90, 2),  // faster but allocating: alloc regression
		bench("p", "Added", 100, 0),  // unmatched: ignored
	}}

	deltas, comparable := diffReports(old, cur, 0.10)
	if !comparable {
		t.Fatal("same-CPU reports flagged incomparable")
	}
	if len(deltas) != 3 {
		t.Fatalf("matched %d benchmarks, want 3 (unmatched must be dropped): %+v", len(deltas), deltas)
	}
	want := map[string]string{"Steady": "", "Slower": "ns/op", "Allocs": "allocs/op"}
	for _, d := range deltas {
		if d.Regression != want[d.Name] {
			t.Errorf("%s: regression = %q, want %q", d.Name, d.Regression, want[d.Name])
		}
	}

	// A wider threshold absorbs the time regression but never the allocs.
	deltas, _ = diffReports(old, cur, 1.0)
	for _, d := range deltas {
		if d.Name == "Slower" && d.Regression != "" {
			t.Errorf("Slower regressed at +100%% threshold: %q", d.Regression)
		}
		if d.Name == "Allocs" && d.Regression != "allocs/op" {
			t.Errorf("alloc regression not enforced at wide threshold: %q", d.Regression)
		}
	}
}

// Cross-CPU reports keep the alloc gate but demote time to report-only.
func TestDiffReportsCrossCPU(t *testing.T) {
	old := Report{CPU: "cpu-a", Benchmarks: []Benchmark{
		bench("p", "Slower", 100, 0),
		bench("p", "Allocs", 100, 0),
	}}
	cur := Report{CPU: "cpu-b", Benchmarks: []Benchmark{
		bench("p", "Slower", 500, 0),
		bench("p", "Allocs", 100, 1),
	}}
	deltas, comparable := diffReports(old, cur, 0.10)
	if comparable {
		t.Fatal("different CPUs reported comparable")
	}
	for _, d := range deltas {
		switch d.Name {
		case "Slower":
			if d.Regression != "" {
				t.Errorf("cross-CPU time regression flagged: %q", d.Regression)
			}
		case "Allocs":
			if d.Regression != "allocs/op" {
				t.Errorf("cross-CPU alloc regression not flagged: %q", d.Regression)
			}
		}
	}

	var out bytes.Buffer
	n := renderDiff(&out, "old.json", "new.json", deltas, comparable, 0.10)
	if n != 1 {
		t.Fatalf("renderDiff counted %d regressions, want 1", n)
	}
	if !strings.Contains(out.String(), "different CPUs") {
		t.Fatalf("cross-CPU warning missing:\n%s", out.String())
	}
}

// Benchmarks without -benchmem (no allocs/op metric) must not trip the
// alloc gate on the zero-value AllocsPerOp.
func TestDiffReportsUnmeasuredAllocs(t *testing.T) {
	mk := func(ns float64) Benchmark {
		return Benchmark{Name: "NoMem", Package: "p", Iterations: 1,
			NsPerOp: ns, Metrics: map[string]float64{"ns/op": ns}}
	}
	old := Report{Benchmarks: []Benchmark{mk(100)}}
	cur := Report{Benchmarks: []Benchmark{mk(100)}}
	cur.Benchmarks[0].AllocsPerOp = 5 // stray value without the metric key
	deltas, _ := diffReports(old, cur, 0.10)
	if len(deltas) != 1 || deltas[0].Regression != "" {
		t.Fatalf("unmeasured allocs flagged: %+v", deltas)
	}
}
