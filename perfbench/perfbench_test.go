package main

import (
	"encoding/json"
	"io"
	"os"
	"sort"
	"testing"
)

// benchmarkJSON is the part of BENCHMARK.json the self-test checks.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func tinyRun(t *testing.T, workload string, seed uint64, trace bool, digests map[string]string) report {
	t.Helper()
	rep, err := bench(options{
		workload: workload, seed: seed, trace: trace,
		dir: t.TempDir(), scale: "tiny", digests: digests,
	}, io.Discard, io.Discard)
	if err != nil {
		t.Fatalf("%s seed %d trace %v: %v", workload, seed, trace, err)
	}
	return rep
}

// TestSmoke runs every workload at the tiny size, untraced and traced, with
// two seeds: each run must pass its digests and print exactly the metrics
// BENCHMARK.json names, with their units.
func TestSmoke(t *testing.T) {
	b := loadBenchmarkJSON(t)
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if !equal(names, workloadNames) {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark runs %v", names, workloadNames)
	}
	for _, w := range workloadNames {
		for _, seed := range []uint64{1, 2} {
			for _, trace := range []bool{false, true} {
				rep := tinyRun(t, w, seed, trace, nil)
				if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
					t.Fatalf("%s seed %d trace %v: correct=%v attempted=%d failed=%d",
						w, seed, trace, rep.Correct, rep.Attempted, rep.Failed)
				}
				want := map[string]string{}
				if trace {
					for _, m := range b.PerLayer {
						want[m.Name] = m.Unit
					}
				} else {
					for _, m := range b.EndToEnd {
						want[m.Name] = m.Unit
					}
				}
				if len(rep.Metrics) != len(want) {
					t.Errorf("%s seed %d trace %v: printed %d metrics, BENCHMARK.json names %d",
						w, seed, trace, len(rep.Metrics), len(want))
				}
				for name, unit := range want {
					got, ok := rep.Metrics[name]
					switch {
					case !ok:
						t.Errorf("%s seed %d trace %v: %s not printed", w, seed, trace, name)
					case got.Unit != unit:
						t.Errorf("%s: %s unit %q, BENCHMARK.json says %q", w, name, got.Unit, unit)
					}
				}
			}
		}
	}
}

// TestInjectedMismatchFails corrupts one checked-in digest: the run must
// count a failed op and report itself incorrect.
func TestInjectedMismatchFails(t *testing.T) {
	digests, err := loadDigests()
	if err != nil {
		t.Fatal(err)
	}
	bad := map[string]string{}
	for k, v := range digests {
		bad[k] = v
	}
	key := "tiny/run/stream-seqstream-stream/v1"
	if bad[key] == "" {
		t.Fatalf("no checked-in digest %s", key)
	}
	bad[key] = "0000000000000000000000000000000000000000000000000000000000000000"
	rep := tinyRun(t, "stream", 1, false, bad)
	if rep.Correct || rep.Failed == 0 {
		t.Fatalf("injected mismatch not reported: correct=%v failed=%d", rep.Correct, rep.Failed)
	}
}

// TestDigestsCoverFullScale checks, without simulating, that every run and
// job of every workload has a checked-in digest for every variant.
func TestDigestsCoverFullScale(t *testing.T) {
	digests, err := loadDigests()
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < variants; v++ {
		e, err := newEnv(options{scale: "full", seed: uint64(v), dir: t.TempDir()}, io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		var keys []string
		for _, u := range append(append(e.streamUnits(), e.chaseUnits()...), e.cmpUnits()...) {
			keys = append(keys, u.key)
		}
		for _, j := range e.fabricJobs() {
			keys = append(keys, e.jobKey(j.name))
		}
		for w, us := range map[string][]unit{"stream": e.streamUnits(), "chase": e.chaseUnits(), "cmp": e.cmpUnits()} {
			for _, j := range e.probeJobs(w, us) {
				keys = append(keys, e.jobKey(j.name))
			}
		}
		for _, k := range keys {
			if digests[k] == "" {
				t.Errorf("no checked-in digest for %s", k)
			}
		}
	}
}

func equal(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	a = append([]string(nil), a...)
	b = append([]string(nil), b...)
	sort.Strings(a)
	sort.Strings(b)
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
