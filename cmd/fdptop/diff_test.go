package main

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"fdpsim"
	"fdpsim/internal/series"
	"fdpsim/internal/store"
)

// diffFixture runs one small simulation with a series recorder and
// persists the sidecar under fp in dir.
func diffFixture(t *testing.T, dir, fp string, seed uint64) {
	t.Helper()
	cfg := fdpsim.WithFDP(fdpsim.PrefStream)
	cfg.Workload = "chaserand"
	cfg.MaxInsts = 120_000
	cfg.Seed = seed
	cfg.FDP.TInterval = 64
	cfg.L2Blocks = 512
	rec := &series.Recorder{}
	cfg.Tracer = rec
	if _, err := fdpsim.RunContext(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	sr := rec.Series()
	if sr.Len() == 0 {
		t.Fatal("fixture run closed no FDP intervals")
	}
	sr.Meta.Workload = cfg.Workload
	sr.Meta.Prefetcher = string(cfg.Prefetcher)
	doc, err := series.Encode(sr)
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.PutSeries(fp, doc); err != nil {
		t.Fatal(err)
	}
}

// TestShowDiff covers the offline diff pane: a self-diff passes with zero
// residual, two different seeds print a report (pass or fail, but always
// rendering every catalog metric), and missing fingerprints error.
func TestShowDiff(t *testing.T) {
	dir := t.TempDir()
	fpA := strings.Repeat("a", 64)
	fpB := strings.Repeat("b", 64)
	diffFixture(t, dir, fpA, 7)
	diffFixture(t, dir, fpB, 8)

	var out bytes.Buffer
	if err := showDiff(&out, dir, fpA+","+fpA); err != nil {
		t.Fatalf("self-diff: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "verdict: pass") {
		t.Fatalf("self-diff did not pass:\n%s", out.String())
	}
	for _, m := range series.Catalog {
		if !strings.Contains(out.String(), m.Name) {
			t.Fatalf("diff output missing metric %s:\n%s", m.Name, out.String())
		}
	}

	out.Reset()
	err := showDiff(&out, dir, fpA+","+fpB)
	if !strings.Contains(out.String(), "verdict:") {
		t.Fatalf("cross-seed diff rendered no verdict (err=%v):\n%s", err, out.String())
	}

	if err := showDiff(&out, dir, fpA); err == nil {
		t.Fatal("malformed spec accepted")
	}
	if err := showDiff(&out, dir, fpA+","+strings.Repeat("c", 64)); err == nil {
		t.Fatal("missing fingerprint accepted")
	}
}
