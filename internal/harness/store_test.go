package harness

import (
	"context"
	"strings"
	"sync/atomic"
	"testing"

	"fdpsim/internal/sim"
	"fdpsim/internal/store"
)

// storeSpecs builds a small grid cheap enough for a unit test.
func storeSpecs() []RunSpec {
	mk := func(w string) RunSpec {
		cfg := sim.WithFDP(sim.PrefStream)
		cfg.Workload = w
		return RunSpec{Workload: w, Config: "FDP", Job: sim.Job{Cfg: cfg}}
	}
	return []RunSpec{mk("seqstream"), mk("shortstream")}
}

// TestRunAllReadsThroughStore is the restart scenario: a second process
// (simulated by a fresh memo) pointed at the same store directory must serve
// every cell from disk — observable as zero streamed snapshots, since
// cached simulations replay none.
func TestRunAllReadsThroughStore(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	p := DefaultParams()
	p.Insts = 20_000
	p.Warmup = 0
	p.TInterval = 256
	p.Memo = store.NewMemo(st)

	specs := storeSpecs()
	g1, err := RunAll(context.Background(), specs, p)
	if err != nil {
		t.Fatal(err)
	}
	if st.Len() != len(specs) {
		t.Fatalf("store holds %d entries after first run, want %d", st.Len(), len(specs))
	}

	// "Process restart": a fresh in-memory layer over the same disk.
	p.Memo = store.NewMemo(st)
	var snaps atomic.Int64
	p.Progress = &Progress{OnInterval: func(RunSpec, sim.DecisionEvent) { snaps.Add(1) }}
	g2, err := RunAll(context.Background(), specs, p)
	if err != nil {
		t.Fatal(err)
	}
	if n := snaps.Load(); n != 0 {
		t.Fatalf("store-served run streamed %d interval events; it re-simulated", n)
	}
	for _, s := range specs {
		r1 := g1.MustGet(s.Workload, s.Config)
		r2 := g2.MustGet(s.Workload, s.Config)
		if r1.IPC != r2.IPC || r1.Counters.Cycles != r2.Counters.Cycles {
			t.Fatalf("%s: store round trip changed the result: %v vs %v", s.Workload, r1.IPC, r2.IPC)
		}
	}
}

// TestSeriesDiffIgnoresWarmMemo: seriesdiff diffs the trajectories its
// cells record, and a memo hit records none, so a memo already holding
// every seriesdiff cell must leave its tables as a cold run prints them.
func TestSeriesDiffIgnoresWarmMemo(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	// At this scale chaserand closes intervals and the controllers diverge.
	p := Params{Insts: 30_000, Warmup: 5_000, TInterval: 64, Seed: 1, Workers: 2}
	render := func(p Params) string {
		t.Helper()
		tables, err := runSeriesDiff(context.Background(), p)
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		for i := range tables {
			tables[i].Render(&sb)
		}
		return sb.String()
	}

	cold := p
	cold.Memo = store.NewMemo(nil)
	want := render(cold)
	if !strings.Contains(want, "fail") {
		t.Fatalf("no controller diverged from fdp; the comparison proves nothing:\n%s", want)
	}

	warm := p
	warm.Memo = store.NewMemo(nil)
	specs := cells(seriesDiffWorkloads, controllerColumns(), warm)
	if _, err := RunAll(context.Background(), specs, warm); err != nil {
		t.Fatal(err)
	}
	for _, c := range specs {
		fp, _ := c.Fingerprint()
		if _, ok := warm.Memo.Get(fp); !ok {
			t.Fatalf("memo not warm for %s/%s", c.Workload, c.Config)
		}
	}
	if got := render(warm); got != want {
		t.Fatalf("seriesdiff over a warm memo:\n%s\nwant (cold):\n%s", got, want)
	}
}
