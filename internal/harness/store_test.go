package harness

import (
	"context"
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
// (simulated by ResetMemo) pointed at the same store directory must serve
// every cell from disk — observable as zero streamed snapshots, since
// cached simulations replay none.
func TestRunAllReadsThroughStore(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ResetMemo()
	defer ResetMemo()

	p := DefaultParams()
	p.Insts = 20_000
	p.Warmup = 0
	p.TInterval = 256
	p.Store = st

	specs := storeSpecs()
	g1, err := RunAll(context.Background(), specs, p)
	if err != nil {
		t.Fatal(err)
	}
	if st.Len() != len(specs) {
		t.Fatalf("store holds %d entries after first run, want %d", st.Len(), len(specs))
	}

	// "Process restart": wipe the in-memory layer, keep the disk.
	ResetMemo()
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
