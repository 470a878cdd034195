package harness

import (
	"context"
	"errors"
	"sync"
	"testing"

	"fdpsim/internal/prefetch"
	"fdpsim/internal/sim"
)

func TestRunAllStopsAfterFirstError(t *testing.T) {
	good := sim.Default()
	good.MaxInsts = 10_000
	bad := good
	bad.Workload = "does-not-exist"

	specs := []RunSpec{{Workload: "bad", Config: "c", Job: sim.Job{Cfg: bad}}}
	for _, w := range []string{"tinyloop", "cachefit", "seqstream", "hotcold"} {
		specs = append(specs, RunSpec{Workload: w, Config: "c", Job: sim.Job{Cfg: withWorkload(good, w)}})
	}

	var mu sync.Mutex
	completions := 0
	p := Params{Workers: 1, Progress: &Progress{
		OnRun: func(done, total int, spec RunSpec, res sim.Result, err error) {
			mu.Lock()
			defer mu.Unlock()
			if err == nil {
				completions++
			}
		},
	}}

	_, err := RunAll(context.Background(), specs, p)
	if err == nil {
		t.Fatal("bad spec did not fail the grid")
	}
	// The first real failure is reported, not the cancellation it triggered.
	if !errors.Is(err, sim.ErrUnknownWorkload) {
		t.Errorf("err = %v, want ErrUnknownWorkload", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if completions >= len(specs)-1 {
		t.Errorf("%d of %d sibling runs completed after the first error", completions, len(specs)-1)
	}
}

func TestRunAllHonoursContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg := sim.Default()
	cfg.MaxInsts = 10_000
	cfg.Workload = "tinyloop"
	_, err := RunAll(ctx, []RunSpec{{Workload: "tinyloop", Config: "c", Job: sim.Job{Cfg: cfg}}}, Params{Workers: 1})
	if !errors.Is(err, sim.ErrCancelled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled RunAll: err = %v", err)
	}
}

func TestRunAllStreamsSnapshots(t *testing.T) {
	cfg := sim.WithFDP(sim.PrefStream)
	cfg.Workload = "seqstream"
	cfg.MaxInsts = 150_000
	cfg.L2Blocks = 1024 // small L2 so useful evictions (and intervals) come fast
	cfg.FDP.TInterval = 64
	// The cell's own tracer keeps every event beside the progress sink.
	var own int
	cfg.Tracer = sim.TracerFunc(func(sim.DecisionEvent) { own++ })

	var mu sync.Mutex
	var got []sim.DecisionEvent
	p := Params{Workers: 1, Progress: &Progress{
		OnInterval: func(spec RunSpec, ev sim.DecisionEvent) {
			mu.Lock()
			got = append(got, ev)
			mu.Unlock()
		},
	}}
	g, err := RunAll(context.Background(), []RunSpec{{Workload: "seqstream", Config: "c", Job: sim.Job{Cfg: cfg}}}, p)
	if err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if res := g.MustGet("seqstream", "c"); res.Intervals == 0 || uint64(len(got)) != res.Intervals {
		t.Fatalf("streamed %d interval events through the harness for %d intervals", len(got), res.Intervals)
	}
	if own != len(got) {
		t.Fatalf("the cell's own tracer saw %d interval events, the progress sink %d", own, len(got))
	}
}

func TestFingerprintSemantics(t *testing.T) {
	a := sim.WithFDP(sim.PrefStream)
	a.Workload = "seqstream"
	b := a
	b.Tracer = sim.TracerFunc(func(sim.DecisionEvent) {}) // observability must not split memo entries
	fpA, okA := sim.Fingerprint(a)
	fpB, okB := sim.Fingerprint(b)
	if !okA || !okB {
		t.Fatal("builtin prefetcher configs must be memoizable")
	}
	if fpA != fpB {
		t.Error("configs differing only in Tracer fingerprint differently")
	}

	c := a
	c.Workload = "chaserand"
	if fpC, _ := sim.Fingerprint(c); fpC == fpA {
		t.Error("different workloads share a fingerprint")
	}

	// Custom prefetcher instances carry unexported state and pointer
	// identity; memoizing them is unsound.
	d := a
	d.Prefetcher = sim.PrefCustom
	d.Custom = prefetch.NewStream(4)
	if _, ok := sim.Fingerprint(d); ok {
		t.Error("PrefCustom config reported as memoizable")
	}
}
