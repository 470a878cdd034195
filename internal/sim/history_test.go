package sim

import (
	"context"
	"reflect"
	"testing"
)

func TestKeepFDPHistory(t *testing.T) {
	cfg := WithFDP(PrefStream)
	cfg.Workload = "chaserand"
	cfg.MaxInsts = 150_000
	cfg.FDP.TInterval = 1024
	cfg.KeepFDPHistory = true
	res, err := RunContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if uint64(len(res.History)) != res.Intervals {
		t.Fatalf("history has %d events, intervals = %d", len(res.History), res.Intervals)
	}
	if len(res.History) == 0 {
		t.Fatal("no intervals recorded")
	}
	for i, ev := range res.History {
		if ev.Case < 1 || ev.Case > 12 {
			t.Fatalf("event %d: invalid Table 2 case %d", i, ev.Case)
		}
		if ev.DCCAfter < 1 || ev.DCCAfter > 5 {
			t.Fatalf("event %d: level %d out of range", i, ev.DCCAfter)
		}
		if ev.Accuracy < 0 || ev.Accuracy > 1 || ev.Lateness < 0 || ev.Lateness > 1 || ev.Pollution < 0 || ev.Pollution > 1 {
			t.Fatalf("event %d: metrics out of range: %+v", i, ev)
		}
	}
	// The hostile chase must end throttled with Decrement-dominated history.
	decrements := 0
	for _, ev := range res.History {
		if ev.Update < 0 {
			decrements++
		}
	}
	if decrements*2 < len(res.History) {
		t.Fatalf("only %d of %d intervals decremented on a hostile workload", decrements, len(res.History))
	}

	// History is off by default.
	cfg.KeepFDPHistory = false
	res2, err := RunContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.History) != 0 {
		t.Fatal("history recorded without KeepFDPHistory")
	}
}

// TestHistoryIsTheTrace pins the one per-interval record: a run's History
// holds exactly the DecisionEvents its tracer received, warm-up intervals
// and attribution samples included.
func TestHistoryIsTheTrace(t *testing.T) {
	cfg := WithFDP(PrefStream)
	cfg.Workload = "mixedphase"
	cfg.MaxInsts = 60_000
	cfg.WarmupInsts = 40_000
	cfg.L2Blocks = 1024
	cfg.FDP.TInterval = 64
	cfg.Attribution = true
	cfg.KeepFDPHistory = true
	tr := &collectTracer{}
	cfg.Tracer = tr
	res, err := RunContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Intervals == 0 || tr.events[0].Cycle != 0 || tr.events[len(tr.events)-1].Sample.Cycles.Total() == 0 {
		t.Fatal("no warm-up and attributed intervals closed; the comparison would be vacuous")
	}
	if !reflect.DeepEqual(res.History, tr.events) {
		t.Fatalf("History (%d events) differs from the traced stream (%d events)", len(res.History), len(tr.events))
	}
}

// TestMultiCoreHistoryIsTheTrace checks each core of a two-core run: its
// History is the first Intervals events that core emitted. A core that
// finishes first keeps running (and emitting) for the laggard, but its
// result is frozen at its finish line.
func TestMultiCoreHistoryIsTheTrace(t *testing.T) {
	var mc MultiConfig
	trs := []*collectTracer{{}, {}}
	for i, w := range []string{"seqstream", "chaserand"} {
		cfg := WithFDP(PrefStream)
		cfg.Workload = w
		cfg.MaxInsts = 40_000
		cfg.L2Blocks = 1024
		cfg.FDP.TInterval = 64
		cfg.KeepFDPHistory = true
		cfg.Tracer = trs[i]
		mc.Cores = append(mc.Cores, cfg)
	}
	res, err := RunMultiContext(context.Background(), mc)
	if err != nil {
		t.Fatal(err)
	}
	longer := false
	for i, cr := range res.Cores {
		events := trs[i].events
		if cr.Intervals == 0 || uint64(len(events)) < cr.Intervals {
			t.Fatalf("core %d: %d intervals, %d events emitted", i, cr.Intervals, len(events))
		}
		longer = longer || uint64(len(events)) > cr.Intervals
		if !reflect.DeepEqual(cr.History, events[:cr.Intervals]) {
			t.Errorf("core %d: History (%d events) is not the first %d emitted", i, len(cr.History), cr.Intervals)
		}
		for _, ev := range cr.History {
			if ev.Core != i {
				t.Fatalf("core %d: History holds an event of core %d", i, ev.Core)
			}
		}
	}
	if !longer {
		t.Error("no core emitted past its finish line; the cut is untested")
	}
}
