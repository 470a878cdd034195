package sim

import (
	"context"
	"testing"

	"fdpsim/internal/core"
	"fdpsim/internal/prefetch"
)

// collectTracer retains every event (test sink).
type collectTracer struct{ events []DecisionEvent }

func (t *collectTracer) TraceDecision(ev DecisionEvent) { t.events = append(t.events, ev) }

// noopTracer measures the cost of delivering events to a sink that does
// nothing, isolating the event-building overhead itself.
type noopTracer struct{ n uint64 }

func (t *noopTracer) TraceDecision(ev DecisionEvent) { t.n++ }

// boundaryHarness builds a one-core loop whose FDP engine closes one
// sampling interval per useful eviction and returns its hierarchy; the
// loop's own interval handler is installed (including the attribution
// interval sample when enabled). Driving OnEviction exercises the full
// interval-boundary path: Equation 1 rolls, Table 2 lookup,
// level/insertion update, record construction, sample assembly and
// tracer delivery.
func boundaryHarness(tr Tracer, attribution bool) *hierarchy {
	cfg := WithFDP(PrefStream)
	cfg.FDP.TInterval = 1
	cfg.Tracer = tr
	cfg.Attribution = attribution
	return newLoop(context.Background(), cfg).nodes[0].h
}

// TestTraceDecisionAllocs pins the hot-path contract: an interval boundary
// allocates nothing — with no tracer, with a delivering tracer, and with
// attribution sampling on (DecisionEvent and IntervalSample are
// stack-built and passed by value).
func TestTraceDecisionAllocs(t *testing.T) {
	for _, tc := range []struct {
		name string
		tr   Tracer
		attr bool
	}{
		{"nil-tracer", nil, false},
		{"noop-tracer", &noopTracer{}, false},
		{"noop-tracer-attribution", &noopTracer{}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := boundaryHarness(tc.tr, tc.attr)
			var block uint64
			if got := testing.AllocsPerRun(1000, func() {
				block++
				h.fdp.OnEviction(block, true, true, false)
			}); got != 0 {
				t.Errorf("interval boundary allocated %.1f objects/op, want 0", got)
			}
		})
	}
}

// BenchmarkIntervalBoundary measures the interval-boundary cost with the
// tracer disabled and enabled; CI runs it with -benchtime=1x as a smoke
// test and the allocation report must stay at 0 allocs/op.
func BenchmarkIntervalBoundary(b *testing.B) {
	for _, tc := range []struct {
		name string
		tr   Tracer
		attr bool
	}{
		{"nil-tracer", nil, false},
		{"noop-tracer", &noopTracer{}, false},
		{"noop-tracer-attribution", &noopTracer{}, true},
	} {
		b.Run(tc.name, func(b *testing.B) {
			h := boundaryHarness(tc.tr, tc.attr)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				h.fdp.OnEviction(uint64(i), true, true, false)
			}
		})
	}
}

// TestDecisionTraceMatchesResult runs short simulations with a collecting
// tracer and cross-checks the event stream against the run's aggregate
// Result: one event per closed interval, contiguous interval indices, a
// final level matching FinalLevel, and per-event invariants (metric
// ranges, Table 1 distance/degree of the level in effect, valid Table 2
// case). Under FDP the level in effect is the DCC; with a pinned level the
// DCC idles while the prefetcher runs at the pinned one.
func TestDecisionTraceMatchesResult(t *testing.T) {
	fdp := WithFDP(PrefStream)
	fdp.Workload = "chaserand"
	pinned := Conventional(PrefStream, 5)
	pinned.Workload = "seqstream"
	for _, tc := range []struct {
		name string
		cfg  Config
	}{{"fdp", fdp}, {"pinned", pinned}} {
		t.Run(tc.name, func(t *testing.T) {
			tr := &collectTracer{}
			cfg := tc.cfg
			cfg.MaxInsts = 150_000
			cfg.L2Blocks = 1024 // small L2 so useful evictions (and intervals) come fast
			cfg.FDP.TInterval = 64
			cfg.Tracer = tr
			inEffect := func(ev DecisionEvent) int {
				if cfg.StaticLevel > 0 {
					return cfg.StaticLevel
				}
				return ev.DCCAfter
			}

			res, err := RunContext(context.Background(), cfg)
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			if res.Intervals == 0 {
				t.Fatal("run closed no FDP intervals; shrink L2 or TInterval")
			}
			if got := uint64(len(tr.events)); got != res.Intervals {
				t.Fatalf("got %d decision events, want one per interval (%d)", got, res.Intervals)
			}
			if last := inEffect(tr.events[len(tr.events)-1]); last != res.FinalLevel {
				t.Errorf("last event's level = %d, want Result.FinalLevel %d", last, res.FinalLevel)
			}
			for i, ev := range tr.events {
				if ev.Interval != uint64(i+1) {
					t.Fatalf("event %d has interval %d, want %d", i, ev.Interval, i+1)
				}
				if ev.Case < 1 || ev.Case > 12 {
					t.Errorf("event %d: Table 2 case %d out of range", i, ev.Case)
				}
				for name, v := range map[string]float64{
					"accuracy": ev.Accuracy, "lateness": ev.Lateness, "pollution": ev.Pollution,
				} {
					if v < 0 || v > 1 {
						t.Errorf("event %d: %s = %g out of [0,1]", i, name, v)
					}
				}
				if d := ev.DCCAfter - ev.DCCBefore; d != int(core.Decrement) && d != int(core.NoChange) && d != int(core.Increment) {
					t.Errorf("event %d: DCC moved %d→%d (step %d)", i, ev.DCCBefore, ev.DCCAfter, d)
				}
				level := inEffect(ev)
				want := prefetch.StreamLevels[level]
				if ev.Distance != want.Distance || ev.Degree != want.Degree {
					t.Errorf("event %d: level %d gives (distance,degree)=(%d,%d), want Table 1 (%d,%d)",
						i, level, ev.Distance, ev.Degree, want.Distance, want.Degree)
				}
				if got := ev.Level(); got != level {
					t.Errorf("event %d: Level() = %d, want the level in effect %d", i, got, level)
				}
				switch ev.Insertion {
				case "MRU", "MID", "LRU-4", "LRU":
				default:
					t.Errorf("event %d: unexpected insertion %q", i, ev.Insertion)
				}
				if ev.Decayed.PrefUsed < ev.Raw.PrefUsed/2 && ev.Decayed.PrefUsed < ev.Raw.PrefUsed {
					t.Errorf("event %d: decayed used %d below raw %d fold", i, ev.Decayed.PrefUsed, ev.Raw.PrefUsed)
				}
			}
		})
	}
}

// TestDecisionEventLevelAndIPC: Level inverts levelParams for both
// ladders and falls back to DCCAfter for a pair of neither; IPC is the
// cumulative Retired/Cycle, 0 before the first cycle.
func TestDecisionEventLevelAndIPC(t *testing.T) {
	for _, kind := range []PrefetcherKind{PrefStream, PrefGHB} {
		for level := prefetch.MinLevel; level <= prefetch.MaxLevel; level++ {
			ev := DecisionEvent{DCCAfter: 3}
			ev.Distance, ev.Degree = levelParams(kind, level)
			if got := ev.Level(); got != level {
				t.Errorf("%s level %d: Level() = %d", kind, level, got)
			}
		}
	}
	if got := (&DecisionEvent{DCCAfter: 2, Distance: 5, Degree: 3}).Level(); got != 2 {
		t.Errorf("unknown pair: Level() = %d, want DCCAfter 2", got)
	}
	if got := (&DecisionEvent{Cycle: 2000, Retired: 1000}).IPC(); got != 0.5 {
		t.Errorf("IPC() = %v, want 0.5", got)
	}
	if got := (&DecisionEvent{Retired: 5}).IPC(); got != 0 {
		t.Errorf("zero-cycle IPC() = %v, want 0", got)
	}
}

// TestTracerExcludedFromFingerprint keeps observation out of the cache
// key: the same configuration with and without a tracer must fingerprint
// identically.
func TestTracerExcludedFromFingerprint(t *testing.T) {
	cfg := WithFDP(PrefStream)
	fp1, ok1 := Fingerprint(cfg)
	cfg.Tracer = &noopTracer{}
	fp2, ok2 := Fingerprint(cfg)
	if !ok1 || !ok2 || fp1 != fp2 {
		t.Fatalf("fingerprint changed with a tracer installed: %q vs %q", fp1, fp2)
	}
}
