package sim

import (
	"context"
	"runtime"
	"runtime/debug"
	"testing"

	"fdpsim/internal/cpu"
	"fdpsim/internal/workload"
)

// engineConfig is a small, interval-heavy configuration (tiny L2 and
// TInterval so FDP decisions fire constantly — the hardest case for the
// allocation guarantee) whose retire target is never reached.
func engineConfig(wl string, kind PrefetcherKind, attr bool) Config {
	cfg := WithFDP(kind)
	cfg.Workload = wl
	cfg.MaxInsts = 1 << 40
	cfg.L1Blocks, cfg.L1Ways = 256, 4
	cfg.L2Blocks, cfg.L2Ways = 1024, 16
	cfg.MSHRs = 32
	cfg.PrefQueueCap = 32
	cfg.FDP.TInterval = 64
	cfg.Attribution = attr
	return cfg
}

// newEngine builds a one-core loop over engineConfig and returns it with
// its CPU.
func newEngine(tb testing.TB, wl string, kind PrefetcherKind, attr bool) (*loop, *cpu.CPU) {
	tb.Helper()
	src, err := workload.New(wl, 1)
	if err != nil {
		tb.Fatal(err)
	}
	l := newLoop(context.Background(), engineConfig(wl, kind, attr))
	l.add(&l.nodes[0], src)
	return l, l.nodes[0].lanes[0].cpu
}

// newTopology builds nodes hierarchies over engineConfig on one DRAM,
// each with lanes CPUs. The topology's lanes alternate a streaming and a
// pointer-chasing workload, each relocated by laneSource as the
// multi-core and SMT entry points do.
func newTopology(tb testing.TB, nodes, lanes int, attr bool) *loop {
	tb.Helper()
	cfgs := make([]Config, nodes)
	for i := range cfgs {
		cfgs[i] = engineConfig("mixedphase", PrefStream, attr)
	}
	l := newLoop(context.Background(), cfgs...)
	for i := 0; i < nodes*lanes; i++ {
		src, err := laneSource(nil, []string{"mixedphase", "chaserand"}[i%2], 1, i)
		if err != nil {
			tb.Fatal(err)
		}
		l.add(&l.nodes[i/lanes], src)
	}
	return l
}

// cycles runs n cycles of the loop as run does, in stretches that end at
// run's poll points, without the polls themselves.
func (l *loop) cycles(n uint64) {
	for end := l.cycle + n; l.cycle < end; {
		l.step(min(l.cycle|(cancelCheckStride-1)+1, end))
		l.settle()
		l.intervalClosed = false
	}
}

// TestPerInstructionAllocs is the event engine's core guarantee: after
// warmup (pools grown, maps sized, queues at working depth) the cycle loop
// performs zero heap allocations — no closures, no events, no requests, no
// prefetcher scratch. Guarded here so a regression fails CI, not a profile.
func TestPerInstructionAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-hundred-thousand-cycle warmups")
	}
	for _, tc := range []struct {
		wl   string
		kind PrefetcherKind
		attr bool
	}{
		{"mixedphase", PrefStream, false},
		{"mixedphase", PrefGHB, false},
		{"mixedphase", PrefHybrid, false},
		{"chaserand", PrefStream, false},
		{"scanmod", PrefDahlgren, false},
		// Attribution on: per-cycle classification + occupancy sampling and
		// the timeliness maps must stay allocation-free once warmed.
		{"mixedphase", PrefStream, true},
		{"chaserand", PrefStream, true},
	} {
		name := tc.wl + "/" + string(tc.kind)
		if tc.attr {
			name += "/attribution"
		}
		t.Run(name, func(t *testing.T) {
			l, _ := newEngine(t, tc.wl, tc.kind, tc.attr)
			assertWarmedLoopAllocs(t, l)
		})
	}
	// The shared-memory topologies: two cores on one DRAM, and two SMT
	// threads on one hierarchy.
	for _, tc := range []struct {
		name         string
		nodes, lanes int
	}{
		{"multicore", 2, 1},
		{"smt", 1, 2},
	} {
		for _, attr := range []bool{false, true} {
			name := tc.name
			if attr {
				name += "/attribution"
			}
			t.Run(name, func(t *testing.T) {
				assertWarmedLoopAllocs(t, newTopology(t, tc.nodes, tc.lanes, attr))
			})
		}
	}
}

// Run-allocation ceilings: the most heap objects one single-core run
// (construction, warm-up, measured run and Result) may allocate, with
// attribution off and on.
const (
	maxRunAllocs     = 110
	maxRunAllocsAttr = 120
)

// TestRunAllocs is the per-run counterpart of TestPerInstructionAllocs:
// every pool the engine draws from is one slab sized at construction, so
// a whole run allocates a small constant of its configuration, whatever
// its length. Each single-core case is an FDP run of 10k warm-up
// instructions and then 20k or 320k measured ones; the workloads are
// those whose count grew with run length before the pools were slabs,
// with attribution off and on. Both lengths must allocate the same, under
// the ceiling. The two-core shared-bus run and the two-thread SMT run of
// a two-lane spec must allocate the same at both lengths too.
//
// The race detector's runtime allocates on its own account and slows
// the loop about twentyfold, so race and -short runs skip the test; CI
// holds the per-run count through BenchmarkRunSetup's allocs/op.
func TestRunAllocs(t *testing.T) {
	if raceEnabled || testing.Short() {
		t.Skip("runs of 330k instructions, counted without the race detector")
	}
	ctx := context.Background()
	fdp := func(insts uint64, attr bool) Config {
		cfg := WithFDP(PrefStream)
		cfg.WarmupInsts, cfg.MaxInsts, cfg.Attribution = 10_000, insts, attr
		return cfg
	}
	// atBothLengths returns run's allocations at 20k and 320k
	// instructions.
	atBothLengths := func(t *testing.T, run func(insts uint64) error) (short, long float64) {
		t.Helper()
		count := func(insts uint64) float64 {
			// A collection cycle starts the collector's own goroutines,
			// whose allocations AllocsPerRun would count too.
			runtime.GC()
			defer debug.SetGCPercent(debug.SetGCPercent(-1))
			return testing.AllocsPerRun(1, func() {
				if err := run(insts); err != nil {
					t.Fatal(err)
				}
			})
		}
		return count(20_000), count(320_000)
	}
	for _, wl := range []string{"mixedphase", "chaserand", "hotcold", "binsearch", "stride3", "randsparse", "codewalk", "seqstream"} {
		for _, attr := range []bool{false, true} {
			name, ceiling := wl, float64(maxRunAllocs)
			if attr {
				name, ceiling = wl+"/attribution", maxRunAllocsAttr
			}
			t.Run(name, func(t *testing.T) {
				short, long := atBothLengths(t, func(insts uint64) error {
					cfg := fdp(insts, attr)
					cfg.Workload = wl
					_, err := RunContext(ctx, cfg)
					return err
				})
				t.Logf("%.0f allocations at 20k instructions, %.0f at 320k", short, long)
				if short != long || long > ceiling {
					t.Fatalf("a run allocates %.0f objects at 20k instructions and %.0f at 320k, want the same and at most %.0f",
						short, long, ceiling)
				}
			})
		}
	}
	sp := twoLaneSpec()
	for _, tc := range []struct {
		name string
		run  func(insts uint64) error
	}{
		{"multicore", func(insts uint64) error {
			_, err := RunSpecMultiContext(ctx, fdp(insts, false), sp)
			return err
		}},
		{"smt", func(insts uint64) error {
			cfg := fdp(insts, false)
			cfg.WarmupInsts = 0 // SMT runs take no warm-up
			_, err := RunSpecSMTContext(ctx, cfg, sp)
			return err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			short, long := atBothLengths(t, tc.run)
			t.Logf("%.0f allocations at 20k instructions, %.0f at 320k", short, long)
			if short != long {
				t.Fatalf("a run allocates %.0f objects at 20k instructions and %.0f at 320k, want the same", short, long)
			}
		})
	}
}

// assertWarmedLoopAllocs warms l for 300k cycles and fails unless 20k
// more allocate nothing.
func assertWarmedLoopAllocs(t *testing.T, l *loop) {
	t.Helper()
	l.cycles(300_000)
	allocs := testing.AllocsPerRun(5, func() { l.cycles(20_000) })
	if allocs != 0 {
		t.Fatalf("steady-state heap allocations: %.1f per 20k cycles, want 0", allocs)
	}
}

// BenchmarkPerInstruction measures the warmed run loop (step plus
// settle) per retired instruction; allocs/op is the per-instruction
// allocation count the CI gate keeps at zero.
func BenchmarkPerInstruction(b *testing.B) {
	for _, tc := range []struct {
		name string
		attr bool
	}{
		{"base", false},
		{"attribution", true},
	} {
		b.Run(tc.name, func(b *testing.B) {
			l, c := newEngine(b, "mixedphase", PrefStream, tc.attr)
			l.cycles(200_000)
			b.ReportAllocs()
			b.ResetTimer()
			start := c.Retired()
			for c.Retired()-start < uint64(b.N) {
				l.cycles(cancelCheckStride)
			}
		})
	}
}

// BenchmarkRunSetup measures what a run pays before its first
// instruction: a single-core FDP run of one instruction and no warm-up,
// that is validation, construction, one retire and the Result. Sweeps,
// goldens and fabric jobs are many short runs, each paying it; allocs/op
// is the per-run allocation count the bench-diff gate holds.
func BenchmarkRunSetup(b *testing.B) {
	cfg := WithFDP(PrefStream)
	cfg.MaxInsts = 1
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := RunContext(context.Background(), cfg); err != nil {
			b.Fatal(err)
		}
	}
}
