package sim

import (
	"context"
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
