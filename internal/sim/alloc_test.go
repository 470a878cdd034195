package sim

import (
	"context"
	"testing"

	"fdpsim/internal/cpu"
	"fdpsim/internal/workload"
)

// newEngine builds a one-core loop over a small, interval-heavy
// configuration (tiny L2 and TInterval so FDP decisions fire constantly —
// the hardest case for the allocation guarantee) whose retire target is
// never reached, and returns it with its CPU.
func newEngine(tb testing.TB, wl string, kind PrefetcherKind, attr bool) (*loop, *cpu.CPU) {
	tb.Helper()
	cfg := WithFDP(kind)
	cfg.Workload = wl
	cfg.MaxInsts = 1 << 40
	cfg.L1Blocks, cfg.L1Ways = 256, 4
	cfg.L2Blocks, cfg.L2Ways = 1024, 16
	cfg.MSHRs = 32
	cfg.PrefQueueCap = 32
	cfg.FDP.TInterval = 64
	cfg.Attribution = attr
	src, err := workload.New(wl, 1)
	if err != nil {
		tb.Fatal(err)
	}
	l := newLoop(context.Background(), cfg)
	l.add(&l.nodes[0], src)
	return l, l.nodes[0].lanes[0].cpu
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
			l.cycles(300_000)
			allocs := testing.AllocsPerRun(5, func() { l.cycles(20_000) })
			if allocs != 0 {
				t.Fatalf("steady-state heap allocations: %.1f per 20k cycles, want 0", allocs)
			}
		})
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
