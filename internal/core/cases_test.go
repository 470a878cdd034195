package core

import "testing"

// TestAllTwelveCasesEndToEnd drives the FDP engine through counter
// patterns that produce each of Table 2's twelve classifications and
// checks the Dynamic Configuration Counter moves exactly as prescribed.
func TestAllTwelveCasesEndToEnd(t *testing.T) {
	type scenario struct {
		name      string
		acc       AccuracyClass
		late      bool
		polluting bool
	}
	var scenarios []scenario
	for _, acc := range []AccuracyClass{AccHigh, AccMedium, AccLow} {
		for _, late := range []bool{true, false} {
			for _, poll := range []bool{false, true} {
				scenarios = append(scenarios, scenario{
					name:      acc.String() + lateName(late) + pollName(poll),
					acc:       acc,
					late:      late,
					polluting: poll,
				})
			}
		}
	}

	for _, sc := range scenarios {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			f := New(testConfig())
			var decisions []Decision
			f.OnInterval = func(_ *Signals, d Decision) { decisions = append(decisions, d) }

			// Accuracy: sent=100; used per class.
			used := map[AccuracyClass]int{AccHigh: 90, AccMedium: 50, AccLow: 10}[sc.acc]
			for i := 0; i < 100; i++ {
				f.OnPrefetchSent()
			}
			lateCount := 0
			if sc.late {
				lateCount = used / 2 // lateness 50% >> TLateness
			}
			for i := 0; i < lateCount; i++ {
				f.OnPrefetchLate() // contributes to used as well
			}
			for i := 0; i < used-lateCount; i++ {
				f.OnPrefetchUsed()
			}
			// Pollution: 100 demand misses, polluted fraction per class.
			polluted := 0
			if sc.polluting {
				polluted = 50
			}
			for b := uint64(0); b < uint64(polluted); b++ {
				// Arm the filter under the interval threshold: use
				// non-useful evictions (prefetched, unused victims) so the
				// interval does not advance early.
				f.OnEviction(b, false, true, true)
			}
			for b := uint64(0); b < 100; b++ {
				f.OnDemandMiss(b)
			}
			endIntervals(f, 1)

			if len(decisions) != 1 {
				t.Fatalf("intervals recorded = %d", len(decisions))
			}
			d := decisions[0]
			want := LookupPolicy(sc.acc, sc.late, sc.polluting)
			if d.Case.Case != want.Case {
				t.Fatalf("classified as case %d (%+v), want case %d", d.Case.Case, d, want.Case)
			}
			wantLevel := 3 + int(want.Update)
			if f.Level() != wantLevel || d.Level != wantLevel {
				t.Fatalf("level = %d, decision level %d, want %d (update %v)", f.Level(), d.Level, wantLevel, want.Update)
			}
		})
	}
}

func lateName(b bool) string {
	if b {
		return "-Late"
	}
	return "-NotLate"
}

func pollName(b bool) string {
	if b {
		return "-Polluting"
	}
	return "-NotPolluting"
}
