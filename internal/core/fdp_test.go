package core

import (
	"testing"
	"testing/quick"

	"fdpsim/internal/cache"
)

// testConfig returns an FDP config with a tiny interval so tests can turn
// intervals over quickly.
func testConfig() Config {
	cfg := DefaultConfig()
	cfg.TInterval = 4
	return cfg
}

// endInterval forces n interval boundaries via useful-block evictions.
func endIntervals(f *FDP, n int) {
	for i := 0; i < n; i++ {
		for j := uint64(0); j < f.cfg.TInterval; j++ {
			f.OnEviction(uint64(j), true, true, false)
		}
	}
}

func TestCounterEquation(t *testing.T) {
	// Equation 1: value = valueAtBegin/2 + valueDuring.
	var c counter
	c.add(100)
	if got := c.roll(); got != 100 {
		t.Fatalf("first roll = %d, want 100", got)
	}
	c.add(60)
	if got := c.roll(); got != 110 {
		t.Fatalf("second roll = %d, want 100/2+60=110", got)
	}
	if got := c.roll(); got != 55 {
		t.Fatalf("empty-interval roll = %d, want 55", got)
	}
}

func TestCounterSaturates16Bits(t *testing.T) {
	var c counter
	c.add(1 << 20)
	if c.during != counterMax {
		t.Fatalf("during = %d, want saturation at %d", c.during, counterMax)
	}
	if got := c.roll(); got != counterMax {
		t.Fatalf("roll = %d, want %d", got, counterMax)
	}
}

// TestCounterDecayConvergence: a constant per-interval rate R converges to
// 2R (the geometric series), never exceeding it.
func TestCounterDecayConvergence(t *testing.T) {
	f := func(rate uint16) bool {
		r := uint64(rate) % 1000
		if r == 0 {
			return true
		}
		var c counter
		var prev uint64
		for i := 0; i < 64; i++ {
			c.add(r)
			prev = c.roll()
		}
		limit := 2 * r
		return prev <= limit && prev >= limit-1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIntervalTriggersOnUsefulEvictionsOnly(t *testing.T) {
	f := New(testConfig())
	for i := 0; i < 100; i++ {
		f.OnEviction(uint64(i), false, false, true) // prefetched, unused victims
	}
	if f.Intervals() != 0 {
		t.Fatal("non-useful evictions advanced the interval")
	}
	for i := 0; i < 4; i++ {
		f.OnEviction(uint64(i), true, true, false)
	}
	if f.Intervals() != 1 {
		t.Fatalf("intervals = %d, want 1", f.Intervals())
	}
}

func TestLevelIncreasesWhenAccurateAndLate(t *testing.T) {
	f := New(testConfig())
	var decisions []Decision
	f.OnInterval = func(_ *Signals, d Decision) { decisions = append(decisions, d) }
	var levels []int
	f.OnLevel = func(l int) { levels = append(levels, l) }
	// High accuracy, all late, no pollution -> Case 1 -> increment.
	for i := 0; i < 3; i++ {
		for j := 0; j < 100; j++ {
			f.OnPrefetchSent()
			f.OnPrefetchLate()
		}
		endIntervals(f, 1)
	}
	if f.Level() != 5 {
		t.Fatalf("level = %d, want saturation at 5 after 3 increments from 3", f.Level())
	}
	if len(decisions) != 3 || decisions[0].Case.Case != 1 || decisions[0].Level != 4 || decisions[2].Level != 5 {
		t.Fatalf("decisions = %+v", decisions)
	}
	if len(levels) != 3 || levels[0] != 4 || levels[2] != 5 {
		t.Fatalf("OnLevel calls = %v", levels)
	}
}

func TestLevelDecreasesOnLowAccuracy(t *testing.T) {
	f := New(testConfig())
	// Low accuracy, late, not polluting -> Case 9 -> decrement.
	for i := 0; i < 5; i++ {
		for j := 0; j < 100; j++ {
			f.OnPrefetchSent()
		}
		f.OnPrefetchLate() // 1 used, 1 late: lateness 100%, accuracy ~1%
		endIntervals(f, 1)
	}
	if f.Level() != 1 {
		t.Fatalf("level = %d, want saturation at 1", f.Level())
	}
}

func TestLevelUnchangedInBestCase(t *testing.T) {
	f := New(testConfig())
	// High accuracy, not late, not polluting -> Case 3 -> no change.
	for j := 0; j < 100; j++ {
		f.OnPrefetchSent()
		f.OnPrefetchUsed()
	}
	endIntervals(f, 1)
	if f.Level() != 3 {
		t.Fatalf("level = %d, want unchanged 3", f.Level())
	}
}

func TestPollutionThrottles(t *testing.T) {
	f := New(testConfig())
	// High accuracy, not late, polluting -> Case 4 -> decrement.
	for j := 0; j < 100; j++ {
		f.OnPrefetchSent()
		f.OnPrefetchUsed()
	}
	// Pollute: evictions by prefetch, then demand misses to those blocks.
	// Keep the eviction count below TInterval so no interval fires early.
	for b := uint64(0); b < 3; b++ {
		f.OnEviction(b, true, true, true)
	}
	for b := uint64(0); b < 3; b++ {
		f.OnDemandMiss(b)
	}
	endIntervals(f, 1)
	if f.Level() != 2 {
		t.Fatalf("level = %d, want 2 (decrement for pollution)", f.Level())
	}
}

func TestDynamicInsertionFollowsPollution(t *testing.T) {
	f := New(testConfig())
	if f.InsertionPos() != cache.PosMID {
		t.Fatal("dynamic insertion must start at MID")
	}
	// Create high pollution (every demand miss polluted). Stay under
	// TInterval evictions so only the explicit boundary fires.
	for b := uint64(0); b < 3; b++ {
		f.OnEviction(b, true, true, true)
		f.OnDemandMiss(b)
	}
	endIntervals(f, 1)
	if f.InsertionPos() != cache.PosLRU {
		t.Fatalf("insertion = %v, want LRU under high pollution", f.InsertionPos())
	}
	// A clean interval drops pollution to half (decay), still >= PHigh?
	// Keep rolling clean intervals until the decayed pollution crosses the
	// thresholds back to MID.
	for i := 0; i < 10; i++ {
		for b := uint64(1000); b < 1100; b++ {
			f.OnDemandMiss(b + uint64(i)*1000)
		}
		endIntervals(f, 1)
	}
	if f.InsertionPos() != cache.PosMID {
		t.Fatalf("insertion = %v, want MID after pollution decays", f.InsertionPos())
	}
}

func TestStaticInsertionWhenDynamicOff(t *testing.T) {
	cfg := testConfig()
	cfg.DynamicInsertion = false
	cfg.StaticInsertion = cache.PosLRU4
	f := New(cfg)
	if f.InsertionPos() != cache.PosLRU4 {
		t.Fatal("static insertion position not honored")
	}
	endIntervals(f, 3)
	if f.InsertionPos() != cache.PosLRU4 {
		t.Fatal("static insertion changed across intervals")
	}
}

func TestDynamicAggressivenessOff(t *testing.T) {
	cfg := testConfig()
	cfg.DynamicAggressiveness = false
	f := New(cfg)
	called := false
	f.OnLevel = func(int) { called = true }
	for j := 0; j < 100; j++ {
		f.OnPrefetchSent()
		f.OnPrefetchLate()
	}
	endIntervals(f, 1)
	if f.Level() != 3 || called {
		t.Fatalf("level changed with DynamicAggressiveness off: level=%d called=%v", f.Level(), called)
	}
}

func TestAccuracyOnlyAblation(t *testing.T) {
	cfg := testConfig()
	cfg.AccuracyOnly = true
	f := New(cfg)
	// High accuracy but heavily polluting: comprehensive FDP would
	// decrement (Case 4); accuracy-only increments.
	for j := 0; j < 100; j++ {
		f.OnPrefetchSent()
		f.OnPrefetchUsed()
	}
	for b := uint64(0); b < 3; b++ {
		f.OnEviction(b, true, true, true)
		f.OnDemandMiss(b)
	}
	endIntervals(f, 1)
	if f.Level() != 4 {
		t.Fatalf("accuracy-only level = %d, want 4 (increment)", f.Level())
	}
}

func TestLatePrefetchCountsAsUsed(t *testing.T) {
	f := New(testConfig())
	var sig Signals
	f.OnInterval = func(s *Signals, _ Decision) { sig = *s }
	f.OnPrefetchSent()
	f.OnPrefetchLate()
	endIntervals(f, 1)
	if sig.Accuracy != 1 || sig.Lateness != 1 {
		t.Fatalf("metrics after one late prefetch: acc=%v late=%v, want 1,1", sig.Accuracy, sig.Lateness)
	}
}

func TestPollutionFilterClearedOnPrefetchFill(t *testing.T) {
	f := New(testConfig())
	f.OnEviction(42, true, true, true) // sets the filter bit
	f.OnPrefetchFill(42)               // prefetch fill clears it
	if f.OnDemandMiss(42) {
		t.Fatal("demand miss counted as pollution after prefetch fill cleared the bit")
	}
}

func TestLevelDistributionRecorded(t *testing.T) {
	f := New(testConfig())
	for j := 0; j < 100; j++ {
		f.OnPrefetchSent()
		f.OnPrefetchLate()
	}
	endIntervals(f, 1) // level 3 -> 4, recorded at 4
	if f.LevelDist.Total() != 1 || f.LevelDist.Fraction(3) != 1 {
		t.Fatalf("level distribution = %v", f.LevelDist)
	}
}

func TestCostForMatchesPaperTable6(t *testing.T) {
	cost := CostFor(16384, 128, 4096, 1024)
	if cost.TotalBits != 16384+4096+176+128 {
		t.Fatalf("total bits = %d", cost.TotalBits)
	}
	// The paper reports 2.54 KB and ~0.24% of the 1 MB L2.
	if cost.TotalKB < 2.53 || cost.TotalKB > 2.55 {
		t.Fatalf("total KB = %v, want ~2.54", cost.TotalKB)
	}
	if cost.OverheadOfL2KB > 0.3 {
		t.Fatalf("overhead = %v%%, want < 0.3%%", cost.OverheadOfL2KB)
	}
	if cost.String() == "" {
		t.Fatal("empty cost string")
	}
}
