package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestDerivedMetrics(t *testing.T) {
	c := Counters{
		Cycles: 1000, Retired: 500,
		BusReads: 10, BusWritebacks: 5, BusPrefetches: 5,
		PrefSent: 100, PrefUsed: 60, PrefLate: 30,
		DemandMisses: 200, PollutionHits: 20,
	}
	if got := c.IPC(); got != 0.5 {
		t.Errorf("IPC = %v", got)
	}
	if got := c.BusAccesses(); got != 20 {
		t.Errorf("BusAccesses = %v", got)
	}
	if got := c.BPKI(); got != 40 {
		t.Errorf("BPKI = %v", got)
	}
	if got := c.Accuracy(); got != 0.6 {
		t.Errorf("Accuracy = %v", got)
	}
	if got := c.Lateness(); got != 0.5 {
		t.Errorf("Lateness = %v", got)
	}
	if got := c.Pollution(); got != 0.1 {
		t.Errorf("Pollution = %v", got)
	}
}

func TestDerivedMetricsZeroDenominators(t *testing.T) {
	var c Counters
	if c.IPC() != 0 || c.BPKI() != 0 || c.Accuracy() != 0 || c.Lateness() != 0 || c.Pollution() != 0 {
		t.Fatal("zero counters must yield zero metrics, not NaN")
	}
}

func TestGeoMean(t *testing.T) {
	if got := GeoMean([]float64{1, 4}); math.Abs(got-2) > 1e-12 {
		t.Errorf("GeoMean(1,4) = %v", got)
	}
	if got := GeoMean(nil); got != 0 {
		t.Errorf("GeoMean(nil) = %v", got)
	}
	// Non-positive entries are skipped, not fatal.
	if got := GeoMean([]float64{0, 2, 8}); math.Abs(got-4) > 1e-12 {
		t.Errorf("GeoMean with zero = %v", got)
	}
}

func TestArithMean(t *testing.T) {
	if got := ArithMean([]float64{1, 2, 3}); got != 2 {
		t.Errorf("ArithMean = %v", got)
	}
	if ArithMean(nil) != 0 {
		t.Error("ArithMean(nil) != 0")
	}
}

func TestSpeedupPct(t *testing.T) {
	if got := SpeedupPct(2, 3); got != 50 {
		t.Errorf("SpeedupPct = %v", got)
	}
	if SpeedupPct(0, 3) != 0 {
		t.Error("SpeedupPct with zero base must be 0")
	}
}

func TestDistribution(t *testing.T) {
	d := NewDistribution("pos", "LRU", "MID", "MRU")
	d.Add(0)
	d.Add(0)
	d.Add(2)
	d.Add(99) // out of range: ignored
	d.Add(-1) // ignored
	if d.Total() != 3 {
		t.Fatalf("Total = %d", d.Total())
	}
	if f := d.Fraction(0); math.Abs(f-2.0/3) > 1e-12 {
		t.Fatalf("Fraction(0) = %v", f)
	}
	if d.Fraction(7) != 0 {
		t.Fatal("out-of-range fraction must be 0")
	}
	if s := d.String(); !strings.Contains(s, "LRU=66.7%") {
		t.Fatalf("String = %q", s)
	}
}

func TestEmptyDistribution(t *testing.T) {
	d := NewDistribution("x", "a")
	if d.Fraction(0) != 0 {
		t.Fatal("empty distribution fraction != 0")
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram()
	h.Add(5)
	h.Add(5)
	h.Add(-3)
	if h.Get(5) != 2 || h.Get(-3) != 1 || h.Get(0) != 0 {
		t.Fatal("histogram counts wrong")
	}
	keys := h.Keys()
	if len(keys) != 2 || keys[0] != -3 || keys[1] != 5 {
		t.Fatalf("Keys = %v", keys)
	}
	if h.Total() != 3 {
		t.Fatalf("Total = %d", h.Total())
	}
}

// TestGeoMeanBounds: the geometric mean of positive values lies between
// min and max.
func TestGeoMeanBounds(t *testing.T) {
	f := func(raw []uint16) bool {
		var xs []float64
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, r := range raw {
			v := float64(r%1000) + 1
			xs = append(xs, v)
			lo = math.Min(lo, v)
			hi = math.Max(hi, v)
		}
		if len(xs) == 0 {
			return true
		}
		g := GeoMean(xs)
		return g >= lo-1e-9 && g <= hi+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLogHistAddNEqualsRepeatedAdd(t *testing.T) {
	var one, many LogHist
	for _, v := range []uint64{0, 1, 5, 1 << 40} {
		for i := 0; i < 7; i++ {
			one.Add(v)
		}
		many.AddN(v, 7)
	}
	many.AddN(3, 0)
	if one != many {
		t.Fatalf("AddN: %v, repeated Add: %v", many.Counts, one.Counts)
	}
	if many.Total() != 28 {
		t.Fatalf("Total = %d, want 28", many.Total())
	}
}
