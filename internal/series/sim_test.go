package series

import (
	"bytes"
	"context"
	"testing"

	"fdpsim/internal/sim"
)

// seriesTestConfig is a small full-FDP run with attribution, sized so a
// few dozen intervals close (mirrors the sim package's attribution tests).
func seriesTestConfig() sim.Config {
	cfg := sim.WithFDP(sim.PrefStream)
	cfg.Workload = "chaserand"
	cfg.MaxInsts = 150_000
	cfg.L2Blocks = 1024
	cfg.FDP.TInterval = 64
	cfg.Attribution = true
	cfg.Seed = 7
	return cfg
}

// TestSeriesDeterministic runs the same (config, seed) twice with fresh
// recorders: the encoded sidecars must be byte-identical — the property
// that makes a cache-hit replay diff to zero residual.
func TestSeriesDeterministic(t *testing.T) {
	encode := func() []byte {
		rec := &Recorder{}
		cfg := seriesTestConfig()
		cfg.Tracer = rec
		if _, err := sim.RunContext(context.Background(), cfg); err != nil {
			t.Fatalf("Run: %v", err)
		}
		s := rec.Series()
		s.Meta.Workload = cfg.Workload
		s.Meta.Prefetcher = "stream"
		enc, err := Encode(s)
		if err != nil {
			t.Fatalf("Encode: %v", err)
		}
		return enc
	}
	a := encode()
	b := encode()
	if !bytes.Equal(a, b) {
		t.Error("same (config, seed) produced different sidecars")
	}
	// And the self-diff of the decoded series is exactly zero everywhere.
	sa, err := Decode(a)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	rep := Diff(sa, sb, Options{})
	for _, md := range rep.Metrics {
		if md.RMS != 0 || md.MaxAbs != 0 || md.FirstDivergence != 0 {
			t.Errorf("%s: nonzero residual between identical runs", md.Metric)
		}
	}
}

// TestSeriesCrossCheck validates recorded columns against the run's own
// Result: interval counts match, the cumulative cycle/retire stamps
// reconstruct from the deltas, the final DCC level agrees, per-interval
// IPC is internally consistent, and the raw prefetch counts sum to (at
// most, the trailing partial interval is unsampled) the whole-run totals.
func TestSeriesCrossCheck(t *testing.T) {
	rec := &Recorder{}
	cfg := seriesTestConfig()
	cfg.Tracer = rec
	res, err := sim.RunContext(context.Background(), cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	s := rec.Series()
	if s.Len() == 0 {
		t.Fatal("no intervals recorded")
	}
	if uint64(s.Len()) != res.Intervals {
		t.Errorf("series has %d intervals, Result.Intervals = %d", s.Len(), res.Intervals)
	}

	level, _ := s.Column("dcc_level")
	if got := int(level[len(level)-1]); got != res.FinalLevel {
		t.Errorf("last dcc_level = %d, Result.FinalLevel = %d", got, res.FinalLevel)
	}

	cycles, _ := s.Column("cycles")
	retired, _ := s.Column("retired")
	ipc, _ := s.Column("ipc")
	var sumCycles, sumRetired uint64
	for i := range cycles {
		dc, dr := uint64(cycles[i]), uint64(retired[i])
		sumCycles += dc
		sumRetired += dr
		var want float64
		if dc > 0 {
			want = float64(dr) / float64(dc)
		}
		if ipc[i] != want {
			t.Errorf("ipc[%d] = %g, want %g from the cycle/retire columns", i, ipc[i], want)
		}
	}
	// The deltas reconstruct the last boundary's cumulative stamps, which
	// cannot exceed the whole-run (post-warmup) totals.
	if sumCycles > res.Counters.Cycles {
		t.Errorf("sum(cycles) = %d exceeds Counters.Cycles = %d", sumCycles, res.Counters.Cycles)
	}
	if sumRetired > res.Counters.Retired {
		t.Errorf("sum(retired) = %d exceeds Counters.Retired = %d", sumRetired, res.Counters.Retired)
	}
	if sumCycles == 0 || sumRetired == 0 {
		t.Error("cumulative stamps never advanced")
	}

	for name, total := range map[string]uint64{
		"pref_sent":     res.Counters.PrefSent,
		"pref_used":     res.Counters.PrefUsed,
		"pref_late":     res.Counters.PrefLate,
		"demand_misses": res.Counters.DemandMisses,
	} {
		col, _ := s.Column(name)
		var sum uint64
		for _, v := range col {
			sum += uint64(v)
		}
		if sum > total {
			t.Errorf("sum(%s) = %d exceeds whole-run total %d", name, sum, total)
		}
		if total > 0 && sum == 0 {
			t.Errorf("sum(%s) = 0 but whole-run total is %d", name, total)
		}
	}

	// Attribution shares are populated and sane (the run has it enabled).
	for _, name := range []string{"stall_load_miss", "bus_util", "row_hit_rate"} {
		col, _ := s.Column(name)
		var max float64
		for _, v := range col {
			if v < 0 || v > 1 {
				t.Errorf("%s out of [0,1]: %g", name, v)
			}
			if v > max {
				max = v
			}
		}
		if max == 0 {
			t.Errorf("%s never nonzero despite attribution", name)
		}
	}
}

// TestSeriesDoesNotPerturb re-runs the same configuration with and
// without a recorder attached: every simulation observable must be
// bit-identical (acceptance: recording series perturbs nothing).
func TestSeriesDoesNotPerturb(t *testing.T) {
	cfg := seriesTestConfig()
	bare, err := sim.RunContext(context.Background(), cfg)
	if err != nil {
		t.Fatalf("Run (no recorder): %v", err)
	}
	rec := &Recorder{}
	cfg.Tracer = rec
	traced, err := sim.RunContext(context.Background(), cfg)
	if err != nil {
		t.Fatalf("Run (recorder): %v", err)
	}
	if bare.Counters != traced.Counters {
		t.Errorf("Counters differ:\nbare:   %+v\ntraced: %+v", bare.Counters, traced.Counters)
	}
	if bare.DRAM != traced.DRAM {
		t.Errorf("DRAM stats differ:\nbare:   %+v\ntraced: %+v", bare.DRAM, traced.DRAM)
	}
	if bare.IPC != traced.IPC || bare.BPKI != traced.BPKI || bare.FinalLevel != traced.FinalLevel ||
		bare.Intervals != traced.Intervals {
		t.Errorf("derived metrics differ: IPC %g/%g BPKI %g/%g level %d/%d intervals %d/%d",
			bare.IPC, traced.IPC, bare.BPKI, traced.BPKI,
			bare.FinalLevel, traced.FinalLevel, bare.Intervals, traced.Intervals)
	}
	if rec.Len() == 0 {
		t.Error("recorder saw no events")
	}
}
