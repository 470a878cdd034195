package sim

import (
	"context"
	"testing"

	"fdpsim/internal/mem"
	"fdpsim/internal/stats"
)

// attrTestConfig is a short FDP run sized so intervals close fast (small
// L2, tight TInterval) with attribution enabled.
func attrTestConfig() Config {
	cfg := WithFDP(PrefStream)
	cfg.Workload = "chaserand"
	cfg.MaxInsts = 150_000
	cfg.L2Blocks = 1024
	cfg.FDP.TInterval = 64
	cfg.Attribution = true
	return cfg
}

// TestAttributionConsistency cross-checks the whole-run Attribution block
// and the per-interval trace samples against the independently maintained
// Counters and DRAM statistics: the stall-cause buckets must sum to the
// exact cycle count, bus-occupancy cycles must equal bus transactions
// times the transfer time, row-buffer outcomes must match the DRAM model,
// the occupancy histograms must hold one sample per cycle, and the
// interval deltas must sum to (a prefix of) the whole-run totals.
func TestAttributionConsistency(t *testing.T) {
	tr := &collectTracer{}
	cfg := attrTestConfig()
	cfg.Tracer = tr

	res, err := RunContext(context.Background(), cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	a := res.Attribution
	if a == nil {
		t.Fatal("Config.Attribution set but Result.Attribution is nil")
	}
	if res.Intervals == 0 || len(tr.events) == 0 {
		t.Fatal("run closed no FDP intervals")
	}

	if got, want := a.Cycles.Total(), res.Counters.Cycles; got != want {
		t.Errorf("stall-cause buckets sum to %d cycles, want exactly Counters.Cycles = %d", got, want)
	}
	if a.Cycles.RetireFull+a.Cycles.RetirePartial == 0 {
		t.Error("no retire cycles classified")
	}

	transfer := mem.DefaultConfig().Transfer
	busWant := [3]uint64{
		res.DRAM.Started[mem.Demand] * transfer,
		res.DRAM.Started[mem.Prefetch] * transfer,
		res.DRAM.Started[mem.Writeback] * transfer,
	}
	busGot := [3]uint64{a.BusDemandCycles, a.BusPrefetchCycles, a.BusWritebackCycles}
	if busGot != busWant {
		t.Errorf("bus occupancy cycles = %v, want Started×Transfer = %v", busGot, busWant)
	}
	if a.RowHits != res.DRAM.RowHits || a.RowMisses != res.DRAM.RowMisses {
		t.Errorf("row outcomes (%d,%d) disagree with DRAM stats (%d,%d)",
			a.RowHits, a.RowMisses, res.DRAM.RowHits, res.DRAM.RowMisses)
	}
	if a.BusUtilization() <= 0 || a.BusUtilization() > 2 {
		t.Errorf("implausible bus utilization %g", a.BusUtilization())
	}

	// One occupancy sample per post-warmup cycle.
	for name, h := range map[string]*stats.LogHist{
		"MSHROcc": &a.MSHROcc, "QueueDemand": &a.QueueDemand,
		"QueuePrefetch": &a.QueuePrefetch, "QueueWriteback": &a.QueueWriteback,
	} {
		if got := h.Total(); got != res.Counters.Cycles {
			t.Errorf("%s holds %d samples, want one per cycle (%d)", name, got, res.Counters.Cycles)
		}
	}

	// Timeliness: every fill-to-use sample is a used prefetch, every
	// late-by sample a late one.
	if got := a.FillToUse.Total(); got > res.Counters.PrefUsed {
		t.Errorf("FillToUse holds %d samples, more than PrefUsed %d", got, res.Counters.PrefUsed)
	}
	if got := a.LateBy.Total(); got > res.Counters.PrefLate {
		t.Errorf("LateBy holds %d samples, more than PrefLate %d", got, res.Counters.PrefLate)
	}
	if a.FillToUse.Total() == 0 {
		t.Error("no fill-to-use samples recorded on a prefetch-heavy run")
	}

	// Interval samples telescope: their sums form a prefix of the run
	// totals (cycles after the last boundary belong to no interval).
	var sum stats.IntervalSample
	for i, ev := range tr.events {
		if ev.Sample.Cycles.Total() == 0 {
			t.Fatalf("event %d carries an empty attribution sample", i)
		}
		sum.Cycles.RetireFull += ev.Sample.Cycles.RetireFull
		sum.Cycles.RetirePartial += ev.Sample.Cycles.RetirePartial
		sum.Cycles.StallLoadMiss += ev.Sample.Cycles.StallLoadMiss
		sum.Cycles.StallROBFull += ev.Sample.Cycles.StallROBFull
		sum.Cycles.StallDRAMBP += ev.Sample.Cycles.StallDRAMBP
		sum.Cycles.StallIFetch += ev.Sample.Cycles.StallIFetch
		sum.Cycles.StallFrontend += ev.Sample.Cycles.StallFrontend
		sum.BusDemandCycles += ev.Sample.BusDemandCycles
		sum.BusPrefetchCycles += ev.Sample.BusPrefetchCycles
		sum.BusWritebackCycles += ev.Sample.BusWritebackCycles
		sum.RowHits += ev.Sample.RowHits
		sum.RowMisses += ev.Sample.RowMisses
	}
	if got, max := sum.Cycles.Total(), a.Cycles.Total(); got > max {
		t.Errorf("interval cycle deltas sum to %d, exceeding the run total %d", got, max)
	}
	per := map[string][2]uint64{
		"RetireFull":    {sum.Cycles.RetireFull, a.Cycles.RetireFull},
		"RetirePartial": {sum.Cycles.RetirePartial, a.Cycles.RetirePartial},
		"StallLoadMiss": {sum.Cycles.StallLoadMiss, a.Cycles.StallLoadMiss},
		"StallROBFull":  {sum.Cycles.StallROBFull, a.Cycles.StallROBFull},
		"StallDRAMBP":   {sum.Cycles.StallDRAMBP, a.Cycles.StallDRAMBP},
		"StallIFetch":   {sum.Cycles.StallIFetch, a.Cycles.StallIFetch},
		"StallFrontend": {sum.Cycles.StallFrontend, a.Cycles.StallFrontend},
		"BusDemand":     {sum.BusDemandCycles, a.BusDemandCycles},
		"BusPrefetch":   {sum.BusPrefetchCycles, a.BusPrefetchCycles},
		"BusWriteback":  {sum.BusWritebackCycles, a.BusWritebackCycles},
		"RowHits":       {sum.RowHits, a.RowHits},
		"RowMisses":     {sum.RowMisses, a.RowMisses},
	}
	for name, v := range per {
		if v[0] > v[1] {
			t.Errorf("%s: interval sum %d exceeds run total %d", name, v[0], v[1])
		}
	}
}

// TestAttributionWarmup checks the warmup reset: with WarmupInsts set the
// buckets must still sum to the post-warmup Counters.Cycles exactly, and
// the bus/row totals must cover post-warmup traffic only.
func TestAttributionWarmup(t *testing.T) {
	cfg := attrTestConfig()
	cfg.WarmupInsts = 50_000
	res, err := RunContext(context.Background(), cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	a := res.Attribution
	if a == nil {
		t.Fatal("Result.Attribution missing")
	}
	if got, want := a.Cycles.Total(), res.Counters.Cycles; got != want {
		t.Errorf("post-warmup buckets sum to %d, want %d", got, want)
	}
	transfer := mem.DefaultConfig().Transfer
	// res.DRAM is cumulative (includes warmup), so the attribution bus
	// cycles must be strictly less than the lifetime totals.
	if whole := res.DRAM.Started[mem.Demand] * transfer; a.BusDemandCycles >= whole {
		t.Errorf("post-warmup demand bus cycles %d not below lifetime %d", a.BusDemandCycles, whole)
	}
	if got := a.MSHROcc.Total(); got != res.Counters.Cycles {
		t.Errorf("MSHR histogram holds %d samples, want post-warmup cycles %d", got, res.Counters.Cycles)
	}
}

// TestAttributionDoesNotPerturb pins the acceptance contract: enabling
// attribution changes no simulation outcome — counters, DRAM statistics
// and derived metrics are bit-identical with it on and off.
func TestAttributionDoesNotPerturb(t *testing.T) {
	for _, wl := range []string{"chaserand", "mixedphase"} {
		t.Run(wl, func(t *testing.T) {
			cfg := attrTestConfig()
			cfg.Workload = wl
			cfg.Attribution = false
			off, err := RunContext(context.Background(), cfg)
			if err != nil {
				t.Fatalf("Run (off): %v", err)
			}
			cfg.Attribution = true
			on, err := RunContext(context.Background(), cfg)
			if err != nil {
				t.Fatalf("Run (on): %v", err)
			}
			if off.Attribution != nil {
				t.Error("attribution off but Result.Attribution set")
			}
			if on.Attribution == nil {
				t.Error("attribution on but Result.Attribution nil")
			}
			if off.Counters != on.Counters {
				t.Errorf("Counters differ:\noff: %+v\non:  %+v", off.Counters, on.Counters)
			}
			if off.DRAM != on.DRAM {
				t.Errorf("DRAM stats differ:\noff: %+v\non:  %+v", off.DRAM, on.DRAM)
			}
			if off.IPC != on.IPC || off.BPKI != on.BPKI || off.FinalLevel != on.FinalLevel {
				t.Errorf("derived metrics differ: IPC %g/%g BPKI %g/%g level %d/%d",
					off.IPC, on.IPC, off.BPKI, on.BPKI, off.FinalLevel, on.FinalLevel)
			}
		})
	}
}
