package sim

import (
	"fdpsim/internal/cache"
	"fdpsim/internal/mem"
	"fdpsim/internal/stats"
)

// attribution is the hierarchy-side state of the cycle-accounting and
// bandwidth-attribution layer (enabled by Config.Attribution). It is
// purely observational: every hook reads simulation state or records
// timestamps, and none of them feeds back into timing decisions, so
// enabling it cannot perturb results. All per-cycle work writes into
// fixed-size structures; the two maps are touched only on prefetch fills,
// uses, and evictions (cache-miss-rate frequency, not per cycle), and
// reuse deleted buckets, so the steady-state loop stays allocation-free.
type attribution struct {
	// cpu is written by the core each cycle (cpu.SetAttribution target);
	// cumulative since construction, including warmup.
	cpu stats.CycleBuckets

	// agg accumulates the whole-run histograms (occupancy, timeliness)
	// post-warmup; the cumulative-counter fields (Cycles, Bus*, Row*) are
	// filled at finalize from the baselines below.
	agg stats.Attribution

	// fillCycle records, per prefetched block, the cycle its fill
	// completed — consumed by the first demand use (fill-to-use latency)
	// or by eviction (unused prefetch). lateAt records, per late
	// prefetch, the cycle the demand merged into the in-flight request —
	// consumed by the fill (late-by latency).
	fillCycle map[cache.Addr]uint64
	lateAt    map[cache.Addr]uint64

	// Warmup baselines: cycle buckets and DRAM stats at the warmup reset,
	// subtracted at finalize so Attribution covers post-warmup work only.
	warmCycles stats.CycleBuckets
	warmMem    mem.Stats

	// Previous interval-boundary snapshots, for per-interval deltas.
	lastCycles stats.CycleBuckets
	lastMem    mem.Stats

	// Per-interval occupancy-sample accumulators (reset every boundary).
	mshrSum, queueSum, sampleCount uint64
}

func newAttribution() *attribution {
	return &attribution{
		fillCycle: make(map[cache.Addr]uint64),
		lateAt:    make(map[cache.Addr]uint64),
	}
}

// backpressured reports whether the memory system is refusing new demand
// work: demand accesses are parked awaiting replay, or the MSHR file is
// full. Used by the core to split load-miss stalls.
func (h *hierarchy) backpressured() bool {
	return h.pendingDemand.len() > 0 || h.mshr.Full()
}

// attrSampleCycle records the per-cycle occupancy samples (MSHR file and
// DRAM queue depths). Called from Tick when attribution is on.
func (h *hierarchy) attrSampleCycle() {
	a := h.attr
	mo := uint64(h.mshr.Used())
	qd := uint64(h.dram.QueueLen(mem.Demand))
	qp := uint64(h.dram.QueueLen(mem.Prefetch))
	qw := uint64(h.dram.QueueLen(mem.Writeback))
	a.agg.MSHROcc.Add(mo)
	a.agg.QueueDemand.Add(qd)
	a.agg.QueuePrefetch.Add(qp)
	a.agg.QueueWriteback.Add(qw)
	a.mshrSum += mo
	a.queueSum += qd + qp + qw
	a.sampleCount++
}

// attrPrefFilled records a prefetch fill completing at the current cycle
// (start of the block's fill-to-use clock). If the fill resolves a late
// prefetch — a demand merged while it was in flight — the late-by
// duration is recorded instead and the block yields no fill-to-use sample
// (the demand consumed it before it ever sat idle in the cache).
func (h *hierarchy) attrPrefFilled(block cache.Addr, stillPref bool) {
	a := h.attr
	if stillPref {
		a.fillCycle[block] = h.cyc
		return
	}
	if at, ok := a.lateAt[block]; ok {
		a.agg.LateBy.Add(h.cyc - at)
		delete(a.lateAt, block)
	}
}

// attrPrefLate records the cycle a demand merged into an in-flight
// prefetch (start of the late-by clock).
func (h *hierarchy) attrPrefLate(block cache.Addr) {
	h.attr.lateAt[block] = h.cyc
}

// attrPrefUsed records the first demand use of a prefetched block.
func (h *hierarchy) attrPrefUsed(block cache.Addr) {
	a := h.attr
	if fc, ok := a.fillCycle[block]; ok {
		a.agg.FillToUse.Add(h.cyc - fc)
		delete(a.fillCycle, block)
	}
}

// attrPrefEvicted records a prefetched block leaving the L2 or the
// prefetch cache without ever being used.
func (h *hierarchy) attrPrefEvicted(block cache.Addr) {
	a := h.attr
	if _, ok := a.fillCycle[block]; ok {
		delete(a.fillCycle, block)
		a.agg.PrefUnused++
	}
}

// attrWarmupReset snapshots the warm baselines at the end of the warmup
// phase and clears the post-warmup accumulators, mirroring the runner's
// Counters reset. The timeliness maps are kept: blocks prefetched during
// warmup may see their first use afterwards, and the recorded timestamps
// are absolute cycles, so the durations stay correct across the reset.
func (h *hierarchy) attrWarmupReset() {
	a := h.attr
	fillCycle, lateAt := a.fillCycle, a.lateAt
	*a = attribution{
		cpu:        a.cpu,
		fillCycle:  fillCycle,
		lateAt:     lateAt,
		warmCycles: a.cpu,
		warmMem:    h.dram.Stats(),
		lastCycles: a.cpu,
		lastMem:    h.dram.Stats(),
	}
}

// attrIntervalSample builds the attribution delta since the previous FDP
// interval boundary (or warmup reset) and advances the boundary
// snapshots. The interval's cycle count is the bucket-delta total — by
// construction the stall-cause buckets sum to it exactly.
func (h *hierarchy) attrIntervalSample() stats.IntervalSample {
	a := h.attr
	cur := a.cpu
	ms := h.dram.Stats()
	bus := h.busCycles(ms, a.lastMem)
	s := stats.IntervalSample{
		Cycles:             cur.Sub(a.lastCycles),
		BusDemandCycles:    bus[mem.Demand],
		BusPrefetchCycles:  bus[mem.Prefetch],
		BusWritebackCycles: bus[mem.Writeback],
		RowHits:            ms.RowHits - a.lastMem.RowHits,
		RowMisses:          ms.RowMisses - a.lastMem.RowMisses,
	}
	if t := s.Cycles.Total(); t > 0 {
		s.BusUtilization = float64(s.BusOccupancy()) / float64(t)
	}
	if a.sampleCount > 0 {
		s.MSHRMean = float64(a.mshrSum) / float64(a.sampleCount)
		s.QueueMean = float64(a.queueSum) / float64(a.sampleCount)
	}
	a.lastCycles = cur
	a.lastMem = ms
	a.mshrSum, a.queueSum, a.sampleCount = 0, 0, 0
	return s
}

// attrFinalize materializes the whole-run Attribution block: the
// histograms accumulated since warmup plus the cumulative counters
// relative to the warm baselines. Returns nil when attribution is off.
func (h *hierarchy) attrFinalize() *stats.Attribution {
	a := h.attr
	if a == nil {
		return nil
	}
	out := a.agg
	out.Cycles = a.cpu.Sub(a.warmCycles)
	ms := h.dram.Stats()
	bus := h.busCycles(ms, a.warmMem)
	out.BusDemandCycles = bus[mem.Demand]
	out.BusPrefetchCycles = bus[mem.Prefetch]
	out.BusWritebackCycles = bus[mem.Writeback]
	out.RowHits = ms.RowHits - a.warmMem.RowHits
	out.RowMisses = ms.RowMisses - a.warmMem.RowMisses
	return &out
}
